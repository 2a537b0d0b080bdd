import math

import pytest

from prif.model import ContactEvent, Message, message_is_expired


def make_msg(**kw):
    base = dict(msg_id=1, source=0, destination=1, dest_community="G0",
                size_bytes=1000, created_at=0.0, payload=b"x")
    base.update(kw)
    return Message(**base)


class TestExpiry:
    def test_alive_exactly_at_ttl_boundary(self):
        m = make_msg(created_at=0.0)
        assert message_is_expired(m, 600.0, 36_000.0) is False

    def test_dead_one_second_past_boundary(self):
        m = make_msg(created_at=0.0)
        assert message_is_expired(m, 600.0, 36_001.0) is True

    def test_zero_age_alive(self):
        m = make_msg(created_at=100.0)
        assert message_is_expired(m, 600.0, 100.0) is False

    def test_ttl_minutes_convert_exactly(self):
        m = make_msg(created_at=0.0)
        assert message_is_expired(m, 0.5, 30.0) is False
        assert message_is_expired(m, 0.5, math.nextafter(30.0, math.inf)) is True
        assert message_is_expired(m, 600.0, 36_000.0) is False


class TestMessage:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            make_msg(size_bytes=0)


class TestContactEvent:
    def test_normalises_pair_order(self):
        c = ContactEvent(7, 3, 10.0, 20.0)
        assert (c.a, c.b) == (3, 7)

    def test_duration(self):
        assert ContactEvent(0, 1, 10.0, 45.0).duration == 35.0

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            ContactEvent(0, 1, 10.0, 10.0)

    def test_rejects_self_contact(self):
        with pytest.raises(ValueError):
            ContactEvent(2, 2, 0.0, 5.0)
