import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prif.baselines import (EpidemicRouter, NoPrivacyPrifRouter, ProphetRouter,
                            ProphetState)
from prif.energy import EnergyParams, decay_windows
from prif.model import Message
from prif.routing import Action, interest_wire_bytes
from prif.sim import build_trace, desk_preset, run

from conftest import link_sessions, make_plain_router, set_inter, set_intra

NOW = 500.0


def msg(msg_id=1, source=0, destination=9, dest_community=3,
        size=100, created_at=0.0, ttl_min=600.0, payload=b"p"):
    return Message(msg_id=msg_id, source=source, destination=destination,
                   dest_community=dest_community, size_bytes=size,
                   created_at=created_at, ttl_min=ttl_min, payload=payload)


# ---------------------------------------------------------------------------
# epidemic
# ---------------------------------------------------------------------------

class TestEpidemic:
    def _pair(self):
        a = EpidemicRouter(0, 0, 10_000)
        b = EpidemicRouter(1, 0, 10_000)
        a.begin_contact(b, NOW, random.Random(1))
        return a, b

    def test_relay_when_peer_lacks(self):
        a, b = self._pair()
        assert a.decide(b, msg(), NOW).action is Action.RELAY

    def test_hold_when_peer_has_copy(self):
        a, b = self._pair()
        m = msg()
        b.admit(m, NOW)
        assert a.decide(b, m, NOW).action is Action.HOLD

    def test_deliver_at_destination(self):
        a, b = self._pair()
        assert a.decide(b, msg(destination=1), NOW).action is Action.DELIVER

    def test_hold_when_peer_already_delivered(self):
        a, b = self._pair()
        m = msg()
        b.mark_delivered(m.msg_id)
        assert a.decide(b, m, NOW).action is Action.HOLD

    def test_drop_oldest_eviction(self):
        a = EpidemicRouter(0, 0, 300)
        a.admit(msg(msg_id=1, size=150, created_at=10.0), NOW)
        a.admit(msg(msg_id=2, size=150, created_at=20.0), NOW)
        _, evicted, _ = a.admit(msg(msg_id=3, size=150, created_at=30.0), NOW)
        assert [v.msg_id for v in evicted] == [1]


# ---------------------------------------------------------------------------
# delivery predictability
# ---------------------------------------------------------------------------

class TestProphetUpdates:
    def test_first_encounter_from_zero(self):
        s = ProphetState(owner=0)
        s.encounter(5)
        assert s.p[5] == pytest.approx(0.75)

    def test_aging_two_windows(self):
        r = ProphetRouter(0, 0, 10_000)
        r.state.p[5] = 0.75
        assert r.predictability(5, 60.0) == pytest.approx(0.75 * 0.9604)
        assert r.state.p == {5: 0.75} and r.state.last_aged_at == 0.0
        r.state.age(60.0)
        assert r.state.p[5] == pytest.approx(0.75 * 0.9604)
        assert r.state.last_aged_at == 60.0

    @settings(max_examples=200)
    @given(st.floats(0, 1), st.integers(0, 4_000).map(lambda t: t / 4),
           st.integers(0, 8_000).map(lambda t: t / 4))
    def test_predictability_is_p_times_power(self, p, anchor, now):
        r = ProphetRouter(0, 0, 10_000)
        r.state.p[5] = p
        r.state.last_aged_at = anchor
        s = r.state
        assert r.predictability(5, now) == p * s.gamma_age ** decay_windows(
            anchor, now, s.window)

    def test_transitive_from_zero(self):
        s = ProphetState(owner=0, p={1: 0.75})
        s.transitive(1, [(2, 0.75)])
        assert s.p[2] == pytest.approx(0.140625)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["encounter", "age", "transitive",
                                               "read"]),
                              st.integers(1, 5), st.integers(0, 3000)),
                    max_size=40))
    def test_p_stays_in_unit_interval(self, events):
        r = ProphetRouter(0, 0, 10_000)
        s = r.state
        now = 0.0
        for kind, peer, dt in events:
            now += dt
            if kind == "encounter":
                s.encounter(peer)
            elif kind == "age":
                s.age(now)
            elif kind == "transitive":
                s.transitive(peer, [(peer + 1, 0.9), (peer + 2, 0.4)])
            else:
                assert 0.0 <= r.predictability(peer, now) <= 1.0
            assert all(0.0 <= v <= 1.0 for v in s.p.values())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 900.0),
                              st.sampled_from([(0, 1), (0, 2), (1, 2), (2, 3),
                                               (1, 3)]),
                              st.lists(st.tuples(st.integers(0, 3),
                                                 st.integers(0, 5),
                                                 st.floats(-500.0, 5_000.0)),
                                       max_size=4)),
                    min_size=1, max_size=30))
    def test_extra_reads_change_nothing(self, script):
        """Predictability reads between contacts leave every vector and
        every later read bit-identical to a run without them."""
        def routers():
            return [ProphetRouter(n, 0, 10_000) for n in range(4)]

        def snapshot(rs):
            return [(r.state.last_aged_at, dict(r.state.p)) for r in rs]

        plain, probed = routers(), routers()
        now = 0.0
        for dt, (a, b), reads in script:
            now += dt
            plain[a].begin_contact(plain[b], now, random.Random(1))
            probed[a].begin_contact(probed[b], now, random.Random(1))
            for node, dest, offset in reads:
                before = snapshot(probed)
                probed[node].predictability(dest, now + offset)
                assert snapshot(probed) == before
            assert snapshot(probed) == snapshot(plain)
        for at in (now, now + 29.0, now + 31.0, now + 1e4):
            for rp, rq in zip(plain, probed):
                for dest in range(6):
                    assert rq.predictability(dest, at) == rp.predictability(dest, at)


class TestProphetRouter:
    def test_contact_bumps_both_sides(self):
        a = ProphetRouter(0, 0, 10_000)
        b = ProphetRouter(1, 0, 10_000)
        a.begin_contact(b, NOW, random.Random(1))
        assert a.state.p[1] == pytest.approx(0.75)
        assert b.state.p[0] == pytest.approx(0.75)

    def test_relay_on_strictly_higher_predictability(self):
        a = ProphetRouter(0, 0, 10_000)
        b = ProphetRouter(1, 0, 10_000)
        a.begin_contact(b, NOW, random.Random(1))
        b.state.p[9] = 0.6
        m = msg(destination=9)
        assert a.decide(b, m, NOW).action is Action.RELAY
        a.state.p[9] = 0.6
        assert a.decide(b, m, NOW).action is Action.HOLD

    def test_transitivity_through_contact(self):
        a = ProphetRouter(0, 0, 10_000)
        b = ProphetRouter(1, 0, 10_000)
        a.state.last_aged_at = b.state.last_aged_at = NOW
        b.state.p[9] = 0.8
        a.begin_contact(b, NOW, random.Random(1))
        # a gains a transitive path to 9 through b
        assert a.state.p[9] == pytest.approx(0.75 * 0.8 * 0.25)


# ---------------------------------------------------------------------------
# no-privacy twin
# ---------------------------------------------------------------------------

class TestNoPrivacy:
    def _pair(self, interest_a=0, interest_b=1):
        ep = EnergyParams()
        a = NoPrivacyPrifRouter(0, interest_a, ep, 10_000)
        b = NoPrivacyPrifRouter(1, interest_b, ep, 10_000)
        return a, b

    def test_decision_surface_matches_privacy_router(self):
        rng = random.Random(3)
        for _ in range(500):
            ia, ib, idest = (rng.randrange(3) for _ in range(3))
            a, b = self._pair(ia, ib)
            a.begin_contact(b, NOW, rng)
            set_inter(a, 9, rng.choice([0.0, 0.2, 0.2, 0.7]), NOW)
            set_inter(b, 9, rng.choice([0.0, 0.2, 0.2, 0.7]), NOW)
            set_intra(a, idest, rng.choice([0.0, 0.1, 0.1, 0.5]), NOW)
            set_intra(b, idest, rng.choice([0.0, 0.1, 0.1, 0.5]), NOW)
            m = msg(destination=9, dest_community=idest)
            got = a.decide(b, m, NOW).action.value

            pa = make_plain_router(0, ia)
            pb = make_plain_router(1, ib)
            link_sessions(pa, pb)
            set_inter(pa, 9, a.energy.inter[9].value, NOW)
            set_inter(pb, 9, b.energy.inter[9].value, NOW)
            set_intra(pa, idest, a.energy.intra[idest].value, NOW)
            set_intra(pb, idest, b.energy.intra[idest].value, NOW)
            want = pa.decide(pb, msg(destination=9, dest_community=idest),
                             NOW).action.value
            assert got == want

    def test_contact_announces_interest_in_plaintext(self):
        a, b = self._pair(2, 1)
        ok, frames_a, frames_b = a.begin_contact(b, NOW, random.Random(1))
        assert ok
        assert frames_a == (interest_wire_bytes(2),)
        assert frames_b == (interest_wire_bytes(1),)

    def test_no_revocation_layer(self):
        # no credentials are checked at all: contacts always usable
        a, b = self._pair()
        ok, _, _ = a.begin_contact(b, NOW, random.Random(1))
        assert ok

    def test_energy_keyed_by_interest_numbers(self):
        from prif.model import ContactEvent
        a, b = self._pair(0, 1)
        a.begin_contact(b, 100.0, random.Random(1))
        a.end_contact(b, ContactEvent(0, 1, 100.0, 130.0))
        assert a.energy.intra[1].cumulative_count == 1
        assert b.energy.intra[0].cumulative_count == 1


# ---------------------------------------------------------------------------
# flooding dominance under no resource pressure
# ---------------------------------------------------------------------------

class TestDominance:
    def test_epidemic_delivers_superset_without_resource_pressure(self):
        from dataclasses import replace
        base = desk_preset(seed=11)
        # flooding dominance presumes no resource limits anywhere: huge
        # buffers, effectively infinite TTL, and unconstrained links
        groups = tuple(replace(g, link_rate_bps=1e13) for g in base.groups)
        base = base.with_overrides(groups=groups, duration=6000.0, warmup=500.0,
                                   buffer_bytes=10 ** 12, ttl_min=10 ** 6)
        trace = build_trace(base)
        delivered = {}
        for router in ("epidemic", "prif", "prif-noprivacy", "prophet"):
            events = []
            run(base.with_overrides(router=router), trace=trace, events=events)
            delivered[router] = {x for _, kind, _, _, x in events
                                 if kind == "deliver"}
        for router in ("prif", "prif-noprivacy", "prophet"):
            assert delivered[router] <= delivered["epidemic"], router
