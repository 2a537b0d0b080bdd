import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prif import auth
from prif.baselines import EpidemicRouter
from prif.energy import EnergyParams
from prif.model import ContactEvent, Message, message_is_expired
from prif.routing import (Action, AuthContext, Carrier, ForwardDecision,
                          PrifRouter, Reason, SealError, encode_message_header,
                          seal_payload, unseal_payload)
from prif.sim import GroupSpec, Scenario, run
from prif.sim.trace import ContactTrace, MessagePlan

from conftest import (link_sessions, make_plain_carrier, make_plain_router,
                      random_nonce, set_inter, set_intra)
from oracles import SetBufferNode, forwarding_reference

NOW = 1000.0


def msg(msg_id=1, source=0, destination=9, dest_community="D",
        size=100, created_at=0.0, payload=b"p"):
    return Message(msg_id=msg_id, source=source, destination=destination,
                   dest_community=dest_community, size_bytes=size,
                   created_at=created_at, payload=payload)


# ---------------------------------------------------------------------------
# forwarding decision
# ---------------------------------------------------------------------------

class TestDecide:
    def test_destination_met(self):
        carrier = make_plain_router(0, "D")
        peer = make_plain_router(9, "X")
        link_sessions(carrier, peer)
        d = carrier.decide(peer, msg(destination=9), NOW)
        assert d == ForwardDecision(Action.DELIVER, Reason.DESTINATION_MET)

    def test_same_community_higher_inter_relays(self):
        carrier = make_plain_router(0, "D")
        peer = make_plain_router(1, "D")
        link_sessions(carrier, peer)
        set_inter(carrier, 9, 0.3, NOW)
        set_inter(peer, 9, 0.5, NOW)
        d = carrier.decide(peer, msg(destination=9), NOW)
        assert d == ForwardDecision(Action.RELAY, Reason.SAME_COMMUNITY_HIGHER_INTER)

    def test_equal_energy_holds(self):
        carrier = make_plain_router(0, "D")
        peer = make_plain_router(1, "D")
        link_sessions(carrier, peer)
        set_inter(carrier, 9, 0.4, NOW)
        set_inter(peer, 9, 0.4, NOW)
        d = carrier.decide(peer, msg(destination=9), NOW)
        assert d.action is Action.HOLD

    def test_carrier_inside_peer_outside_holds(self):
        carrier = make_plain_router(0, "D")
        peer = make_plain_router(1, "X")
        link_sessions(carrier, peer)
        set_intra(peer, "D", 0.9, NOW)
        d = carrier.decide(peer, msg(destination=9), NOW)
        assert d.action is Action.HOLD

    def test_peer_in_destination_community_always_relays(self):
        carrier = make_plain_router(0, "X")
        peer = make_plain_router(1, "D")
        link_sessions(carrier, peer)
        set_inter(carrier, 9, 0.99, NOW)
        d = carrier.decide(peer, msg(destination=9), NOW)
        assert d == ForwardDecision(Action.RELAY,
                                    Reason.CARRIER_OUTSIDE_DEST_IN_COMMUNITY)

    def test_both_outside_higher_intra_relays(self):
        carrier = make_plain_router(0, "X")
        peer = make_plain_router(1, "Y")
        link_sessions(carrier, peer)
        set_intra(carrier, "D", 0.01, NOW)
        set_intra(peer, "D", 0.03, NOW)
        d = carrier.decide(peer, msg(destination=9), NOW)
        assert d == ForwardDecision(Action.RELAY, Reason.HIGHER_INTRA)

    def test_both_outside_tie_holds(self):
        carrier = make_plain_router(0, "X")
        peer = make_plain_router(1, "Y")
        link_sessions(carrier, peer)
        d = carrier.decide(peer, msg(destination=9), NOW)
        assert d.action is Action.HOLD

    def test_deliver_decision_requires_destination(self):
        with pytest.raises(ValueError):
            ForwardDecision(Action.DELIVER, Reason.HIGHER_INTRA)

    def test_matches_reference_on_randomized_states(self):
        rng = random.Random(7)
        comms = ["C0", "C1", "C2"]
        grid = [0.0, 0.1, 0.25, 0.25, 0.5, 0.9]
        for trial in range(3000):
            dest_comm = rng.choice(comms)
            carrier = make_plain_router(0, rng.choice(comms))
            peer_is_dest = rng.random() < 0.15
            peer = make_plain_router(9 if peer_is_dest else 1, rng.choice(comms))
            link_sessions(carrier, peer)
            ei_c, ei_p = rng.choice(grid), rng.choice(grid)
            ec_c, ec_p = rng.choice(grid), rng.choice(grid)
            set_inter(carrier, 9, ei_c, NOW)
            set_inter(peer, 9, ei_p, NOW)
            set_intra(carrier, dest_comm, ec_c, NOW)
            set_intra(peer, dest_comm, ec_p, NOW)
            m = msg(destination=9, dest_community=dest_comm)
            got = carrier.decide(peer, m, NOW).action.value
            want = forwarding_reference(
                peer.node == 9, carrier.community, peer.community, dest_comm,
                carrier.energy.effective_inter(9, NOW),
                peer.energy.effective_inter(9, NOW),
                carrier.energy.effective_intra(dest_comm, NOW),
                peer.energy.effective_intra(dest_comm, NOW))
            assert got == want, f"trial {trial}"

    def test_relay_branches_imply_strict_improvement(self):
        rng = random.Random(13)
        for _ in range(1000):
            dest_comm = "D"
            carrier = make_plain_router(0, rng.choice(["D", "X"]))
            peer = make_plain_router(1, rng.choice(["D", "X"]))
            link_sessions(carrier, peer)
            set_inter(carrier, 9, rng.random(), NOW)
            set_inter(peer, 9, rng.random(), NOW)
            set_intra(carrier, "D", rng.random(), NOW)
            set_intra(peer, "D", rng.random(), NOW)
            d = carrier.decide(peer, msg(destination=9, dest_community="D"), NOW)
            if d.reason is Reason.SAME_COMMUNITY_HIGHER_INTER:
                assert (peer.energy.effective_inter(9, NOW)
                        > carrier.energy.effective_inter(9, NOW))
            if d.reason is Reason.HIGHER_INTRA:
                assert (peer.energy.effective_intra("D", NOW)
                        > carrier.energy.effective_intra("D", NOW))


# ---------------------------------------------------------------------------
# scheduling and eviction
# ---------------------------------------------------------------------------

class TestScheduling:
    def _router(self):
        c = make_plain_router(0, "D")
        set_inter(c, 7, 0.5, NOW)
        set_inter(c, 8, 0.5, NOW)
        set_intra(c, "B1", 0.03, NOW)
        set_intra(c, "B2", 0.01, NOW)
        return c

    def test_destination_community_class_first(self):
        c = make_plain_router(0, "D")
        set_inter(c, 7, 0.2, NOW)
        set_intra(c, "B", 9.9, NOW)
        inside = msg(msg_id=1, destination=7, dest_community="D")
        outside = msg(msg_id=2, destination=8, dest_community="B")
        order = c.schedule_order([outside, inside], NOW)
        assert [m.msg_id for m in order] == [1, 2]

    def test_newer_first_on_equal_inter(self):
        c = self._router()
        older = msg(msg_id=1, destination=7, dest_community="D", created_at=10.0)
        newer = msg(msg_id=2, destination=8, dest_community="D", created_at=20.0)
        order = c.schedule_order([older, newer], NOW)
        assert [m.msg_id for m in order] == [2, 1]

    def test_descending_intra_for_outside_class(self):
        c = self._router()
        low = msg(msg_id=1, destination=5, dest_community="B2")
        high = msg(msg_id=2, destination=6, dest_community="B1")
        order = c.schedule_order([low, high], NOW)
        assert [m.msg_id for m in order] == [2, 1]

    def test_msg_id_final_tiebreak(self):
        c = self._router()
        m1 = msg(msg_id=3, destination=7, dest_community="D", created_at=10.0)
        m2 = msg(msg_id=4, destination=8, dest_community="D", created_at=10.0)
        order = c.schedule_order([m2, m1], NOW)
        assert [m.msg_id for m in order] == [3, 4]

    def test_schedule_skips_peer_held_and_dead(self):
        c = Carrier(self._router(), 1000, 600.0)
        peer = make_plain_carrier(1, "D")
        link_sessions(c.router, peer.router)
        live = msg(msg_id=1, destination=7, dest_community="D", created_at=NOW - 10)
        held = msg(msg_id=2, destination=7, dest_community="D", created_at=NOW - 10)
        dead = msg(msg_id=3, destination=7, dest_community="D",
                   created_at=NOW - 700 * 60)
        for m in (live, held, dead):
            c.admit(m, 0, NOW - 1)
        peer.admit(held, 0, NOW - 1)
        plan = c.schedule_messages(peer, NOW)
        assert [m.msg_id for m in plan] == [1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["D", "B1", "B2"]),
                              st.integers(0, 500), st.integers(5, 9),
                              st.sampled_from([0.0, 0.25, 0.5])),
                    min_size=1, max_size=30),
           st.sampled_from([0.0, 0.5]))
    def test_schedule_keys_never_tie(self, specs, intra):
        """Eviction is the schedule reversed; that is exact only because no
        two buffered copies share a schedule key, ties in community class,
        energy and age included."""
        c = make_plain_router(0, "D")
        for dest in range(5, 10):
            set_inter(c, dest, 0.5, NOW)
        set_intra(c, "B1", intra, NOW)
        set_intra(c, "B2", intra, NOW)
        msgs = []
        for i, (g, t, d, held) in enumerate(specs):
            msgs.append(msg(msg_id=i, destination=d, dest_community=g,
                            created_at=float(t)))
            if held:
                set_inter(c, d, held, NOW)
        keys = [c._schedule_key(m, None, NOW) for m in msgs]
        assert len(set(keys)) == len(keys)


class TestAdmission:
    def test_class_b_evicted_before_class_a(self):
        c = make_plain_carrier(0, "D", capacity=300)
        set_intra(c.router, "B", 0.5, NOW)
        b1 = msg(msg_id=1, destination=5, dest_community="B", size=150)
        b2 = msg(msg_id=2, destination=6, dest_community="B", size=150)
        c.admit(b1, 0, NOW)
        c.admit(b2, 0, NOW)
        incoming = msg(msg_id=3, destination=7, dest_community="D", size=150)
        admitted, evicted, _ = c.admit(incoming, 0, NOW)
        assert admitted
        assert all(v.dest_community == "B" for v in evicted)

    def test_lowest_intra_evicted_first(self):
        c = make_plain_carrier(0, "D", capacity=300)
        set_intra(c.router, "B1", 0.03, NOW)
        set_intra(c.router, "B2", 0.01, NOW)
        strong = msg(msg_id=1, destination=5, dest_community="B1", size=150)
        weak = msg(msg_id=2, destination=6, dest_community="B2", size=150)
        c.admit(strong, 0, NOW)
        c.admit(weak, 0, NOW)
        admitted, evicted, _ = c.admit(msg(msg_id=3, destination=7,
                                           dest_community="D", size=150), 0, NOW)
        assert admitted and [v.msg_id for v in evicted] == [2]

    def test_older_evicted_on_equal_energy(self):
        c = make_plain_carrier(0, "D", capacity=300)
        set_intra(c.router, "B", 0.5, NOW)
        older = msg(msg_id=1, destination=5, dest_community="B", size=150, created_at=10.0)
        newer = msg(msg_id=2, destination=6, dest_community="B", size=150, created_at=20.0)
        c.admit(newer, 0, NOW)
        c.admit(older, 0, NOW)
        admitted, evicted, _ = c.admit(msg(msg_id=3, destination=7,
                                           dest_community="D", size=150), 0, NOW)
        assert admitted and [v.msg_id for v in evicted] == [1]

    def test_oversize_rejected_buffer_untouched(self):
        c = make_plain_carrier(0, "D", capacity=300)
        keep = msg(msg_id=1, destination=5, dest_community="B", size=100)
        c.admit(keep, 0, NOW)
        admitted, evicted, _ = c.admit(msg(msg_id=2, size=301), 0, NOW)
        assert not admitted and not evicted
        assert 1 in c

    def test_expired_purged_before_admission(self):
        c = make_plain_carrier(0, "D", capacity=300, ttl_min=1.0)
        stale = msg(msg_id=1, created_at=0.0, size=200)
        c.admit(stale, 0, 30.0)
        _, _, purged = c.admit(msg(msg_id=2, created_at=90.0, size=200), 0, 100.0)
        assert [v.msg_id for v in purged] == [1]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 400), st.integers(0, 1000)),
                    min_size=1, max_size=50))
    def test_buffer_never_exceeds_capacity(self, ops):
        c = make_plain_carrier(0, "D", capacity=500)
        for i, (size, created) in enumerate(ops):
            c.admit(msg(msg_id=i, size=size, created_at=float(created),
                        dest_community="B"), 0, NOW)
            assert c.used_bytes <= c.capacity_bytes


# ---------------------------------------------------------------------------
# delivery, anti-packets
# ---------------------------------------------------------------------------

class TestDelivery:
    def _sealed_msg(self, dest, **kw):
        nonce = random_nonce(random.Random(1))
        payload = seal_payload(b"hello", dest.router.pseudo_identity(), nonce)
        return msg(payload=payload, destination=dest.node, **kw)

    def test_first_copy_counts_then_dedups(self):
        dest = make_plain_carrier(9, "D")
        m = self._sealed_msg(dest)
        assert dest.accept_delivery(m) is True
        assert dest.accept_delivery(m) is False
        assert dest.knows_delivered(m.msg_id)

    def test_wrong_node_raises(self):
        dest = make_plain_carrier(9, "D")
        other = make_plain_carrier(3, "D")
        m = self._sealed_msg(dest)
        with pytest.raises(ValueError):
            other.accept_delivery(m)

    def test_tampered_payload_fails_integrity(self):
        dest = make_plain_carrier(9, "D")
        m = self._sealed_msg(dest)
        bad = msg(destination=9, payload=m.payload[:-1] + b"\x00")
        with pytest.raises(SealError):
            dest.accept_delivery(bad)

    def test_header_frames_count_hops_along_a_chain(self):
        """A message relayed 0 -> 1 -> 2 goes out with hop 1 in its first
        header frame and hop 2 in its second, each with the lane's TTL; the
        one message object rides in both transfers."""
        groups = (GroupSpec("g", 3, (1.0, 2.0), (5.0, 10.0), 10.0, 2e6),)
        sc = Scenario(area=(100.0, 100.0), groups=groups, interests=1,
                      duration=100.0, warmup=0.0, ttl_min=45.0, router="epidemic")
        plan = MessagePlan(msg_id=0, t=5.0, source=0, destination=2,
                           size_bytes=100, token=b"t", nonce=bytes(12))
        trace = ContactTrace(duration=100.0, interests=np.zeros(3, dtype=np.int64),
                             contacts=(ContactEvent(0, 1, 10.0, 20.0),
                                       ContactEvent(1, 2, 30.0, 40.0)),
                             plan=(plan,))
        events = []
        rep = run(sc, trace=trace, events=events)
        frames = [(a, b, x) for _, kind, a, b, x in events if kind == "frame"]
        assert [(a, b) for a, b, _ in frames] == [(0, 1), (0, 1), (1, 2), (1, 2)]
        headers = [x for _, _, x in frames[0::2]]
        assert all(h[:3] == b"MSG" for h in headers)
        assert [struct.unpack(">qqqddq", h[3:51]) for h in headers] == [
            (0, 0, 2, 5.0, 45.0, 1), (0, 0, 2, 5.0, 45.0, 2)]
        assert frames[1][2] is frames[3][2]
        assert rep.delivered == 1 and rep.avg_hop_count == 2.0


class TestAntipackets:
    def test_known_delivery_drops_peer_copy(self):
        a = make_plain_carrier(0, "D")
        b = make_plain_carrier(1, "D")
        m = msg(msg_id=1)
        b.admit(m, 0, NOW)
        a.mark_delivered(1)
        dropped_a, dropped_b = a.exchange_antipackets(b)
        assert not dropped_a and [v.msg_id for v in dropped_b] == [1]
        assert 1 not in b

    def test_sets_union_both_ways(self):
        a = make_plain_carrier(0, "D")
        b = make_plain_carrier(1, "D")
        a.mark_delivered(1)
        b.mark_delivered(2)
        a.exchange_antipackets(b)
        for r in (a, b):
            assert [r.knows_delivered(i) for i in range(4)] == [
                False, True, True, False]

    def test_empty_sets_noop(self):
        a = make_plain_carrier(0, "D")
        b = make_plain_carrier(1, "D")
        b.admit(msg(msg_id=1), 0, NOW)
        dropped_a, dropped_b = a.exchange_antipackets(b)
        assert not dropped_a and not dropped_b
        assert 1 in b

    def test_negative_id_rejected(self):
        a = make_plain_carrier(0, "D")
        with pytest.raises(ValueError):
            a.knows_delivered(-1)
        with pytest.raises(ValueError):
            a.mark_delivered(-1)
        assert a.delivered_mask == 0


# ---------------------------------------------------------------------------
# scanned buffers with an expiry bound and bitmask delivery knowledge
# against the set-and-sort reference
# ---------------------------------------------------------------------------

N_IDS = 12
_KINDS = ["admit"] * 5 + ["tick", "tick", "expire", "drop", "drop", "mark",
                          "gossip", "schedule"]
_SIZES = [40, 90, 200, 450]
_TTLS = [1.0, 2.0, 600.0]
# (kind, node, msg_id, size, age at admission, seconds to advance); each
# kind reads the fields it needs
_op = st.tuples(st.sampled_from(_KINDS), st.integers(0, 1),
                st.integers(0, N_IDS - 1), st.sampled_from(_SIZES),
                st.integers(0, 200), st.integers(0, 90))


def run_against_reference(ops, ttls):
    """Apply ``ops`` to two epidemic carriers, with TTLs ``ttls``, and to two
    ``SetBufferNode``s, asserting equal results and equal buffers and
    delivery knowledge after each, and that a buffer whose ``maybe_expired``
    reads False holds no expired copy."""
    carriers = [Carrier(EpidemicRouter(n, 0), 1000, ttl) for n, ttl in enumerate(ttls)]
    refs = [SetBufferNode(n, 1000, ttl) for n, ttl in enumerate(ttls)]
    now = 10_000.0
    for kind, n, mid, size, age, dt in ops:
        r, ref = carriers[n], refs[n]
        if kind == "tick":
            now += dt
        elif kind == "admit":
            if mid in ref.msgs:
                continue
            m = msg(msg_id=mid, size=size, created_at=now - age)
            assert r.admit(m, 0, now) == ref.admit(m, now)
        elif kind == "expire":
            assert r.pop_expired(now) == ref.pop_expired(now)
        elif kind == "drop":
            if mid in ref.msgs:
                assert r.remove(mid) == ref.drop_copy(mid)
        elif kind == "mark":
            assert r.mark_delivered(mid) == ref.mark_delivered(mid)
        elif kind == "gossip":
            assert (carriers[0].exchange_antipackets(carriers[1])
                    == refs[0].exchange_antipackets(refs[1]))
        else:
            peer = carriers[1 - n]
            want = r.router.schedule_order(ref.candidates(refs[1 - n], now), now,
                                           peer.router)
            assert r.schedule_messages(peer, now) == want
        for r, ref in zip(carriers, refs):
            assert r.messages() == list(ref.msgs.values())
            assert r.used_bytes == ref.used_bytes()
            assert [r.knows_delivered(i) for i in range(N_IDS)] == [
                i in ref.delivered_ids for i in range(N_IDS)]
            assert r.maybe_expired(now) or not any(
                message_is_expired(m, ref.ttl_min, now) for m in ref.msgs.values())


class TestBufferOracle:
    """Random admit/expire/evict/gossip sequences give the same lists, in
    the same order, as ``oracles.SetBufferNode``.  Ids are re-added after
    eviction, expiry and drops, and each buffer has a TTL of 1, 2 or 600
    minutes, so the expiry bound goes stale after removals and is reset by
    later scans."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_op, min_size=20, max_size=120),
           st.tuples(st.sampled_from(_TTLS), st.sampled_from(_TTLS)))
    def test_matches_set_and_sort_reference(self, ops, ttls):
        run_against_reference(ops, ttls)

    def test_oldest_first_breaks_ties_by_id_across_ttls(self):
        for ttl in _TTLS:
            r = Carrier(EpidemicRouter(0, 0), 300, ttl)
            r.admit(msg(msg_id=5, size=150, created_at=10.0), 0, 20.0)
            r.admit(msg(msg_id=3, size=150, created_at=10.0), 0, 20.0)
            _, evicted, _ = r.admit(msg(msg_id=7, size=150, created_at=20.0), 0, 20.0)
            assert [v.msg_id for v in evicted] == [3]

    @pytest.mark.parametrize("seed", range(4))
    def test_long_sequences_match_reference(self, seed):
        """Sequences long enough that every buffer fills, drains and refills
        many times, with its expiry bound lowered, left stale and reset."""
        rng = random.Random(seed)
        ttls = (_TTLS[seed % 3], _TTLS[(seed + 1) % 3])
        run_against_reference(
            ((rng.choice(_KINDS), rng.randint(0, 1), rng.randrange(N_IDS),
              rng.choice(_SIZES), rng.randint(0, 200), rng.randint(0, 90))
             for _ in range(3_000)), ttls)


# ---------------------------------------------------------------------------
# payload sealing
# ---------------------------------------------------------------------------

class TestSealing:
    def test_roundtrip(self):
        nonce = random_nonce(random.Random(3))
        sealed = seal_payload(b"secret content", "dest-id", nonce)
        assert unseal_payload(sealed, "dest-id") == b"secret content"

    def test_wrong_identity_fails(self):
        sealed = seal_payload(b"secret", "dest-id", random_nonce(random.Random(3)))
        with pytest.raises(SealError):
            unseal_payload(sealed, "other-id")

    def test_empty_plaintext_roundtrips(self):
        sealed = seal_payload(b"", "dest-id", random_nonce(random.Random(3)))
        assert unseal_payload(sealed, "dest-id") == b""

    def test_tampering_detected(self):
        sealed = bytearray(seal_payload(b"abc", "dest-id",
                                        random_nonce(random.Random(3))))
        sealed[-1] ^= 0x01
        with pytest.raises(SealError):
            unseal_payload(bytes(sealed), "dest-id")

    def test_ciphertext_hides_plaintext(self):
        sealed = seal_payload(b"plaintext-marker", "dest-id",
                              random_nonce(random.Random(3)))
        assert b"plaintext-marker" not in sealed

    @settings(max_examples=100)
    @given(data=st.binary(max_size=200))
    def test_roundtrip_property(self, data):
        sealed = seal_payload(data, "node-7", bytes(12))
        assert unseal_payload(sealed, "node-7") == data


# ---------------------------------------------------------------------------
# contact lifecycle with real credentials
# ---------------------------------------------------------------------------

def authed_pair(same_group=True, revoke_b=False):
    params = auth.TOY_PARAMS
    ta = auth.TrustAuthority(params, seed=21)
    g1 = ta.create_group("G1")
    g2 = ta.create_group("G2")
    ctx = AuthContext(params, ta.rl, ta.directory())
    gid_b = "G1" if same_group else "G2"
    cert_a = ta.register("G1")
    cert_b = ta.register(gid_b)
    if revoke_b:
        ta.revoke(cert_b.id)
    ep = EnergyParams()
    a = PrifRouter(0, "G1", cert_a, ctx, ep)
    b = PrifRouter(1, gid_b, cert_b, ctx, ep)
    return a, b


class TestContactLifecycle:
    def test_same_group_contact_builds_inter_energy(self):
        a, b = authed_pair(same_group=True)
        ok, _, _ = a.begin_contact(b, 100.0, random.Random(1))
        assert ok
        assert a.sessions[1] == "G1" and b.sessions[0] == "G1"
        a.end_contact(b, ContactEvent(0, 1, 100.0, 130.0))
        assert a.energy.inter[1].value == pytest.approx(30.0 / 130.0)
        assert b.energy.inter[0].value == pytest.approx(30.0 / 130.0)
        assert not a.energy.intra and not b.energy.intra
        assert not a.sessions and not b.sessions

    def test_cross_group_contact_builds_intra_energy(self):
        a, b = authed_pair(same_group=False)
        ok, _, _ = a.begin_contact(b, 100.0, random.Random(1))
        assert ok
        a.end_contact(b, ContactEvent(0, 1, 100.0, 130.0))
        assert a.energy.intra["G2"].cumulative_count == 1
        assert b.energy.intra["G1"].cumulative_count == 1
        assert not a.energy.inter and not b.energy.inter

    def test_revoked_peer_contact_unusable(self):
        a, b = authed_pair(same_group=True, revoke_b=True)
        ok, _, _ = a.begin_contact(b, 100.0, random.Random(1))
        assert not ok
        a.end_contact(b, ContactEvent(0, 1, 100.0, 130.0))
        assert not a.energy.inter and not a.energy.intra
        assert not b.energy.inter and not b.energy.intra

    def test_transitive_exchange_on_contact(self):
        a, b = authed_pair(same_group=True)
        set_inter(b, 5, 0.4, 100.0)
        ok, _, _ = a.begin_contact(b, 100.0, random.Random(1))
        a.end_contact(b, ContactEvent(0, 1, 100.0, 130.0))
        # a gained a transitive record toward node 5 through b
        assert 5 in a.energy.inter
        assert a.energy.inter[5].encounter_count == 0

    def test_wire_capture_has_handshake_frames(self):
        a, b = authed_pair(same_group=True)
        ok, frames_a, frames_b = a.begin_contact(b, 100.0, random.Random(1))
        assert ok
        for frames in (frames_a, frames_b):
            assert [f[:1] for f in frames] == [auth.MSG1_TAG, auth.MSG2_TAG]
        assert frames_a != frames_b


class TestHeaderCodec:
    def test_header_contains_label_not_interest_number(self):
        m = msg(dest_community="Gdeadbeef")
        header = encode_message_header(m, 600.0, 1, m.dest_community.encode())
        assert b"Gdeadbeef" in header
        assert b"INTEREST=" not in header

    def test_buffer_basics(self):
        c = Carrier(EpidemicRouter(0, 0), 250, 600.0)
        m1 = msg(msg_id=1, size=100)
        c.add(m1, 3)
        assert c.used_bytes == 100 and 1 in c and c.hops(1) == 3
        with pytest.raises(ValueError):
            c.add(msg(msg_id=1, size=50), 0)
        with pytest.raises(ValueError):
            c.add(msg(msg_id=2, size=200), 0)
        assert c.remove(1) is m1
        assert c.used_bytes == 0

    @pytest.mark.parametrize("ttl_min", [0.0, -1.0, math.nan, math.inf])
    def test_buffer_rejects_a_ttl_not_positive_and_finite(self, ttl_min):
        with pytest.raises(ValueError, match="ttl"):
            Carrier(EpidemicRouter(0, 0), 250, ttl_min)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_buffer_rejects_a_capacity_not_positive(self, capacity):
        with pytest.raises(ValueError, match="capacity"):
            Carrier(EpidemicRouter(0, 0), capacity, 600.0)
