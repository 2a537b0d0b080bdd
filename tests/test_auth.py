import copy
import dataclasses
import hashlib
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prif import auth
from prif.auth import (Certificate, GroupParams, HandshakeMsg1, HandshakeMsg2,
                       RevocationList, SystemParams, TOY_PARAMS,
                       DEFAULT_PARAMS_2048)

TOY = TOY_PARAMS


class ScriptedRng(random.Random):
    """Deterministic stub feeding fixed values to randrange/getrandbits."""

    def __init__(self, randranges=(), bit_values=()):
        super().__init__(0)
        self._rr = list(randranges)
        self._gb = list(bit_values)

    def randrange(self, *a, **k):
        return self._rr.pop(0) if self._rr else super().randrange(*a, **k)

    def getrandbits(self, k):
        return self._gb.pop(0) if self._gb else super().getrandbits(k)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

class TestParams:
    def test_toy_params_valid(self):
        auth.validate_params(TOY, deep=True)
        assert pow(2, 11, 23) == 1 and pow(2, 1, 23) != 1

    def test_q_must_divide_p_minus_1(self):
        with pytest.raises(ValueError):
            auth.validate_params(SystemParams(p=23, q=7, alpha=2))

    def test_alpha_identity_rejected(self):
        with pytest.raises(ValueError):
            auth.validate_params(SystemParams(p=23, q=11, alpha=1))

    def test_shipped_2048_params_valid(self):
        auth.validate_params(DEFAULT_PARAMS_2048, deep=True)
        assert DEFAULT_PARAMS_2048.p.bit_length() == 2048
        assert DEFAULT_PARAMS_2048.q.bit_length() == 256

    def test_ta_setup_small_and_deterministic(self):
        p1 = auth.ta_setup(48, 24, seed=7)
        p2 = auth.ta_setup(48, 24, seed=7)
        assert p1 == p2
        auth.validate_params(p1, deep=True)
        assert p1.p.bit_length() == 48 and p1.q.bit_length() == 24

    def test_ta_setup_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            auth.ta_setup(24, 24, seed=1)


# ---------------------------------------------------------------------------
# certificates: small-prime worked example (group secret 3, digest stub 5)
# ---------------------------------------------------------------------------

def toy_group(secret=3, gid="GA"):
    return GroupParams(gid=gid, y=pow(TOY.alpha, secret, TOY.p), secret=secret)


class TestCertificates:
    def test_group_public_key(self):
        assert toy_group(secret=3).y == 8

    def test_worked_signature(self):
        group = toy_group()
        rng = ScriptedRng(randranges=[4])     # k = 4
        cert = auth.ta_register(group, TOY, rng, h1=lambda mid, c: 5)
        assert cert.e == 5
        assert cert.s == (3 * 5 + 4) % 11 == 8
        assert auth.recover_commitment(cert, TOY) == 16 == pow(2, 4, 23)

    def test_perturbed_s_changes_commitment(self):
        group = toy_group()
        cert = auth.ta_register(group, TOY, ScriptedRng(randranges=[4]),
                                h1=lambda mid, c: 5)
        forged = Certificate(id=cert.id, e=cert.e, s=(cert.s + 1) % 11, y=cert.y)
        assert auth.recover_commitment(forged, TOY) == (2 * 16) % 23 == 9

    def test_zero_e_reduces_to_plain_commitment(self):
        group = toy_group()
        cert = Certificate(id="m", e=0, s=4, y=group.y)
        assert auth.recover_commitment(cert, TOY) == pow(2, 4, 23)

    def test_distinct_group_secrets_from_one_stream(self):
        rng = random.Random(5)
        g1 = auth.ta_create_group(TOY, "A", rng)
        g2 = auth.ta_create_group(TOY, "B", rng)
        assert g1.secret != g2.secret

    def test_id_collision_forces_retry(self):
        group = toy_group()
        used = set()
        rng = ScriptedRng(bit_values=[0xAA, 0xAA, 0xBB])
        c1 = auth.ta_register(group, TOY, rng, used_ids=used)
        c2 = auth.ta_register(group, TOY, rng, used_ids=used)
        assert c1.id != c2.id
        assert len(used) == 2


# ---------------------------------------------------------------------------
# hashes
# ---------------------------------------------------------------------------

class TestHashes:
    def test_h1_lands_in_zq_star(self):
        for i in range(500):
            e = auth.h1_digest(TOY, f"member-{i}", i + 1)
            assert 0 < e < TOY.q

    def test_h1_rejection_path_still_in_range(self):
        # find an input whose first digest reduces to zero mod 11, which
        # exercises the counter re-hash
        import hashlib
        hit = None
        for i in range(4000):
            # recompute the first-round reduction the way h1_digest frames it
            mid = f"m{i}".encode()
            base = (b"PRIF-H1" + len(mid).to_bytes(4, "big") + mid
                    + (1).to_bytes(4, "big") + auth.int_to_bytes(7)
                    + (0).to_bytes(4, "big"))
            if int.from_bytes(hashlib.sha256(base).digest(), "big") % TOY.q == 0:
                hit = f"m{i}"
                break
        assert hit is not None, "no zero-reducing input found in probe range"
        e = auth.h1_digest(TOY, hit, 7)
        assert 0 < e < TOY.q

    def test_h2_is_exactly_kappa_bits(self):
        tag = auth.h2_tag(TOY, 12345, b"session")
        assert len(tag) == TOY.kappa // 8 == 32

    def test_h2_binds_both_inputs(self):
        assert auth.h2_tag(TOY, 1, b"s") != auth.h2_tag(TOY, 2, b"s")
        assert auth.h2_tag(TOY, 1, b"s") != auth.h2_tag(TOY, 1, b"t")


# ---------------------------------------------------------------------------
# handshake: the full small-prime walkthrough
# ---------------------------------------------------------------------------

def toy_world():
    """Two members of group GA (secret 3) with scripted k, b draws."""
    group = toy_group(secret=3, gid="GA")
    h1 = {"ui": 5, "uj": 9}

    def h1_fn(mid, commitment):
        return h1[mid]

    cert_i = Certificate(id="ui", e=5, s=(3 * 5 + 4) % 11, y=group.y)   # k=4
    cert_j = Certificate(id="uj", e=9, s=(3 * 9 + 2) % 11, y=group.y)   # k=2
    return group, cert_i, cert_j, h1_fn


class TestHandshake:
    def test_round1_values(self):
        group, cert_i, _, _ = toy_world()
        msg, b = auth.handshake_round1(cert_i, "GA", TOY, ScriptedRng(randranges=[6]))
        assert b == 6
        assert msg.B == pow(2, 6, 23) == 18
        assert msg.Y == 16

    def test_shared_key_reduction(self):
        group, cert_i, cert_j, _ = toy_world()
        assert cert_j.s == 7
        b_j = 7
        B_j = pow(2, b_j, 23)
        k_ij = pow(B_j, cert_i.s, 23)
        assert k_ij == pow(2, (7 * 8) % 11, 23) == 2

    def test_algebraic_identity_both_sides(self):
        group, cert_i, cert_j, _ = toy_world()
        b_j = 7
        y = group.y
        Y_i = auth.recover_commitment(cert_i, TOY)
        lhs = pow(pow(2, b_j, 23), cert_i.s, 23)                  # B_j^{s_i}
        rhs = pow((pow(y, cert_i.e, 23) * Y_i) % 23, b_j, 23)     # (y^e Y)^{b_j}
        assert lhs == rhs == 2

    def test_mutual_accept_with_worked_values(self):
        group, cert_i, cert_j, h1_fn = toy_world()
        rl = RevocationList()
        msg1_i, b_i = auth.handshake_round1(cert_i, "GA", TOY, ScriptedRng(randranges=[6]))
        msg1_j, b_j = auth.handshake_round1(cert_j, "GA", TOY, ScriptedRng(randranges=[7]))
        msg2_i, rej_i = auth.handshake_round2(cert_i, msg1_i, True, msg1_j,
                                              rl, TOY, ScriptedRng())
        msg2_j, rej_j = auth.handshake_round2(cert_j, msg1_j, False, msg1_i,
                                              rl, TOY, ScriptedRng())
        assert not rej_i and not rej_j
        assert auth.verify_confirmation(b_i, msg1_i, msg1_j, True, group.y,
                                        msg2_j, TOY, h1=h1_fn)
        assert auth.verify_confirmation(b_j, msg1_j, msg1_i, False, group.y,
                                        msg2_i, TOY, h1=h1_fn)
        assert msg1_i.gid == msg1_j.gid

    def test_revoked_peer_rejected(self):
        group, cert_i, cert_j, h1_fn = toy_world()
        rl = RevocationList()
        rl.revoke(cert_j.id)
        msg1_i, b_i = auth.handshake_round1(cert_i, "GA", TOY, ScriptedRng(randranges=[6]))
        msg1_j, b_j = auth.handshake_round1(cert_j, "GA", TOY, ScriptedRng(randranges=[7]))
        msg2_i, rej_i = auth.handshake_round2(cert_i, msg1_i, True, msg1_j,
                                              rl, TOY, ScriptedRng())
        assert rej_i is True

    def test_subgroup_check_rejects_unit_commitment(self):
        group, cert_i, cert_j, _ = toy_world()
        rl = RevocationList()
        msg1_i, _ = auth.handshake_round1(cert_i, "GA", TOY, ScriptedRng(randranges=[6]))
        bad = HandshakeMsg1(gid="GA", id="uj", Y=1, B=18)
        _, rej = auth.handshake_round2(cert_i, msg1_i, True, bad, rl, TOY, ScriptedRng())
        assert rej is True

    def test_out_of_range_values_rejected(self):
        group, cert_i, _, _ = toy_world()
        rl = RevocationList()
        msg1_i, _ = auth.handshake_round1(cert_i, "GA", TOY, ScriptedRng(randranges=[6]))
        for bad in (HandshakeMsg1("GA", "x", 0, 18), HandshakeMsg1("GA", "x", 23, 18),
                    HandshakeMsg1("GA", "x", 16, 0), HandshakeMsg1("GA", "x", 16, 23)):
            _, rej = auth.handshake_round2(cert_i, msg1_i, True, bad, rl, TOY,
                                           ScriptedRng())
            assert rej is True

    def test_honest_commitments_live_in_order_q_subgroup(self):
        rng = random.Random(3)
        for _ in range(50):
            group = auth.ta_create_group(TOY, "G", rng)
            cert = auth.ta_register(group, TOY, rng)
            Y = auth.recover_commitment(cert, TOY)
            assert pow(Y, TOY.q, TOY.p) == 1
            assert pow(Y, (TOY.p - 1) // TOY.q, TOY.p) not in (0, 1)

    def test_tampered_sid_rejected(self):
        group, cert_i, cert_j, h1_fn = toy_world()
        rl = RevocationList()
        msg1_i, b_i = auth.handshake_round1(cert_i, "GA", TOY, ScriptedRng(randranges=[6]))
        msg1_j, b_j = auth.handshake_round1(cert_j, "GA", TOY, ScriptedRng(randranges=[7]))
        msg2_j, _ = auth.handshake_round2(cert_j, msg1_j, False, msg1_i,
                                          rl, TOY, ScriptedRng())
        sid = bytearray(msg2_j.sid)
        sid[0] ^= 0x01
        tampered = HandshakeMsg2(h=msg2_j.h, sid=bytes(sid))
        assert not auth.verify_confirmation(b_i, msg1_i, msg1_j, True, group.y,
                                            tampered, TOY, h1=h1_fn)

    def test_wrong_group_claim_rejected_exhaustively_at_toy_scale(self):
        """A certificate under any secret a' != a never verifies against
        the claimed group's key: exhaustive over Z*_q at p=23."""
        a = 3
        claimed = toy_group(secret=a, gid="GA")
        rl = RevocationList()
        rng = random.Random(17)
        for a_prime in range(1, TOY.q):
            if a_prime == a:
                continue
            other = GroupParams(gid="GB", y=pow(2, a_prime, 23), secret=a_prime)
            cert_j = auth.ta_register(other, TOY, rng)
            cert_i = auth.ta_register(claimed, TOY, rng)
            msg1_i, b_i = auth.handshake_round1(cert_i, "GA", TOY, rng)
            # the impostor claims GA while holding a GB certificate
            msg1_j, b_j = auth.handshake_round1(cert_j, "GA", TOY, rng)
            msg2_j, rej_j = auth.handshake_round2(cert_j, msg1_j, False, msg1_i,
                                                  rl, TOY, rng)
            assert not auth.verify_confirmation(b_i, msg1_i, msg1_j, True,
                                                claimed.y, msg2_j, TOY)

    def test_completeness_randomized_toy(self):
        rng = random.Random(2024)
        rl = RevocationList()
        for _ in range(100):
            group = auth.ta_create_group(TOY, "G", rng)
            directory = {"G": group.y}
            c1 = auth.ta_register(group, TOY, rng)
            c2 = auth.ta_register(group, TOY, rng)
            out = auth.run_mutual_handshake(c1, "G", c2, "G", rl, directory,
                                            TOY, rng)
            assert out["mutual"]

    def test_unknown_gid_fails_verification(self):
        group, cert_i, cert_j, _ = toy_world()
        rl = RevocationList()
        out = auth.run_mutual_handshake(cert_i, "GA", cert_j, "GA", rl,
                                        {}, TOY, random.Random(1))
        assert not out["i_accepts"] and not out["j_accepts"]


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

class TestWire:
    def test_msg1_golden_vector(self):
        msg = HandshakeMsg1(gid="GA", id="ui", Y=16, B=18)
        expected = (b"\x01"
                    + b"\x00\x00\x00\x02GA"
                    + b"\x00\x00\x00\x02ui"
                    + b"\x00\x00\x00\x01\x10"
                    + b"\x00\x00\x00\x01\x12")
        assert auth.encode_msg1(msg) == expected
        assert auth.decode_msg1(expected) == msg

    def test_msg2_layout(self):
        msg = HandshakeMsg2(h=bytes(range(32)), sid=b"SIDBYTES")
        enc = auth.encode_msg2(msg)
        assert enc[0:1] == b"\x02"
        assert enc[1:33] == bytes(range(32))
        assert auth.decode_msg2(enc) == msg

    @settings(max_examples=200)
    @given(gid=st.text(min_size=0, max_size=20),
           mid=st.text(min_size=0, max_size=40),
           y=st.integers(1, 2**256), b=st.integers(1, 2**256))
    def test_msg1_roundtrip(self, gid, mid, y, b):
        msg = HandshakeMsg1(gid=gid, id=mid, Y=y, B=b)
        assert auth.decode_msg1(auth.encode_msg1(msg)) == msg

    @settings(max_examples=100)
    @given(h=st.binary(min_size=32, max_size=32), sid=st.binary(max_size=200))
    def test_msg2_roundtrip(self, h, sid):
        msg = HandshakeMsg2(h=h, sid=sid)
        assert auth.decode_msg2(auth.encode_msg2(msg)) == msg

    @settings(max_examples=300)
    @given(tag=st.sampled_from([b"\x01", b"\x01", b"\x02"]),
           fields=st.lists(st.binary(max_size=6) | st.sampled_from(
               [b"", b"\x00", b"\x00\x05", b"\x05", b"GA", b"\xff\xfe"]),
               min_size=4, max_size=4),
           tail=st.sampled_from([b"", b"", b"", b"\x00"]))
    def test_accepted_msg1_frames_reencode_exactly(self, tag, fields, tail):
        """Whatever round-1 frame the decoder accepts is the one encoding of
        the message it decodes to."""
        buf = tag + b"".join(auth._frame(f) for f in fields) + tail
        try:
            msg = auth.decode_msg1(buf)
        except ValueError:
            return
        assert msg.encoded == buf

    @pytest.mark.parametrize("field", ["Y", "B"])
    @pytest.mark.parametrize("body", [b"\x00\x05", b"\x00\x00", b""],
                             ids=["leading-zero", "zero-as-two-bytes", "empty"])
    def test_decode_rejects_non_minimal_integers(self, field, body):
        frames = {"Y": b"\x10", "B": b"\x12", field: body}
        buf = (b"\x01" + auth._frame(b"GA") + auth._frame(b"ui")
               + auth._frame(frames["Y"]) + auth._frame(frames["B"]))
        with pytest.raises(ValueError):
            auth.decode_msg1(buf)

    def test_decode_accepts_zero_as_one_byte(self):
        msg = HandshakeMsg1(gid="GA", id="ui", Y=0, B=18)
        assert auth.decode_msg1(auth.encode_msg1(msg)) == msg

    def test_decode_rejects_trailing_bytes(self):
        enc = auth.encode_msg1(HandshakeMsg1("G", "m", 5, 6)) + b"\x00"
        with pytest.raises(ValueError):
            auth.decode_msg1(enc)

    def test_wire_carries_only_public_fields(self):
        """Frames decode to exactly (gid, id, Y, B) and (h, sid); the
        scalars s, b and the group secret never appear as substrings."""
        params = DEFAULT_PARAMS_2048
        rng = random.Random(44)
        group = auth.ta_create_group(params, "GBIG", rng)
        c1 = auth.ta_register(group, params, rng)
        c2 = auth.ta_register(group, params, rng)
        rl = RevocationList()
        msg1_i, b_i = auth.handshake_round1(c1, "GBIG", params, rng)
        msg1_j, b_j = auth.handshake_round1(c2, "GBIG", params, rng)
        msg2_i, _ = auth.handshake_round2(c1, msg1_i, True, msg1_j, rl, params, rng)
        msg2_j, _ = auth.handshake_round2(c2, msg1_j, False, msg1_i, rl, params, rng)
        wire = (auth.encode_msg1(msg1_i) + auth.encode_msg1(msg1_j)
                + auth.encode_msg2(msg2_i) + auth.encode_msg2(msg2_j))
        for secret_scalar in (c1.s, c2.s, b_i, b_j, group.secret):
            assert auth.int_to_bytes(secret_scalar) not in wire
        decoded = auth.decode_msg1(auth.encode_msg1(msg1_i))
        assert decoded == msg1_i

    def test_int_encoding_minimal_big_endian(self):
        assert auth.int_to_bytes(0) == b"\x00"
        assert auth.int_to_bytes(255) == b"\xff"
        assert auth.int_to_bytes(256) == b"\x01\x00"
        with pytest.raises(ValueError):
            auth.int_to_bytes(-1)


# ---------------------------------------------------------------------------
# trust authority front-end
# ---------------------------------------------------------------------------

class TestTrustAuthority:
    def test_lifecycle(self):
        ta = auth.TrustAuthority(TOY, seed=1)
        g = ta.create_group("G1")
        cert = ta.register("G1")
        assert cert.y == g.y
        assert ta.directory() == {"G1": g.y}
        ta.revoke(cert.id)
        assert ta.rl.is_revoked(cert.id)

    def test_register_unknown_group(self):
        ta = auth.TrustAuthority(TOY, seed=1)
        with pytest.raises(KeyError):
            ta.register("NOPE")

    def test_duplicate_group_rejected(self):
        ta = auth.TrustAuthority(TOY, seed=1)
        ta.create_group("G1")
        with pytest.raises(ValueError):
            ta.create_group("G1")

    def test_revocation_list_append_only_surface(self):
        rl = RevocationList(["a"])
        rl.revoke("b")
        assert rl.is_revoked("a") and rl.is_revoked("b")
        assert len(rl) == 2
        assert not hasattr(rl, "unrevoke")


# ---------------------------------------------------------------------------
# group arithmetic: subgroup test, fixed-base table, memos
# ---------------------------------------------------------------------------

BIG = DEFAULT_PARAMS_2048


def clear_auth_memos():
    """Empty every memo in ``prif.auth`` (the alpha table included)."""
    cleared = 0
    for obj in vars(auth).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
            cleared += 1
    return cleared


def non_members(params):
    """0, 1, p-1 and p, and p-alpha, an element of order 2q."""
    p = params.p
    return (0, 1, p - 1, p, p - params.alpha)


def honest_pair(params, seed):
    rng = random.Random(seed)
    group = auth.ta_create_group(params, "G", rng)
    c1 = auth.ta_register(group, params, rng)
    c2 = auth.ta_register(group, params, rng)
    return group, c1, c2, rng


def fixed_world_transcripts(params, seed):
    """Same-group, cross-group, impostor and revoked handshakes."""
    ta = auth.TrustAuthority(params, seed)
    ta.create_group("A")
    ta.create_group("B")
    certs = {k: ta.register(g) for k, g in (("a1", "A"), ("a2", "A"),
                                            ("r", "A"), ("b1", "B"))}
    ta.revoke(certs["r"].id)
    rng = random.Random(seed + 1)
    cases = (("a1", "A", "a2", "A"), ("a1", "A", "b1", "B"),
             ("b1", "A", "a1", "A"), ("r", "A", "a2", "A"))
    return [auth.run_mutual_handshake(certs[ci], gi, certs[cj], gj, ta.rl,
                                      ta.directory(), params, rng)
            for ci, gi, cj, gj in cases]


def transcript_key(tr):
    return (tr["i_accepts"], tr["j_accepts"], tr["reject"], tr["msg1"],
            tr["msg2"], tuple(tr["wire"]))


@pytest.mark.parametrize("params", [TOY, BIG], ids=["toy", "2048"])
class TestSubgroupChecks:
    def test_honest_elements_are_members(self, params):
        group, c1, _, rng = honest_pair(params, 9)
        msg, b = auth.handshake_round1(c1, "G", params, rng)
        assert auth.in_subgroup(group.y, params)
        assert auth.in_subgroup(msg.Y, params) and auth.in_subgroup(msg.B, params)

    def test_non_members_fail(self, params):
        for x in non_members(params):
            assert not auth.in_subgroup(x, params)

    @pytest.mark.parametrize("field", ["Y", "B"])
    def test_round2_rejects_non_member_with_random_tag(self, params, field):
        group, c1, c2, rng = honest_pair(params, 10)
        own, _ = auth.handshake_round1(c1, "G", params, rng)
        peer, _ = auth.handshake_round1(c2, "G", params, rng)
        rl = RevocationList()
        for k, bad in enumerate(non_members(params)):
            fields = {"gid": peer.gid, "id": peer.id, "Y": peer.Y, "B": peer.B,
                      field: bad}
            msg2, rejected = auth.handshake_round2(
                c1, own, True, HandshakeMsg1(**fields), rl, params,
                random.Random(k))
            assert rejected, (field, bad)
            want = random.Random(k).getrandbits(params.kappa)
            assert msg2.h == want.to_bytes(params.kappa // 8, "big")

    def test_verify_rejects_y_outside_subgroup(self, params):
        """The tag is the one an unchecked verifier would accept; only the
        subgroup test of Y turns it down."""
        group, c1, c2, rng = honest_pair(params, 11)
        own, b = auth.handshake_round1(c1, "G", params, rng)
        honest, _ = auth.handshake_round1(c2, "G", params, rng)
        p = params.p
        for bad_y in (p - honest.Y, p - 1, 1):
            peer = HandshakeMsg1(gid="G", id=honest.id, Y=bad_y, B=honest.B)
            sid = own.encoded + peer.encoded
            e = auth.h1_digest(params, peer.id, bad_y)
            shared = pow(pow(group.y, e, p) * bad_y % p, b, p)
            forged = HandshakeMsg2(h=auth.h2_tag(params, shared, sid), sid=sid)
            assert not auth.verify_confirmation(b, own, peer, True, group.y,
                                                forged, params)
            assert not auth.verify_confirmation(b, own, peer, True, group.y,
                                                forged, params,
                                                h1=lambda mid, c: e)


class TestFixedBaseAlpha:
    @pytest.mark.parametrize("params", [TOY, BIG], ids=["toy", "2048"])
    def test_edges_match_pow(self, params):
        q, p, a = params.q, params.p, params.alpha
        for x in (*range(-40, 40), q - 1, q, q + 1, 2 * q + 5, -q,
                  1 << q.bit_length()):
            assert auth.alpha_pow(x, params) == pow(a, x, p), x

    @settings(max_examples=200, deadline=None)
    @given(x=st.integers(0, BIG.q - 1))
    def test_in_range_matches_pow(self, x):
        assert auth.alpha_pow(x, BIG) == pow(BIG.alpha, x, BIG.p)

    @settings(max_examples=100, deadline=None)
    @given(x=st.integers(-(2 ** 300), 2 ** 300))
    def test_any_exponent_matches_pow(self, x):
        assert auth.alpha_pow(x, BIG) == pow(BIG.alpha, x, BIG.p)

    def test_table_is_built_on_first_use(self):
        clear_auth_memos()
        assert auth._alpha_table.cache_info().currsize == 0
        auth.alpha_pow(5, BIG)
        auth.alpha_pow(7, BIG)
        info = auth._alpha_table.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def edge_exponents(params):
    """0, 1, q-1, q and exponents at and past the chain's reach, 16^n."""
    q = params.q
    top = 1 << (4 * -(-q.bit_length() // 4))
    return (0, 1, 2, q - 1, q, q + 1, 2 * q, top - 1, top, top + 1)


class TestPowerChain:
    @pytest.mark.parametrize("params", [TOY, BIG], ids=["toy", "2048"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_chain_matches_pow(self, params, data):
        p = params.p
        base = data.draw(st.integers(0, p + 1), label="base")
        x = data.draw(st.integers(0, 1 << 300), label="x")
        chain = auth.power_chain(base, params)
        for e in (x, *edge_exponents(params)):
            assert auth.chain_pow(chain, e, p) == pow(base, e, p), e

    def test_chain_entries_cover_q(self):
        base = pow(BIG.alpha, 12345, BIG.p)
        chain = auth.power_chain(base, BIG)
        assert len(chain) == 64 and 16 ** len(chain) > BIG.q
        assert all(c == pow(base, 16 ** i, BIG.p) for i, c in enumerate(chain))

    def test_small_moduli_keep_the_builtin_pow(self):
        assert auth.power_chain(5, TOY) == (5,)

    def test_exponents_below_16_to_the_n_skip_powmod(self, monkeypatch):
        """Every handshake exponent lies in [0, q], within a full chain's
        reach; only other exponents fall back to ``powmod``."""
        base = pow(BIG.alpha, 777, BIG.p)
        chain = auth.power_chain(base, BIG)
        fallbacks = []
        monkeypatch.setattr(auth, "powmod",
                            lambda b, e, m: fallbacks.append(e) or pow(b, e, m))
        exponents = (*edge_exponents(BIG), -1, -BIG.q)
        for e in exponents:
            assert auth.chain_pow(chain, e, BIG.p) == pow(base, e, BIG.p)
        assert fallbacks == [e for e in exponents if not 0 <= e < 1 << 256]
        assert len(fallbacks) == 5  # 2q, 16^n, 16^n + 1, -1, -q

    @pytest.mark.parametrize("params", [TOY, BIG], ids=["toy", "2048"])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_verifier_base_chain_matches_pow(self, params, data):
        """The peer view's first use (bare base), second (chain built) and
        later ones (chain read) all equal plain ``pow``."""
        group, c1, c2, rng = honest_pair(params, 17)
        msg, _ = auth.handshake_round1(c2, "G", params, rng)
        view = auth._PeerView(params, msg.prefix)
        e = auth.h1_digest(params, msg.id, msg.Y)
        assert view.member and view.e == e and view.Y == msg.Y
        base = pow(group.y, e, params.p) * msg.Y % params.p
        for _ in range(3):
            b = data.draw(st.integers(1, params.q - 1), label="b")
            assert view.verifier_pow(group.y, b) == pow(base, b, params.p)
        assert view._base == auth.power_chain(base, params)


class TestRound2Order:
    """Round 2 at 2048 bits: the secret s meets the peer's B only after B
    has been shown to lie in the order-q subgroup."""

    def record_exponents(self, monkeypatch):
        seen = []
        chain_pow, powmod = auth.chain_pow, auth.powmod
        monkeypatch.setattr(auth, "chain_pow",
                            lambda c, e, m: seen.append(e) or chain_pow(c, e, m))
        monkeypatch.setattr(auth, "powmod",
                            lambda b, e, m: seen.append(e) or powmod(b, e, m))
        return seen

    def test_honest_peer_checks_q_before_s(self, monkeypatch):
        group, c1, c2, rng = honest_pair(BIG, 18)
        own, _ = auth.handshake_round1(c1, "G", BIG, rng)
        peer, _ = auth.handshake_round1(c2, "G", BIG, rng)
        clear_auth_memos()
        seen = self.record_exponents(monkeypatch)
        _, rejected = auth.handshake_round2(c1, own, True, peer, RevocationList(),
                                            BIG, rng)
        assert not rejected
        assert seen == [BIG.q, BIG.q, c1.s]  # Y's test, then B^q, then B^s

    @pytest.mark.parametrize("field", ["Y", "B"])
    def test_non_members_never_meet_the_secret(self, monkeypatch, field):
        group, c1, c2, rng = honest_pair(BIG, 10)
        own, _ = auth.handshake_round1(c1, "G", BIG, rng)
        peer, _ = auth.handshake_round1(c2, "G", BIG, rng)
        clear_auth_memos()
        seen = self.record_exponents(monkeypatch)
        for k, bad in enumerate(non_members(BIG)):
            fields = {"gid": peer.gid, "id": peer.id, "Y": peer.Y, "B": peer.B,
                      field: bad}
            draws = random.Random(k)
            msg2, rejected = auth.handshake_round2(
                c1, own, True, HandshakeMsg1(**fields), RevocationList(), BIG,
                draws)
            want = random.Random(k)
            tag = want.getrandbits(BIG.kappa).to_bytes(BIG.kappa // 8, "big")
            assert rejected and msg2.h == tag, (field, bad)
            assert draws.getstate() == want.getstate(), (field, bad)
        assert seen and set(seen) == {BIG.q}


class TestMemosAreInvisible:
    # SHA-256 over the outcomes and wire frames of fixed_world_transcripts
    # at toy and 2048 bits (seed 7), as computed with plain pow throughout
    # before the fixed-base table and the memos existed.
    GOLDEN = "6575b5679d62e2c4e448bd5a863df521ac51f34476e12358e459413841c40a7a"

    def test_cold_and_warm_runs_agree(self):
        for params in (TOY, BIG):
            # the alpha table, the own commitment and prefix, and the peer memo
            assert clear_auth_memos() == 4
            assert auth._peer.cache_info().currsize == 0
            assert auth._msg1_prefix.cache_info().currsize == 0
            cold = [transcript_key(t) for t in fixed_world_transcripts(params, 7)]
            assert auth._peer.cache_info().currsize > 0
            assert auth._msg1_prefix.cache_info().currsize > 0
            warm = [transcript_key(t) for t in fixed_world_transcripts(params, 7)]
            assert cold == warm
            assert [k[:3] for k in cold] == [
                (True, True, (False, False)), (True, True, (False, False)),
                (True, False, (False, False)), (False, False, (False, True))]

    def test_transcripts_match_plain_pow_golden(self):
        h = hashlib.sha256()
        for params in (TOY, BIG):
            for tr in fixed_world_transcripts(params, 7):
                h.update(repr((tr["i_accepts"], tr["j_accepts"],
                               tr["reject"])).encode())
                h.update(b"".join(tr["wire"]))
        assert h.hexdigest() == self.GOLDEN

    def test_recover_commitment_memo_matches_plain_pow(self):
        group, c1, c2, _ = honest_pair(BIG, 12)
        clear_auth_memos()
        y1 = auth.recover_commitment(c1, BIG)
        assert auth.recover_commitment(c1, BIG) == y1
        assert auth.recover_commitment.cache_info().hits == 1
        assert y1 == pow(BIG.alpha, c1.s, BIG.p) * pow(c1.y, -c1.e, BIG.p) % BIG.p

    @settings(max_examples=100)
    @given(gid=st.text(max_size=8), mid=st.text(max_size=8),
           y=st.integers(0, 2**64), bs=st.lists(st.integers(0, 2**64),
                                                min_size=1, max_size=3))
    def test_prefix_memo_matches_plain_concatenation(self, gid, mid, y, bs):
        """Messages of one credential share the memoised prefix and still
        encode as the plain concatenation of their frames."""
        f, i2b = auth._frame, auth.int_to_bytes
        for b in bs:
            msg = HandshakeMsg1(gid=gid, id=mid, Y=y, B=b)
            assert msg.encoded == (auth.MSG1_TAG + f(gid.encode()) + f(mid.encode())
                                   + f(i2b(y)) + f(i2b(b)))

    @pytest.mark.parametrize("params", [TOY, BIG], ids=["toy", "2048"])
    def test_custom_h1_bypasses_the_default_digest_memo(self, params):
        group, c1, c2, rng = honest_pair(params, 14)
        rl = RevocationList()
        m1, b1 = auth.handshake_round1(c1, "G", params, rng)
        m2, _ = auth.handshake_round1(c2, "G", params, rng)
        tag, _ = auth.handshake_round2(c2, m2, False, m1, rl, params, rng)
        e = auth.h1_digest(params, m2.id, m2.Y)
        clear_auth_memos()
        assert auth.verify_confirmation(b1, m1, m2, True, group.y, tag, params,
                                        h1=lambda mid, c: e)
        info = auth._peer.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        assert auth.verify_confirmation(b1, m1, m2, True, group.y, tag, params)
        assert auth._peer.cache_info().misses == 1
        assert auth._peer(params, m2.prefix).e == e

    @pytest.mark.parametrize("params", [TOY, BIG], ids=["toy", "2048"])
    def test_cached_hashes_match_fresh_instances(self, params):
        _, cert, _, _ = honest_pair(params, 15)
        fresh_params = SystemParams(p=params.p, q=params.q, alpha=params.alpha,
                                    kappa=params.kappa)
        fresh_cert = Certificate(id=cert.id, e=cert.e, s=cert.s, y=cert.y)
        for obj, fresh in ((params, fresh_params), (cert, fresh_cert)):
            for twin in (fresh, pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
                assert twin == obj and hash(twin) == hash(obj)
            assert repr(obj) == repr(fresh)
        other = dataclasses.replace(cert, id=cert.id + "0")
        assert other != cert and hash(other) == hash(
            Certificate(id=cert.id + "0", e=cert.e, s=cert.s, y=cert.y))

    def test_unpickled_certificate_rehashes_in_its_own_process(self, tmp_path):
        """A pickled certificate carries no hash: str hashes are salted per
        process, so the receiving process must hash the fields itself."""
        _, cert, _, _ = honest_pair(TOY, 16)
        path = tmp_path / "cert.pickle"
        path.write_bytes(pickle.dumps((cert, TOY)))
        code = (
            "import pickle, sys\n"
            "from prif.auth import Certificate, SystemParams\n"
            "cert, params = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "fresh = Certificate(id=cert.id, e=cert.e, s=cert.s, y=cert.y)\n"
            "assert hash(cert) == hash(fresh), 'certificate hash'\n"
            "assert hash(params) == hash(SystemParams(*[getattr(params, f) "
            "for f in 'p q alpha kappa'.split()])), 'params hash'\n"
            "assert {cert: 1}[fresh] == 1\n")
        env = {**os.environ, "PYTHONHASHSEED": "12345",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_msg1_encodes_once(self, monkeypatch):
        msg = HandshakeMsg1(gid="GA", id="ui", Y=16, B=18)
        twin = HandshakeMsg1(gid="GA", id="ui", Y=16, B=18)
        monkeypatch.setattr(auth, "int_to_bytes", None)
        monkeypatch.setattr(auth, "_msg1_prefix", None)
        first = auth.encode_msg1(msg)
        assert auth.encode_msg1(msg) is first
        assert msg == twin and hash(msg) == hash(twin)
        assert repr(msg) == "HandshakeMsg1(gid='GA', id='ui', Y=16, B=18)"

    @pytest.mark.parametrize("params", [TOY, BIG], ids=["toy", "2048"])
    def test_verifier_base_memo_follows_the_digest(self, params):
        """A warm peer view for (id, Y) is not reused when a custom H1 gives
        another digest, and a custom H1 equal to the default accepts; the
        default digest then finds its view warm."""
        group, c1, c2, rng = honest_pair(params, 13)
        rl = RevocationList()
        m1, b1 = auth.handshake_round1(c1, "G", params, rng)
        m2, _ = auth.handshake_round1(c2, "G", params, rng)
        tag, _ = auth.handshake_round2(c2, m2, False, m1, rl, params, rng)
        clear_auth_memos()

        def verify(h1=None):
            return auth.verify_confirmation(b1, m1, m2, True, group.y, tag,
                                            params, h1=h1)

        e = auth.h1_digest(params, m2.id, m2.Y)
        assert verify()
        assert not verify(h1=lambda mid, c: e % (params.q - 1) + 1)
        assert verify(h1=lambda mid, c: e)
        assert verify()
        info = auth._peer.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_peer_memo_chains_a_base_at_its_second_use_and_stays_bounded(self):
        """A verifier base used once keeps no chain, so once-used credentials
        (criterion 2's forgeries) cost no 19 KB chain each; the second use
        builds it, a new group key starts the slot over, and the memo keeps
        at most ``_PEER_MEMO_SIZE`` views.  A handshake looks it up 4 times."""
        group, c1, c2, rng = honest_pair(BIG, 19)
        clear_auth_memos()
        out = auth.run_mutual_handshake(c1, "G", c2, "G", RevocationList(),
                                        {"G": group.y}, BIG, rng)
        info = auth._peer.cache_info()
        assert out["mutual"] and (info.misses, info.hits) == (2, 2)
        m2 = out["msg1"][1]
        view = auth._peer(BIG, m2.prefix)
        base = pow(group.y, view.e, BIG.p) * m2.Y % BIG.p
        assert view._base == base
        assert view.verifier_pow(group.y, 5) == pow(base, 5, BIG.p)
        assert view._base == auth.power_chain(base, BIG)
        other_y = pow(group.y, 2, BIG.p)
        assert view.verifier_pow(other_y, 5) == pow(
            pow(other_y, view.e, BIG.p) * m2.Y % BIG.p, 5, BIG.p)
        assert type(view._base) is int
        for i in range(auth._PEER_MEMO_SIZE + 10):
            auth._peer(TOY, HandshakeMsg1("G", f"m{i}", 4, 2).prefix)
        info = auth._peer.cache_info()
        assert info.maxsize == info.currsize == auth._PEER_MEMO_SIZE
