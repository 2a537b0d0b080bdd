"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the verdict
lines stream; the trend criteria (5 and 6) dominate the runtime.
"""

import math
import random
import statistics
import time

import numpy as np
import pytest

from prif import auth
from prif.energy import EnergyParams, EnergyTable
from prif.model import ContactEvent, Message
from prif.routing import Action, INTEREST_MARKER
from prif.sim import build_trace, desk_preset, run, run_sweep

from conftest import make_plain_carrier, make_plain_router, set_inter, set_intra
from oracles import (forwarding_reference, inter_script_oracle,
                     intra_script_oracle)

EP = EnergyParams(alpha=0.3, beta=0.3, gamma=0.98, window=30.0)


@pytest.fixture
def report_line(capsys):
    """Print a verdict straight to the terminal, past pytest's capture."""
    def emit(criterion: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capsys.disabled():
            print("\n" + line)
        assert ok, f"criterion {criterion}: {detail}"
    return emit


# ---------------------------------------------------------------------------
# 1. formula oracles and closure properties
# ---------------------------------------------------------------------------

class TestCriterion1:
    def test_formula_oracles_and_closures(self, report_line):
        t0 = time.time()
        rng = random.Random(0xE1)

        worst = 0.0
        for _ in range(20):
            contacts = []
            t = 0.0
            for _ in range(100):
                t += rng.randint(1, 500)
                end = t + rng.randint(1, 120)
                contacts.append((t, end))
                t = end
            table = EnergyTable(0, "C", EP)
            for s, e in contacts:
                table.update_direct_inter(1, "C", ContactEvent(0, 1, s, e))
            read = contacts[-1][1] + rng.randint(0, 3000)
            got = table.effective_inter(1, read)
            want = inter_script_oracle(contacts, EP.alpha, EP.gamma, EP.window, read)
            worst = max(worst, abs(got - want))

            times = sorted(rng.randint(1, 40_000) for _ in range(100))
            times = [float(x) for x in dict.fromkeys(times)]
            table = EnergyTable(0, "C", EP)
            for ts in times:
                table.update_intra("X", ts)
            read = times[-1] + rng.randint(0, 3000)
            got = table.effective_intra("X", read)
            want = intra_script_oracle(times, EP.beta, EP.gamma, EP.window, read)
            worst = max(worst, abs(got - want))
        assert worst < 1e-9

        n = 100_000
        gen = np.random.default_rng(0xC105)
        old, eab, ebc = gen.uniform(0, 1, (3, n))
        trans = old + (1.0 - old) * eab * ebc
        assert ((trans >= 0.0) & (trans <= 1.0)).all()
        assert (trans >= old - 1e-12).all()

        prev, cur, w = gen.uniform(0, 1, (3, n))
        pred = w * prev + (1.0 - w) * cur
        lo = np.minimum(prev, cur) - 1e-12
        hi = np.maximum(prev, cur) + 1e-12
        assert ((pred >= lo) & (pred <= hi)).all()

        elapsed = time.time() - t0
        report_line(1, elapsed < 10.0,
                f"oracle gap {worst:.2e} (tol 1e-9), 2x{n} closure checks, "
                f"{elapsed:.1f}s (budget 10s)")


# ---------------------------------------------------------------------------
# 2. crypto completeness and soundness
# ---------------------------------------------------------------------------

class TestCriterion2:
    def test_handshake_completeness_and_soundness(self, report_line):
        t0 = time.time()
        toy = auth.TOY_PARAMS

        rng = random.Random(0xACCE)
        rl = auth.RevocationList()
        for _ in range(1000):
            group = auth.ta_create_group(toy, "G", rng)
            c1 = auth.ta_register(group, toy, rng)
            c2 = auth.ta_register(group, toy, rng)
            out = auth.run_mutual_handshake(c1, "G", c2, "G", rl,
                                            {"G": group.y}, toy, rng)
            assert out["mutual"], "toy completeness violated"

        # exhaustive negatives at p=23
        a = 3
        claimed = auth.GroupParams(gid="GA", y=pow(2, a, 23), secret=a)
        for a_prime in range(1, toy.q):
            if a_prime == a:
                continue
            other = auth.GroupParams(gid="GB", y=pow(2, a_prime, 23), secret=a_prime)
            impostor = auth.ta_register(other, toy, rng)
            honest = auth.ta_register(claimed, toy, rng)
            m1_h, b_h = auth.handshake_round1(honest, "GA", toy, rng)
            m1_x, _ = auth.handshake_round1(impostor, "GA", toy, rng)
            m2_x, _ = auth.handshake_round2(impostor, m1_x, False, m1_h,
                                            rl, toy, rng)
            assert not auth.verify_confirmation(b_h, m1_h, m1_x, True,
                                                claimed.y, m2_x, toy)
        # Perturbing s moves the transmitted commitment, so at q=11 the
        # fresh digest H1(id, Y') collides with the certificate e with
        # probability 1/(q-1) per forgery; the exact toy-scale property is
        # "accept iff that collision happens".  Unconditional rejection is
        # what the 2048-bit trials below check.
        honest = auth.ta_register(claimed, toy, rng)
        toy_collisions = 0
        for s_prime in range(toy.q):
            if s_prime == honest.s:
                continue
            forged = auth.Certificate(id=honest.id, e=honest.e, s=s_prime,
                                      y=honest.y)
            m1_v, b_v = auth.handshake_round1(auth.ta_register(claimed, toy, rng),
                                              "GA", toy, rng)
            m1_f, _ = auth.handshake_round1(forged, "GA", toy, rng)
            m2_f, _ = auth.handshake_round2(forged, m1_f, False, m1_v, rl, toy, rng)
            verified = auth.verify_confirmation(b_v, m1_v, m1_f, True,
                                                claimed.y, m2_f, toy)
            collided = auth.h1_digest(toy, m1_f.id, m1_f.Y) == honest.e
            toy_collisions += collided
            assert verified == collided, "perturbed s escaped the collision bound"

        # 1000 randomized rejection trials at 2048 bits, 250 per case
        big = auth.DEFAULT_PARAMS_2048
        brng = random.Random(0xB16)
        g_real = auth.ta_create_group(big, "GR", brng)
        g_fake = auth.ta_create_group(big, "GF", brng)
        verifier = auth.ta_register(g_real, big, brng)
        member = auth.ta_register(g_real, big, brng)
        impostor = auth.ta_register(g_fake, big, brng)
        rl_big = auth.RevocationList()

        def round_trip(peer_cert, claim_gid, rl_used, mutate_sid=False,
                       perturb_s=0):
            cert = peer_cert
            if perturb_s:
                cert = auth.Certificate(id=cert.id, e=cert.e,
                                        s=(cert.s + perturb_s) % big.q, y=cert.y)
            m1_v, b_v = auth.handshake_round1(verifier, "GR", big, brng)
            m1_p, _ = auth.handshake_round1(cert, claim_gid, big, brng)
            m2_p, _ = auth.handshake_round2(cert, m1_p, False, m1_v,
                                            rl_used, big, brng)
            if mutate_sid:
                sid = bytearray(m2_p.sid)
                sid[brng.randrange(len(sid))] ^= 1 + brng.randrange(255)
                m2_p = auth.HandshakeMsg2(h=m2_p.h, sid=bytes(sid))
            return auth.verify_confirmation(b_v, m1_v, m1_p, True,
                                            g_real.y, m2_p, big)

        for _ in range(250):
            assert not round_trip(impostor, "GR", rl_big), "wrong group accepted"
        for _ in range(250):
            assert not round_trip(member, "GR", rl_big, mutate_sid=True), \
                "tampered sid accepted"
        for _ in range(250):
            assert not round_trip(member, "GR", rl_big,
                                  perturb_s=1 + brng.randrange(big.q - 1)), \
                "perturbed s accepted"
        rl_big.revoke(member.id)
        for _ in range(250):
            m1_v, b_v = auth.handshake_round1(verifier, "GR", big, brng)
            m1_p, _ = auth.handshake_round1(member, "GR", big, brng)
            _, rejected = auth.handshake_round2(verifier, m1_v, True, m1_p,
                                                rl_big, big, brng)
            assert rejected, "revoked id accepted"

        elapsed = time.time() - t0
        report_line(2, elapsed < 60.0,
                f"1000 toy mutual accepts; exhaustive p=23 negatives "
                f"({toy_collisions} in-bound digest collisions); "
                f"1000 2048-bit rejection trials, {elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# 3. forwarding-decision oracle equivalence
# ---------------------------------------------------------------------------

class TestCriterion3:
    def test_decide_matches_reference_100k(self, report_line):
        rng = random.Random(0xA162)
        comms = ["C0", "C1", "C2"]
        grid = [0.0, 0.1, 0.25, 0.25, 0.5, 0.5, 0.9]
        now = 1000.0
        dest = 9
        mismatches = 0
        n = 100_000
        for _ in range(n):
            carrier_comm = rng.choice(comms)
            peer_comm = rng.choice(comms)
            dest_comm = rng.choice(comms)
            peer_is_dest = rng.random() < 0.12
            peer = make_plain_router(dest if peer_is_dest else 1, peer_comm)
            carrier = make_plain_router(0, carrier_comm)
            carrier.sessions = {peer.node: peer_comm}
            ei_c, ei_p = rng.choice(grid), rng.choice(grid)
            ec_c, ec_p = rng.choice(grid), rng.choice(grid)
            set_inter(carrier, dest, ei_c, now)
            set_inter(peer, dest, ei_p, now)
            set_intra(carrier, dest_comm, ec_c, now)
            set_intra(peer, dest_comm, ec_p, now)
            m = Message(msg_id=1, source=0, destination=dest,
                        dest_community=dest_comm, size_bytes=10, created_at=0.0,
                        payload=b"x")
            got = carrier.decide(peer, m, now).action.value
            want = forwarding_reference(peer_is_dest, carrier_comm, peer_comm,
                                        dest_comm, ei_c, ei_p, ec_c, ec_p)
            if got != want:
                mismatches += 1
        report_line(3, mismatches == 0,
                f"{n} randomized carrier/peer/message triples, "
                f"{mismatches} discrepancies")


# ---------------------------------------------------------------------------
# 4. scheduling/eviction duality and buffer safety
# ---------------------------------------------------------------------------

class TestCriterion4:
    def test_duality_and_buffer_safety_10k_sequences(self, report_line):
        rng = random.Random(0xB0FF)
        now = 1000.0
        violations = 0
        for seq in range(10_000):
            capacity = rng.randint(200, 1200)
            carrier = make_plain_carrier(0, "D", capacity=capacity)
            set_inter(carrier.router, 7, rng.random(), now)
            set_intra(carrier.router, "B1", rng.random(), now)
            set_intra(carrier.router, "B2", rng.random(), now)
            for i in range(rng.randint(1, 12)):
                m = Message(
                    msg_id=seq * 100 + i, source=0,
                    destination=rng.choice([7, 8]),
                    dest_community=rng.choice(["D", "B1", "B2"]),
                    size_bytes=rng.randint(1, capacity + 50),
                    created_at=float(rng.randint(0, 900)), payload=b"x")
                carrier.admit(m, 0, now)
                if carrier.used_bytes > carrier.capacity_bytes:
                    violations += 1
            # eviction is the schedule reversed, exactly so while no two
            # buffered copies share a schedule key
            keys = [carrier.router._schedule_key(m, None, now)
                    for m in carrier.messages()]
            if len(set(keys)) != len(keys):
                violations += 1
        report_line(4, violations == 0,
                f"10000 randomized buffer sequences, {violations} violations "
                f"of capacity or of distinct schedule keys (schedule/eviction "
                f"duality)")


# ---------------------------------------------------------------------------
# 5. desk-scale trend reproduction
# ---------------------------------------------------------------------------

def _welch_se(xs, ys):
    return math.sqrt(statistics.variance(xs) / len(xs)
                     + statistics.variance(ys) / len(ys))


@pytest.mark.slow
class TestCriterion5:
    def test_buffer_sweep_ordering_with_margin(self, report_line):
        t0 = time.time()
        seeds = list(range(1, 11))
        values = [2.0, 4.0, 6.0, 8.0, 10.0]
        delivery = {}
        overhead = {}
        routers = ("prif", "epidemic", "prophet")
        sweep = run_sweep(desk_preset(), routers, "buffer", values, seeds)
        for router in routers:
            reports = [r for r in sweep if r.router == router]
            delivery[router] = [r.delivery_ratio for r in reports]
            overhead[router] = [r.overhead_ratio for r in reports]
            for v in values:
                point = [r.delivery_ratio for r in reports if r.axis_value == v]
                print(f"  {router:9s} buffer={v:4.0f}MB "
                      f"delivery={statistics.fmean(point):.3f}")

        d_prif = statistics.fmean(delivery["prif"])
        d_epi = statistics.fmean(delivery["epidemic"])
        d_pro = statistics.fmean(delivery["prophet"])
        o_prif = statistics.fmean(overhead["prif"])
        o_epi = statistics.fmean(overhead["epidemic"])
        se_de = _welch_se(delivery["prif"], delivery["epidemic"])
        se_dp = _welch_se(delivery["prif"], delivery["prophet"])
        se_o = _welch_se(overhead["prif"], overhead["epidemic"])
        elapsed = time.time() - t0

        ok = (d_prif - d_epi >= se_de and d_prif - d_pro >= se_dp
              and o_epi - o_prif >= se_o and elapsed < 600.0)
        report_line(5, ok,
                f"delivery prif={d_prif:.3f} epidemic={d_epi:.3f} (margin "
                f"{(d_prif - d_epi) / se_de:.1f} SE) prophet={d_pro:.3f} (margin "
                f"{(d_prif - d_pro) / se_dp:.1f} SE); overhead prif={o_prif:.1f} "
                f"< epidemic={o_epi:.1f} (margin {(o_epi - o_prif) / se_o:.1f} SE); "
                f"{elapsed:.0f}s (budget 600s)")


# ---------------------------------------------------------------------------
# 6. TTL trend
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestCriterion6:
    def test_ttl_sweep_epidemic_non_increasing(self, report_line):
        seeds = list(range(1, 11))
        ttls = [600.0, 1200.0, 2400.0, 3600.0]
        curves = {}
        routers = ("epidemic", "prif")
        sc = desk_preset().with_overrides(
            duration=150_000.0, buffer_bytes=6 * 1024 * 1024)
        sweep = run_sweep(sc, routers, "ttl", ttls, seeds)
        for router in routers:
            reports = [r for r in sweep if r.router == router]
            curve = []
            for v in ttls:
                point = [r.delivery_ratio for r in reports if r.axis_value == v]
                curve.append((statistics.fmean(point), point))
            curves[router] = curve
            print(f"  {router:9s} ttl curve: "
                  + " ".join(f"{m:.3f}" for m, _ in curve))

        ok = True
        detail = []
        for (m1, xs), (m2, ys), t1, t2 in zip(curves["epidemic"],
                                              curves["epidemic"][1:],
                                              ttls, ttls[1:]):
            se = _welch_se(xs, ys)
            if m2 - m1 > se:
                ok = False
            detail.append(f"{t1:.0f}->{t2:.0f}min: {m2 - m1:+.4f} (noise {se:.4f})")
        prif_curve = " ".join(f"{m:.3f}" for m, _ in curves["prif"])
        report_line(6, ok,
                "epidemic delivery non-increasing in TTL within noise ["
                + "; ".join(detail) + f"]; prif curve alongside: {prif_curve}")


# ---------------------------------------------------------------------------
# 7. privacy contrast
# ---------------------------------------------------------------------------

class TestCriterion7:
    def test_wire_contrast_and_identical_decisions(self, report_line):
        sc = desk_preset(seed=13).with_overrides(duration=8000.0, warmup=500.0)
        trace = build_trace(sc)
        wire, decisions = {}, {}
        for router in ("prif", "prif-noprivacy"):
            events = []
            run(sc.with_overrides(router=router), trace=trace, events=events)
            wire[router] = b"".join(e[4] for e in events if e[1] == "frame")
            decisions[router] = [e for e in events if e[1] == "decide"]
        dec_p, dec_n = decisions["prif"], decisions["prif-noprivacy"]
        marker_in_plain = INTEREST_MARKER in wire["prif-noprivacy"]
        marker_in_prif = INTEREST_MARKER in wire["prif"]
        relays = sum(1 for d in dec_p if d[4][1] is Action.RELAY)
        ok = (marker_in_plain and not marker_in_prif
              and dec_p == dec_n and len(dec_p) > 100 and relays > 0)
        report_line(7, ok,
                f"interest marker in no-privacy wire: {marker_in_plain}, "
                f"in privacy-preserving wire: {marker_in_prif}; decision "
                f"streams identical over {len(dec_p)} decisions ({relays} relays)")


# ---------------------------------------------------------------------------
# 8. determinism of the CLI surface
# ---------------------------------------------------------------------------

class TestCriterion8:
    def test_byte_identical_reports(self, tmp_path, report_line):
        from prif.cli import main
        cfg = tmp_path / "sc.ini"
        cfg.write_text(
            "[scenario]\npreset = desk\nduration = 6000\nwarmup = 500\n")
        args = ["run", "--config", str(cfg), "--router", "prif,epidemic",
                "--sweep", "buffer", "--values", "2,4", "--seeds", "1,2"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        csv1 = (out1 / "sweep.csv").read_bytes()
        csv2 = (out2 / "sweep.csv").read_bytes()
        jsons1 = sorted(p.name for p in out1.glob("run_*.json"))
        json_match = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                         for n in jsons1)
        report_line(8, csv1 == csv2 and json_match and len(csv1) > 0,
                f"two identical CLI invocations: CSV byte-identical "
                f"({len(csv1)} bytes), {len(jsons1)} JSON reports byte-identical")
