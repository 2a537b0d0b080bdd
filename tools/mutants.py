#!/usr/bin/env python3
"""Standing mutation check: every listed mutant must make its tests fail.

    python tools/mutants.py

Each entry in ``MUTANTS`` replaces one exact text in one file (the text must
occur exactly once, so an entry that no longer matches the code is reported
as stale rather than skipped) and names the pytest selection that should
catch the change.  The script copies ``pyproject.toml``, ``src/`` and
``tests/`` to a temporary directory once, applies each entry alone to that
copy, runs only the entry's selection there, and restores the file.  The
working tree is never written.

A mutant whose selection still passes has *survived*.  The script exits 1 if
any mutant survives that is not marked equivalent, if an equivalent one is
caught (its reason no longer holds), or if an entry is stale or its
selection cannot run.  Only the standard library is used, plus the pytest
the test suite already needs.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("pyproject.toml", "src", "tests")
# A mutant that makes its tests run away (say, a loop that never ends) is
# stopped here and reported as an error, not as caught.
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str                 # relative to the repository root
    old: str                  # exact text, present exactly once
    new: str
    tests: tuple[str, ...]    # pytest node ids or paths
    why: str
    equivalent: Optional[str] = None   # why no test can catch it, if so


# The oracle's fixed-seed tests: its hypothesis test catches the same
# mutants, but can spend minutes shrinking a failing sequence.
_BUFFER_ORACLE = (
    "tests/test_routing.py::TestBufferOracle::"
    "test_oldest_first_breaks_ties_by_id_across_ttls",
    "tests/test_routing.py::TestBufferOracle::test_long_sequences_match_reference")
_EXPIRY = ("tests/test_model.py::TestExpiry",)
_ROUTING_AND_SIM = ("tests/test_routing.py", "tests/test_sim.py")
_RAGGED_ROUNDS = ("tests/test_sim.py::TestBuildOracles::"
                  "test_ragged_rounds_and_horizon_on_a_leg_end",)
_EPIDEMIC = "tests/test_baselines.py::TestEpidemic::"
_AUTH = "tests/test_auth.py::"

MUTANTS = [
    Mutant(
        "oldest-created-as-max", "src/prif/routing.py",
        "self._oldest = min((m.created_at for m, _ in self._copies.values()),",
        "self._oldest = max((m.created_at for m, _ in self._copies.values()),",
        _BUFFER_ORACLE,
        "the expiry bound must use the oldest copy held; the newest one "
        "hides older copies that have expired"),
    Mutant(
        "pop-oldest-without-id-tiebreak", "src/prif/routing.py",
        'key=attrgetter("created_at", "msg_id")',
        'key=attrgetter("created_at")',
        _BUFFER_ORACLE,
        "eviction breaks created_at ties by msg_id, not by insertion order"),
    Mutant(
        "pop-expired-by-created-at", "src/prif/routing.py",
        "        return dead\n",
        '        return sorted(dead, key=attrgetter("created_at"))\n',
        _BUFFER_ORACLE,
        "expired copies come back in insertion order, which fixes the order "
        "of their events"),
    Mutant(
        "expired-at-ttl-age", "src/prif/model.py",
        "now - m.created_at > ttl_min * SECONDS_PER_MINUTE",
        "now - m.created_at >= ttl_min * SECONDS_PER_MINUTE",
        _EXPIRY,
        "a copy exactly at its TTL age is still alive"),
    Mutant(
        "no-expiry-early-out", "src/prif/routing.py",
        "        if not self.maybe_expired(now):\n            return []\n",
        "",
        _ROUTING_AND_SIM,
        "the early-out in pop_expired only skips a scan that finds nothing",
        equivalent="without it every call scans; the scan finds the same "
                   "copies, so only speed changes"),
    Mutant(
        "no-bound-reset-after-scan", "src/prif/routing.py",
        "        self._oldest = min((m.created_at for m, _ in self._copies.values()),\n"
        "                           default=math.inf)\n",
        "",
        _ROUTING_AND_SIM,
        "resetting the bound after a scan keeps later early-outs possible",
        equivalent="without it the bound only goes down, which errs toward "
                   "scanning; results are the same, only speed changes"),
    Mutant(
        "x-test-without-prev", "src/prif/sim/kernels.py",
        "& (xlo[pi] - xhi[pj] <= reach) | prev)",
        "& (xlo[pi] - xhi[pj] <= reach))",
        ("tests/test_sim.py::TestKernels::"
         "test_adjacent_pairs_that_separate_along_either_axis",),
        "a pair adjacent at a block's start stays a candidate however far "
        "apart in x it moves, or its contact never ends"),
    Mutant(
        "itinerary-without-its-last-leg", "src/prif/sim/mobility.py",
        "past.argmax(axis=1) + 1", "past.argmax(axis=1)",
        _RAGGED_ROUNDS,
        "the first leg to end past the horizon is the node's last one, and "
        "is kept"),
    Mutant(
        "continuing-nodes-keep-their-old-time", "src/prif/sim/mobility.py",
        "t_end[go, -1]", "t[go]",
        _RAGGED_ROUNDS,
        "a node's next round starts when its last leg of this round ends"),
    Mutant(
        "leg-clock-accumulated-across-nodes", "src/prif/sim/mobility.py",
        "np.add.accumulate(steps, axis=1)", "np.add.accumulate(steps, axis=0)",
        # not the ragged rounds: there a node's clock never reaches the
        # horizon under this mutant, and its draws double without end
        ("tests/test_sim.py::TestBuildOracles::"
         "test_pauses_past_the_horizon_give_one_leg_each",),
        "each node's clock runs along its own row of legs"),
    Mutant(
        "schedule-ignores-peer-delivered", "src/prif/routing.py",
        "known = self.delivered_mask | peer.delivered_mask",
        "known = self.delivered_mask",
        (_EPIDEMIC + "test_hold_when_peer_already_delivered",),
        "a copy the peer knows delivered is not offered to it, even before "
        "delivery notices are exchanged"),
    Mutant(
        "schedule-ignores-held", "src/prif/routing.py",
        "if m.msg_id not in held and not known >> m.msg_id & 1]",
        "if not known >> m.msg_id & 1]",
        (_EPIDEMIC + "test_hold_when_peer_has_copy",),
        "a copy the peer already holds is not offered to it again"),
    Mutant(
        "antipackets-union-one-way", "src/prif/routing.py",
        "        self.delivered_mask = other.delivered_mask = (\n"
        "            self.delivered_mask | other.delivered_mask)\n",
        "        self.delivered_mask |= other.delivered_mask\n",
        ("tests/test_routing.py::TestAntipackets::test_sets_union_both_ways",),
        "both sides of a gossip leave it knowing every delivery either knew"),
    Mutant(
        "relay-keeps-hops", "src/prif/sim/engine.py",
        "hops = hops_of(m.msg_id) + 1", "hops = hops_of(m.msg_id)",
        ("tests/test_routing.py::TestDelivery::"
         "test_header_frames_count_hops_along_a_chain",),
        "a transfer hands on a copy one hop further than the sender's"),
    Mutant(
        "contact-end-at-start", "src/prif/sim/engine.py",
        "            now = c.end\n", "            now = c.start\n",
        ("tests/test_sim.py::TestForemostJourneys::"
         "test_no_delivery_beats_the_foremost_journey",),
        "copies cross a contact at its end; at its start they would arrive "
        "before any journey can bring them"),
    Mutant(
        "schedule-drops-last-candidate", "src/prif/routing.py",
        "return self.router.schedule_order(candidates, now, peer.router)",
        "return self.router.schedule_order(candidates[:-1], now, peer.router)",
        ("tests/test_sim.py::TestForemostJourneys::"
         "test_unlimited_epidemic_delivers_at_the_foremost_times",),
        "every candidate is offered; flooding then misses foremost journeys"),
    Mutant(
        "prif-labels-compared-by-order", "src/prif/routing.py",
        "        if peer_c == dest_c:\n            return RELAY_INTO_COMMUNITY",
        "        if peer_c <= dest_c:\n            return RELAY_INTO_COMMUNITY",
        ("tests/test_routing.py::TestDecide::"
         "test_matches_reference_on_randomized_states",),
        "community labels are opaque: routing compares them for equality "
        "only (relaying more often than that stays within every journey, so "
        "the journey oracle cannot see this one)"),
    Mutant(
        "secret-meets-b-before-its-q-check", "src/prif/auth.py",
        "    if chain_pow(chain, params.q, p) != 1:\n"
        "        return None\n"
        "    return chain_pow(chain, s, p)\n",
        "    shared = chain_pow(chain, s, p)\n"
        "    if chain_pow(chain, params.q, p) != 1:\n"
        "        return None\n"
        "    return shared\n",
        (_AUTH + "TestRound2Order::test_honest_peer_checks_q_before_s",),
        "round 2 raises B to the secret s only once B^q equals 1"),
    Mutant(
        "no-ephemeral-range-check", "src/prif/auth.py",
        "\n            or not 1 < B < p):", "):",
        (_AUTH + "TestSubgroupChecks::"
         "test_round2_rejects_non_member_with_random_tag",),
        "B = 1 passes the B^q test, and only the range check turns it down"),
    Mutant(
        "chain-digit-masked-to-three-bits", "src/prif/auth.py",
        "buckets[digit] = buckets[digit] * entry % p",
        "buckets[digit & 7] = buckets[digit & 7] * entry % p",
        (_AUTH + "TestPowerChain::test_exponents_below_16_to_the_n_skip_powmod",),
        "each radix-16 digit selects its own bucket, 1 to 15"),
    Mutant(
        "verify-ignores-the-subgroup-verdict", "src/prif/auth.py",
        "    if not peer.member:\n        return False\n", "",
        (_AUTH + "TestSubgroupChecks::test_verify_rejects_y_outside_subgroup",),
        "verification turns down a peer Y outside the order-q subgroup "
        "before anything meets b"),
    Mutant(
        "verifier-chain-on-first-use", "src/prif/auth.py",
        "            return powmod(self._base, b, p)\n", "",
        (_AUTH + "TestMemosAreInvisible::"
         "test_peer_memo_chains_a_base_at_its_second_use_and_stays_bounded",),
        "a verifier base used once keeps no 19 KB chain"),
]


def run_mutant(m: Mutant, tree: Path) -> tuple[str, float]:
    """Apply ``m`` to the copy at ``tree``, run its tests, restore the file.

    Returns the outcome ('killed', 'survived', 'stale' or 'error: ...') and
    the test time in seconds."""
    path = tree / m.file
    original = path.read_text()
    if original.count(m.old) != 1:
        return f"stale: old text occurs {original.count(m.old)} times", 0.0
    path.write_text(original.replace(m.old, m.new))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *m.tests],
            cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"error: no result in {TIMEOUT_S} s", time.perf_counter() - start
    finally:
        path.write_text(original)
    elapsed = time.perf_counter() - start
    if done.returncode == 0:
        return "survived", elapsed
    if done.returncode == 1:
        return "killed", elapsed
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {done.returncode} {' '.join(tail)}", elapsed


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / name)
        for m in MUTANTS:
            outcome, secs = run_mutant(m, tree)
            ok = outcome == ("survived" if m.equivalent else "killed")
            bad += not ok
            note = f" (equivalent: {m.equivalent})" if m.equivalent else ""
            print(f"{'ok ' if ok else 'BAD'} {m.name}: {outcome} "
                  f"in {secs:.1f} s{note}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
