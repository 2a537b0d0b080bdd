import random
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prif.energy import (EnergyParams, EnergyTable, InterEnergyRecord,
                         IntraEnergyRecord, decay_windows, predict_inter,
                         predict_intra)
from prif.model import ContactEvent

from oracles import inter_script_oracle, intra_script_oracle, transitive_oracle

P = EnergyParams(alpha=0.3, beta=0.3, gamma=0.98, window=30.0)


def table(owner=0, community="C"):
    return EnergyTable(owner, community, P)


# ---------------------------------------------------------------------------
# direct inter updates
# ---------------------------------------------------------------------------

class TestDirectInter:
    def test_basic_ratio(self):
        t = table()
        t.update_direct_inter(1, "C", ContactEvent(0, 1, 270.0, 300.0))
        rec = t.inter[1]
        # first encounter measures the gap from simulation start
        assert rec.value == pytest.approx(30.0 / 300.0)
        t.update_direct_inter(1, "C", ContactEvent(0, 1, 570.0, 600.0))
        assert t.inter[1].value == pytest.approx(30.0 / 300.0)

    def test_first_encounter_denominator_from_start(self):
        t = table()
        t.update_direct_inter(1, "C", ContactEvent(0, 1, 170.0, 200.0))
        assert t.inter[1].value == pytest.approx(0.15)

    def test_continuous_contact_hits_one(self):
        t = table()
        t.update_direct_inter(1, "C", ContactEvent(0, 1, 0.5, 200.0))
        t.update_direct_inter(1, "C", ContactEvent(0, 1, 200.5, 400.0))
        assert t.inter[1].value == pytest.approx(199.5 / 200.0)

    def test_rejects_foreign_community_peer(self):
        t = table()
        with pytest.raises(ValueError):
            t.update_direct_inter(1, "OTHER", ContactEvent(0, 1, 0.0, 30.0))

    def test_prev_value_shifts(self):
        t = table()
        t.update_direct_inter(1, "C", ContactEvent(0, 1, 170.0, 200.0))
        t.update_direct_inter(1, "C", ContactEvent(0, 1, 230.0, 260.0))
        rec = t.inter[1]
        assert rec.prev_value == pytest.approx(0.15 * P.gamma ** 2)
        assert rec.encounter_count == 2


# ---------------------------------------------------------------------------
# transitive inter updates
# ---------------------------------------------------------------------------

class TestTransitiveInter:
    def _with_via(self, e_ab, now=300.0):
        t = table()
        t.inter[1] = InterEnergyRecord(peer=1, value=e_ab, prev_value=e_ab,
                                       last_encounter_end=now, last_aged_at=now)
        return t

    def test_fresh_record_is_product(self):
        t = self._with_via(0.5)
        t.update_transitive_inter(1, [(2, 0.4)], now=300.0)
        assert t.inter[2].value == pytest.approx(0.2)

    def test_existing_record_strengthens(self):
        t = self._with_via(0.5)
        t.inter[2] = InterEnergyRecord(peer=2, value=0.5, prev_value=0.5,
                                       last_encounter_end=300.0, last_aged_at=300.0)
        t.update_transitive_inter(1, [(2, 0.4)], now=300.0)
        assert t.inter[2].value == pytest.approx(0.6)

    def test_zero_via_energy_is_identity(self):
        t = self._with_via(0.0)
        t.update_transitive_inter(1, [(2, 0.9)], now=300.0)
        assert 2 not in t.inter

    def test_unknown_via_is_identity(self):
        t = table()
        t.update_transitive_inter(99, [(2, 0.9)], now=300.0)
        assert not t.inter

    def test_empty_summary_is_identity(self):
        t = self._with_via(0.5)
        before = dict(t.inter)
        t.update_transitive_inter(1, [], now=300.0)
        assert t.inter == before

    def test_skips_owner_entry(self):
        t = self._with_via(0.5)
        t.update_transitive_inter(1, [(0, 0.9)], now=300.0)
        assert 0 not in t.inter

    @settings(max_examples=300)
    @given(old=st.floats(0, 1), e_ab=st.floats(0, 1), e_bc=st.floats(0, 1))
    def test_closure_in_unit_interval(self, old, e_ab, e_bc):
        out = transitive_oracle(old, e_ab, e_bc)
        assert 0.0 <= out <= 1.0
        assert out >= old * (1 - 1e-12)


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

class TestPrediction:
    def test_inter_weighting(self):
        rec = InterEnergyRecord(peer=1, value=0.6, prev_value=0.2)
        assert predict_inter(rec, 0.3) == pytest.approx(0.48)

    def test_intra_weighting(self):
        rec = IntraEnergyRecord(community="X", value=0.03, prev_value=0.01)
        assert predict_intra(rec, 0.3) == pytest.approx(0.024)

    def test_alpha_zero_returns_current(self):
        rec = InterEnergyRecord(peer=1, value=0.6, prev_value=0.2)
        assert predict_inter(rec, 0.0) == 0.6

    def test_beta_one_returns_previous(self):
        rec = IntraEnergyRecord(community="X", value=0.03, prev_value=0.01)
        assert predict_intra(rec, 1.0) == 0.01

    @settings(max_examples=300)
    @given(prev=st.floats(0, 1), cur=st.floats(0, 1), w=st.floats(0, 1))
    def test_prediction_between_observations(self, prev, cur, w):
        rec = InterEnergyRecord(peer=1, value=cur, prev_value=prev)
        out = predict_inter(rec, w)
        lo, hi = min(prev, cur), max(prev, cur)
        assert lo - 1e-12 <= out <= hi + 1e-12

    @settings(max_examples=100)
    @given(v=st.floats(0, 1), w=st.floats(0, 1))
    def test_fixed_point_when_equal(self, v, w):
        rec = InterEnergyRecord(peer=1, value=v, prev_value=v)
        assert predict_inter(rec, w) == pytest.approx(v, abs=1e-15)


# ---------------------------------------------------------------------------
# intra updates
# ---------------------------------------------------------------------------

class TestIntra:
    def test_twelve_encounters_over_600s(self):
        t = table()
        first = 100.0
        for i in range(12):
            t.update_intra("X", first + i * (600.0 / 11.0))
        rec = t.intra["X"]
        assert rec.cumulative_count == 12
        assert rec.value == pytest.approx(12.0 / 600.0)

    def test_first_encounter_clamps_to_window(self):
        t = table()
        t.update_intra("X", 1000.0)
        assert t.intra["X"].value == pytest.approx(1.0 / 30.0)

    def test_back_to_back_denominator_guarded(self):
        t = table()
        t.update_intra("X", 1000.0)
        t.update_intra("X", 1001.0)
        assert t.intra["X"].value == pytest.approx(2.0 / 30.0)

    def test_rejects_own_community(self):
        t = table()
        with pytest.raises(ValueError):
            t.update_intra("C", 100.0)

    def test_count_monotone(self):
        t = table()
        for i in range(5):
            t.update_intra("X", 100.0 + 40 * i)
            assert t.intra["X"].cumulative_count == i + 1


# ---------------------------------------------------------------------------
# aging
# ---------------------------------------------------------------------------

class TestAging:
    @staticmethod
    def _rec(value=0.8, prev=None):
        return InterEnergyRecord(peer=1, value=value,
                                 prev_value=value if prev is None else prev,
                                 last_encounter_end=0.0, last_aged_at=0.0)

    def test_five_windows(self):
        expected_factor = 1.0
        for _ in range(5):   # independent evaluation of gamma^5
            expected_factor *= 0.98
        t = table()
        t.inter[1] = self._rec(0.8)
        assert t.effective_inter(1, 150.0) == pytest.approx(
            0.8 * expected_factor, abs=1e-12)
        assert t.inter[1] == self._rec(0.8)
        t.age(t.inter[1], 150.0)
        assert t.inter[1].value == pytest.approx(0.8 * expected_factor, abs=1e-12)
        assert t.inter[1].last_aged_at == 150.0

    def test_zero_windows_identity(self):
        t = table()
        t.inter[1] = self._rec(0.8, prev=0.4)
        assert t.effective_inter(1, 29.0) == predict_inter(t.inter[1], P.alpha)
        t.age(t.inter[1], 29.0)
        assert t.inter[1] == self._rec(0.8, prev=0.4)

    def test_zero_value_absorbs(self):
        t = table()
        t.inter[1] = self._rec(0.0)
        assert t.effective_inter(1, 10_000.0) == 0.0
        t.age(t.inter[1], 10_000.0)
        assert t.inter[1].value == 0.0

    def test_effective_inter_ages_then_predicts(self):
        t = table()
        t.inter[1] = self._rec(0.5)
        assert t.effective_inter(1, 60.0) == pytest.approx(0.5 * 0.98 * 0.98)

    def test_effective_unknown_is_zero(self):
        t = table()
        assert t.effective_inter(42, 100.0) == 0.0
        assert t.effective_intra("X", 100.0) == 0.0

    @settings(max_examples=200)
    @given(v=st.floats(0, 1),
           t1=st.integers(0, 10_000), t2=st.integers(0, 10_000))
    def test_aging_composes(self, v, t1, t2):
        lo, hi = sorted((t1, t2))
        a = table()
        a.inter[1] = self._rec(v)
        a.age(a.inter[1], float(lo))
        a.age(a.inter[1], float(hi))
        b = table()
        b.inter[1] = self._rec(v)
        assert a.effective_inter(1, float(hi)) == pytest.approx(
            b.effective_inter(1, float(hi)), abs=1e-12)
        b.age(b.inter[1], float(hi))
        assert a.inter[1].value == pytest.approx(b.inter[1].value, abs=1e-12)
        assert a.inter[1].last_aged_at == b.inter[1].last_aged_at

    @settings(max_examples=200)
    @given(v=st.floats(0, 1), dt=st.integers(0, 100_000))
    def test_aging_never_increases(self, v, dt):
        t = table()
        t.inter[1] = self._rec(v)
        assert t.effective_inter(1, float(dt)) <= v + 1e-15
        t.age(t.inter[1], float(dt))
        assert t.inter[1].value <= v + 1e-15


# ---------------------------------------------------------------------------
# reads are pure
# ---------------------------------------------------------------------------

PEERS = (1, 2, 3)
COMMUNITIES = ("X", "Y")

write_op = st.one_of(
    st.tuples(st.just("direct"), st.sampled_from(PEERS),
              st.floats(0.5, 120.0)),
    st.tuples(st.just("transitive"), st.sampled_from(PEERS),
              st.lists(st.tuples(st.sampled_from((0,) + PEERS + (4, 5)),
                                 st.floats(0.0, 1.0)), max_size=4)),
    st.tuples(st.just("intra"), st.sampled_from(COMMUNITIES), st.none()),
)
read_op = st.tuples(st.sampled_from(["inter", "intra", "summary"]),
                    st.sampled_from(PEERS + COMMUNITIES),
                    st.floats(-500.0, 5_000.0))


def snapshot(t):
    return ({k: astuple(r) for k, r in t.inter.items()},
            {k: astuple(r) for k, r in t.intra.items()})


def apply_write(t, op, now):
    kind, key, arg = op
    if kind == "direct":
        t.update_direct_inter(key, "C", ContactEvent(0, key, now - arg, now))
    elif kind == "transitive":
        t.update_transitive_inter(key, arg, now)
    else:
        t.update_intra(key, now)


def apply_read(t, op, now):
    kind, key, offset = op
    at = now + offset
    if kind == "inter":
        return t.effective_inter(key, at)
    if kind == "intra":
        return t.effective_intra(key, at)
    return t.inter_summary(at)


class TestPureReads:
    @settings(max_examples=200, deadline=None)
    @given(script=st.lists(st.tuples(st.floats(121.0, 900.0), write_op,
                                     st.lists(read_op, max_size=4)),
                           min_size=1, max_size=30))
    def test_extra_reads_change_nothing(self, script):
        """Reads between writes leave every record and every later read
        bit-identical to a run without them."""
        plain, probed = table(), table()
        now = 0.0
        for dt, write, reads in script:
            now += dt
            apply_write(plain, write, now)
            apply_write(probed, write, now)
            for read in reads:
                before = snapshot(probed)
                apply_read(probed, read, now)
                assert snapshot(probed) == before
            assert snapshot(probed) == snapshot(plain)
        for at in (now, now + 29.0, now + 31.0, now + 1e4):
            assert probed.inter_summary(at) == plain.inter_summary(at)
            for peer in PEERS:
                assert probed.effective_inter(peer, at) == plain.effective_inter(peer, at)
            for c in COMMUNITIES:
                assert probed.effective_intra(c, at) == plain.effective_intra(c, at)


# ---------------------------------------------------------------------------
# oracle equivalence over contact scripts
# ---------------------------------------------------------------------------

def random_contact_script(rng, n_contacts):
    """Non-overlapping (start, end) intervals with integer-second bounds."""
    contacts = []
    t = 0.0
    for _ in range(n_contacts):
        gap = rng.randint(1, 500)
        dur = rng.randint(1, 120)
        start = t + gap
        end = start + dur
        contacts.append((start, end))
        t = end
    return contacts


class TestOracleEquivalence:
    def test_inter_scripts_match_brute_force(self):
        rng = random.Random(1234)
        for trial in range(30):
            contacts = random_contact_script(rng, rng.randint(1, 100))
            t = table()
            for start, end in contacts:
                t.update_direct_inter(1, "C", ContactEvent(0, 1, start, end))
            read = contacts[-1][1] + rng.randint(0, 2000)
            got = t.effective_inter(1, read)
            want = inter_script_oracle(contacts, P.alpha, P.gamma, P.window, read)
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"

    def test_intra_scripts_match_brute_force(self):
        rng = random.Random(99)
        for trial in range(30):
            times = []
            t0 = 0.0
            for _ in range(rng.randint(1, 100)):
                t0 += rng.randint(1, 400)
                times.append(float(t0))
            t = table()
            for ts in times:
                t.update_intra("X", ts)
            read = times[-1] + rng.randint(0, 2000)
            got = t.effective_intra("X", read)
            want = intra_script_oracle(times, P.beta, P.gamma, P.window, read)
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"


# ---------------------------------------------------------------------------
# the inlined reads and aging equal the named formulas bit for bit
# ---------------------------------------------------------------------------

_unit = st.floats(0, 1)
_anchor = st.integers(0, 3_000).map(lambda t: t / 4)


class TestInlinedFormulas:
    @settings(max_examples=300)
    @given(st.lists(st.tuples(_unit, _unit, _anchor), min_size=1, max_size=6),
           st.integers(0, 8_000).map(lambda t: t / 4),
           st.sampled_from([0.5, 0.9, 0.98]))
    def test_reads_equal_prediction_times_power(self, recs, now, gamma):
        params = EnergyParams(gamma=gamma)
        t = EnergyTable(0, "C", params)
        for i, (v, prev, anchor) in enumerate(recs):
            t.inter[i + 1] = InterEnergyRecord(
                peer=i + 1, value=v, prev_value=prev, last_aged_at=anchor)
            t.intra[f"X{i}"] = IntraEnergyRecord(
                community=f"X{i}", value=v, prev_value=prev, last_aged_at=anchor)
        want = []
        for i, (v, prev, anchor) in enumerate(recs):
            f = gamma ** decay_windows(anchor, now, params.window)
            inter = predict_inter(t.inter[i + 1], params.alpha) * f
            intra = predict_intra(t.intra[f"X{i}"], params.beta) * f
            assert t.effective_inter(i + 1, now) == inter
            assert t.effective_intra(f"X{i}", now) == intra
            want.append((i + 1, inter))
        assert t.inter_summary(now) == want

    @settings(max_examples=300)
    @given(st.lists(st.tuples(_unit, _unit, _anchor), min_size=1, max_size=6),
           st.lists(st.tuples(st.integers(1, 9), _unit), max_size=8,
                    unique_by=lambda e: e[0]),
           st.integers(3_000, 8_000).map(lambda t: t / 4))
    def test_transitive_fold_ages_like_age(self, recs, summary, now):
        def build():
            t = EnergyTable(0, "C", P)
            t.inter[1] = InterEnergyRecord(peer=1, value=0.5, prev_value=0.5,
                                           last_aged_at=now)
            for i, (v, prev, anchor) in enumerate(recs):
                t.inter[i + 2] = InterEnergyRecord(
                    peer=i + 2, value=v, prev_value=prev, last_aged_at=anchor)
            return t
        got, want = build(), build()
        got.update_transitive_inter(1, summary, now)
        e_via = want.effective_inter(1, now)
        for node, e_bc in summary:
            if node == 1:
                continue
            rec = want.inter.setdefault(
                node, InterEnergyRecord(peer=node, last_aged_at=now))
            want.age(rec, now)
            rec.value = rec.value + (1.0 - rec.value) * e_via * e_bc
        assert ({k: astuple(r) for k, r in got.inter.items()}
                == {k: astuple(r) for k, r in want.inter.items()})


# ---------------------------------------------------------------------------
# summaries and parameters
# ---------------------------------------------------------------------------

class TestSupport:
    def test_summary_reports_effective_values(self):
        t = table()
        t.inter[5] = InterEnergyRecord(peer=5, value=0.4, prev_value=0.4,
                                       last_encounter_end=0.0, last_aged_at=0.0)
        assert t.inter_summary(0.0) == [(5, pytest.approx(0.4))]

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EnergyParams(alpha=1.5)
        with pytest.raises(ValueError):
            EnergyParams(gamma=1.0)
        with pytest.raises(ValueError):
            EnergyParams(window=0.0)
