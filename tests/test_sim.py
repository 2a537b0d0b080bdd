import functools
import hashlib
import json
import math
from dataclasses import FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from prif.baselines import EpidemicRouter, NoPrivacyPrifRouter, ProphetRouter
from prif.energy import EnergyParams
from prif.model import ContactEvent, Message
from prif.routing import PrifRouter
from prif.sim import (GroupSpec, Scenario, apply_axis, build_trace, desk_preset,
                      paper_preset, run, run_sweep, scenario_from_ini)
from prif.sim import kernels, mobility, trace
from prif.sim.engine import TRACE_KINDS, ReplayEngine, format_trace
from prif.sim.scenario import ROUTERS
from prif.sim.trace import (ContactTrace, MessagePlan, assign_interests,
                            build_contacts, build_plan)

from oracles import (all_pairs_transitions, foremost_journeys, positions_at,
                     reference_itineraries, reference_positions)

MB = 1024 * 1024


def mini_scenario(**kw):
    groups = (
        GroupSpec("walkers", 8, (1.0, 2.0), (10.0, 30.0), 80.0, 2e6),
        GroupSpec("cars", 8, (3.0, 8.0), (10.0, 30.0), 80.0, 2e6),
        GroupSpec("buses", 2, (7.0, 10.0), (10.0, 30.0), 150.0, 10e6,
                  generates_messages=False),
    )
    base = Scenario(area=(800.0, 600.0), groups=groups, interests=2,
                    duration=4000.0, warmup=300.0, buffer_bytes=3 * MB,
                    message_interval=(20.0, 40.0), seed=5)
    return base.with_overrides(**kw)


def replay_text(scenario):
    """Report and rendered text trace of one run."""
    events = []
    rep = run(scenario, events=events)
    return rep, format_trace(events)


def stationary_legs(points):
    """Leg arrays for nodes parked at fixed positions."""
    n = len(points)
    off = np.arange(n + 1, dtype=np.int64)
    zeros = np.zeros(n)
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    return mobility.LegArrays(leg_off=off, t0=zeros.copy(), x0=xs, y0=ys,
                              x1=xs, y1=ys, vx=zeros.copy(), vy=zeros.copy(),
                              tarr=zeros.copy())


# ---------------------------------------------------------------------------
# kernels: the culled contact scan must match the all-pairs scan exactly
# ---------------------------------------------------------------------------

def assert_same_transitions(pos, minr2, adj, **kw):
    want = all_pairs_transitions(pos, minr2, adj)
    got = kernels.transitions(pos, minr2, adj, **kw)
    for w, g in zip(want, got):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return got


def pair_track(near_ticks, n_ticks):
    """(T, 2, 2) positions: node 0 parked at the origin, node 1 5 m away on
    ``near_ticks`` and 500 m away on every other tick."""
    pos = np.zeros((n_ticks, 2, 2))
    pos[:, 1] = (500.0, 0.0)
    pos[near_ticks, 1] = (5.0, 0.0)
    return pos


class TestKernels:
    def _random_legs(self, seed=0, n_nodes=12):
        lo = np.full(n_nodes, 1.0)
        hi = np.full(n_nodes, 9.0)
        return mobility.build_itineraries((500.0, 400.0), lo, hi,
                                          np.full(n_nodes, 5.0),
                                          np.full(n_nodes, 20.0),
                                          2000.0, seed)

    @pytest.mark.parametrize("preset,duration", [(desk_preset(), 2000.0),
                                                 (paper_preset(), 400.0)],
                             ids=["desk", "paper"])
    def test_matches_all_pairs_scan_on_presets(self, monkeypatch, preset,
                                               duration):
        n_moves = []

        def checked(pos, minr2, adj):
            # two calls split mid-chunk, carrying the adjacency across
            cut = pos.shape[0] // 2 + 5
            first = assert_same_transitions(pos[:cut], minr2, adj)
            second = assert_same_transitions(pos[cut:], minr2, first[4])
            n_moves.append(first[0].size + second[0].size)
            return kernels.transitions(pos, minr2, adj)

        monkeypatch.setattr(trace, "kernels", SimpleNamespace(
            positions=kernels.positions, transitions=checked))
        for seed in range(20):
            build_contacts(preset.with_overrides(seed=seed, duration=duration,
                                                 warmup=0.0))
        assert len(n_moves) == 20 and sum(n_moves) > 20

    def test_pair_at_exact_range_is_in_contact(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0.0, 300.0, size=(1, 2, 2))
        dx = pos[0, 0, 0] - pos[0, 1, 0]
        dy = pos[0, 0, 1] - pos[0, 1, 1]
        edge = dx * dx + dy * dy
        adj = np.zeros((2, 2), dtype=bool)
        for r2, inside in ((edge, True), (np.nextafter(edge, 0.0), False)):
            minr2 = np.full((2, 2), r2)
            got = assert_same_transitions(pos, minr2, adj)
            assert got[3].tolist() == ([True] if inside else [])

    def test_adjacent_pair_separating_at_block_first_tick(self):
        pos = pair_track(near_ticks=slice(0, 4), n_ticks=8)
        minr2 = np.full((2, 2), 100.0)
        got = assert_same_transitions(pos, minr2, np.zeros((2, 2), bool),
                                      chunk=4)
        assert got[0].tolist() == [0, 4] and got[3].tolist() == [True, False]

    def test_adjacent_at_call_start_separating_at_first_tick(self):
        pos = pair_track(near_ticks=[], n_ticks=4)
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        got = assert_same_transitions(pos, np.full((2, 2), 100.0), adj,
                                      chunk=4)
        assert got[0].tolist() == [0] and got[3].tolist() == [False]
        assert not got[4].any()

    def test_pair_meeting_at_block_last_tick(self):
        pos = pair_track(near_ticks=[7], n_ticks=12)
        got = assert_same_transitions(pos, np.full((2, 2), 100.0),
                                      np.zeros((2, 2), bool), chunk=4)
        assert got[0].tolist() == [7, 8] and got[3].tolist() == [True, False]

    def test_pairs_level_in_x_but_apart_in_y(self):
        """Nodes 1 and 2 share node 0's x-band but sit 500 m off in y: the
        x test keeps those pairs and the box test drops them, until node 2
        comes down to node 0 at tick 9."""
        pos = np.zeros((12, 3, 2))
        pos[:, 1] = (0.0, 500.0)
        pos[:, 2] = (3.0, 500.0)
        pos[9:, 2] = (3.0, 4.0)
        got = assert_same_transitions(pos, np.full((3, 3), 100.0),
                                      np.zeros((3, 3), bool), chunk=4)
        assert got[0].tolist() == [0, 9, 9]
        assert list(zip(got[1].tolist(), got[2].tolist())) == [(1, 2), (0, 2),
                                                               (1, 2)]
        assert got[3].tolist() == [True, True, False]

    def test_adjacent_pairs_that_separate_along_either_axis(self):
        """Adjacent at a block's start, then apart for the whole block along
        x (node 1) or along y (node 2): each contact still ends, whether the
        adjacency comes from the previous block or from the caller."""
        pos = np.zeros((8, 3, 2))
        pos[:, 1] = (500.0, 0.0)
        pos[:4, 1] = (5.0, 0.0)
        pos[:, 2] = (0.0, 500.0)
        pos[:4, 2] = (0.0, 5.0)
        minr2 = np.full((3, 3), 100.0)
        got = assert_same_transitions(pos, minr2, np.zeros((3, 3), bool),
                                      chunk=4)
        assert got[0].tolist() == [0, 0, 0, 4, 4, 4]
        assert got[3].tolist() == [True] * 3 + [False] * 3
        first = kernels.transitions(pos[:4], minr2, np.zeros((3, 3), bool))
        rest = assert_same_transitions(pos[4:], minr2, first[4], chunk=4)
        assert rest[0].tolist() == [0, 0, 0] and not rest[3].any()

    @pytest.mark.parametrize("where", ["range", "past-range", "reach",
                                       "past-reach"])
    def test_x_gap_at_the_reach_boundary(self, where):
        """A gap exactly at the range is a contact; anything past it is not,
        whether the x test keeps the pair (up to ``reach``) or drops it."""
        reach = 10.0 * (1.0 + kernels._REL_SLACK) + kernels._ABS_SLACK
        gap = {"range": 10.0, "past-range": np.nextafter(10.0, 11.0),
               "reach": reach, "past-reach": np.nextafter(reach, 11.0)}[where]
        pos = np.zeros((6, 2, 2))
        pos[:, 1, 0] = 300.0
        pos[3, 1, 0] = gap
        got = assert_same_transitions(pos, np.full((2, 2), 100.0),
                                      np.zeros((2, 2), bool), chunk=2)
        assert got[0].tolist() == ([3, 4] if where == "range" else [])

    def test_mixed_radio_ranges(self):
        legs = self._random_legs(seed=6)
        pos = positions_at(legs, np.arange(0.0, 2000.0, 1.0))
        # pedestrians, cars and buses: every pair uses the smaller range
        ranges = np.array([10.0] * 4 + [30.0] * 4 + [100.0] * 4)
        minr2 = mobility.min_range_matrix(ranges)
        got = assert_same_transitions(pos, minr2, np.zeros((12, 12), bool))
        assert got[0].size > 0

    @pytest.mark.parametrize("chunk", [1, 7, 64, 5000])
    def test_chunk_size_does_not_change_output(self, chunk):
        legs = self._random_legs(seed=4)
        pos = positions_at(legs, np.arange(0.0, 1999.0, 1.0))
        minr2 = mobility.min_range_matrix(np.full(12, 60.0))
        got = assert_same_transitions(pos, minr2, np.zeros((12, 12), bool),
                                      chunk=chunk)
        assert got[0].size > 0

    def test_zero_ticks(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[0, 2] = True
        tt, ii, jj, started, final = kernels.transitions(
            np.empty((0, 3, 2)), np.full((3, 3), 100.0), adj)
        assert tt.size == ii.size == jj.size == started.size == 0
        assert np.array_equal(final, adj)
        assert final is not adj


# ---------------------------------------------------------------------------
# mobility semantics
# ---------------------------------------------------------------------------

class TestMobility:
    def test_unit_speed_displacement(self):
        # one node moving at exactly 1 m/s: 30 s -> 30 m toward waypoint
        legs = mobility.LegArrays(
            leg_off=np.array([0, 1], dtype=np.int64),
            t0=np.array([0.0]), x0=np.array([0.0]), y0=np.array([0.0]),
            x1=np.array([100.0]), y1=np.array([0.0]),
            vx=np.array([1.0]), vy=np.array([0.0]), tarr=np.array([100.0]))
        p0 = positions_at(legs, 10.0)
        p1 = positions_at(legs, 40.0)
        assert math.hypot(*(p1 - p0)[0]) == pytest.approx(30.0)

    def test_arrival_clamps_to_waypoint(self):
        legs = mobility.LegArrays(
            leg_off=np.array([0, 1], dtype=np.int64),
            t0=np.array([0.0]), x0=np.array([0.0]), y0=np.array([0.0]),
            x1=np.array([10.0]), y1=np.array([0.0]),
            vx=np.array([1.0]), vy=np.array([0.0]), tarr=np.array([10.0]))
        assert positions_at(legs, 10.0)[0].tolist() == [10.0, 0.0]
        assert positions_at(legs, 500.0)[0].tolist() == [10.0, 0.0]

    def test_positions_stay_in_bounds(self):
        n = 15
        legs = mobility.build_itineraries(
            (300.0, 200.0), np.full(n, 1.0), np.full(n, 10.0),
            np.full(n, 5.0), np.full(n, 50.0), 5000.0, seed=8)
        pos = positions_at(legs, np.arange(0.0, 5000.0, 7.0))
        assert pos[..., 0].min() >= 0.0 and pos[..., 0].max() <= 300.0
        assert pos[..., 1].min() >= 0.0 and pos[..., 1].max() <= 200.0

    def test_itineraries_deterministic_per_node(self):
        n = 6
        args = ((300.0, 200.0), np.full(n, 1.0), np.full(n, 10.0),
                np.full(n, 5.0), np.full(n, 50.0), 1000.0)
        a = mobility.build_itineraries(*args, seed=4)
        b = mobility.build_itineraries(*args, seed=4)
        assert np.array_equal(a.t0, b.t0) and np.array_equal(a.x1, b.x1)


# ---------------------------------------------------------------------------
# the batched itinerary draws and plane-backed positions against their loops
# ---------------------------------------------------------------------------

LEG_FIELDS = ("leg_off", "t0", "x0", "y0", "x1", "y1", "vx", "vy", "tarr")


def scenario_leg_args(sc):
    speed_lo, speed_hi = sc.per_node_range("speed_range")
    pause_lo, pause_hi = sc.per_node_range("pause_range")
    return (sc.area, speed_lo, speed_hi, pause_lo, pause_hi, sc.duration,
            trace.stream_seed(sc.seed, trace._STREAM_MOBILITY))


class TestBuildOracles:
    def _assert_same_legs(self, args):
        want = reference_itineraries(*args)
        got = mobility.build_itineraries(*args)
        for f in LEG_FIELDS:
            w, g = getattr(want, f), getattr(got, f)
            assert g.dtype == w.dtype and np.array_equal(g, w), f
        return got

    def _assert_same_positions(self, legs, ticks):
        pos = positions_at(legs, ticks)
        assert np.array_equal(pos, reference_positions(legs, ticks))
        assert pos[:, :, 0].flags.c_contiguous
        assert pos[:, :, 1].flags.c_contiguous

    def test_itineraries_and_positions_across_seeds_and_durations(self):
        n = 40
        shape = ((500.0, 400.0), np.full(n, 1.0), np.full(n, 9.0),
                 np.full(n, 5.0), np.full(n, 20.0))
        counts = set()
        for duration in (10.0, 1500.0, 3000.0, 5000.0):
            for seed in (0, 1, 2):
                legs = self._assert_same_legs(shape + (duration, seed))
                counts |= set(np.diff(legs.leg_off).tolist())
                self._assert_same_positions(
                    legs, np.arange(0.0, duration + 1.0, 3.0))
        # nodes whose itinerary ends just before, at and after the end of
        # the first batch of draws (16 legs) and of the second (16 + 32)
        assert {1, 15, 16, 17, 47, 48, 49} <= counts

    def test_ragged_rounds_and_horizon_on_a_leg_end(self):
        """Slow nodes end in the first round of draws beside fast ones that
        need several; a horizon exactly at a leg's end is not past it, so
        the leg after it is the node's last."""
        n = 8
        slow = np.arange(n) < 4
        shape = ((100.0, 100.0), np.where(slow, 0.1, 40.0),
                 np.where(slow, 0.2, 60.0), np.full(n, 0.5), np.full(n, 1.0))
        legs = self._assert_same_legs(shape + (2000.0, 3))
        counts = np.diff(legs.leg_off)
        assert counts[slow].max() < 16 and counts[~slow].min() > 16 + 32
        # the horizon at the end of node 4's 16th leg, the last of its first
        # round: the first leg of its second round is its last
        end = float(legs.t0[legs.leg_off[4] + 16])
        legs = self._assert_same_legs(shape + (end, 3))
        assert np.diff(legs.leg_off)[4] == 17
        assert legs.t0[legs.leg_off[5] - 1] == end

    def test_pauses_past_the_horizon_give_one_leg_each(self):
        """Every node's first pause outlasts the run, so each itinerary is a
        single leg timed by that node's own draws alone."""
        n = 6
        legs = self._assert_same_legs(((300.0, 200.0), np.full(n, 1.0),
                                       np.full(n, 9.0), np.full(n, 500.0),
                                       np.full(n, 600.0), 400.0, 7))
        assert legs.leg_off.tolist() == list(range(n + 1))
        assert not legs.t0.any() and np.all(legs.tarr < 400.0)

    def test_positions_outside_the_legs_and_on_empty_legs(self):
        # node 0 has a zero-length leg at t = 10 (equal starts: the later
        # leg wins); node 1 starts late; ticks run before and after all legs
        legs = mobility.LegArrays(
            leg_off=np.array([0, 3, 5], dtype=np.int64),
            t0=np.array([0.0, 10.0, 10.0, 4.0, 30.0]),
            x0=np.array([0.0, 1.0, 2.0, 5.0, 6.0]),
            y0=np.array([0.0, 1.0, 2.0, 5.0, 6.0]),
            x1=np.array([1.0, 2.0, 3.0, 6.0, 7.0]),
            y1=np.array([1.0, 2.0, 3.0, 6.0, 7.0]),
            vx=np.array([0.5, 0.0, 0.25, 0.1, 0.2]),
            vy=np.array([0.5, 0.0, 0.25, 0.1, 0.2]),
            tarr=np.array([2.0, 10.0, 14.0, 14.0, 35.0]))
        for ticks in (np.arange(-3.0, 50.0, 0.5), np.arange(40.0, 45.0),
                      np.array([10.0]), np.empty(0)):
            self._assert_same_positions(legs, ticks)

    @pytest.mark.parametrize("preset,duration", [(desk_preset(), 45_000.0),
                                                 (paper_preset(), 2_000.0)],
                             ids=["desk-45000s", "paper-2000s"])
    def test_presets(self, preset, duration):
        sc = preset.with_overrides(duration=duration)
        legs = self._assert_same_legs(scenario_leg_args(sc))
        self._assert_same_positions(legs, np.arange(0.0, 8192.0, 1.0))
        self._assert_same_positions(legs, np.arange(duration - 500.0,
                                                    duration + 1.0, 1.0))


# ---------------------------------------------------------------------------
# contact detection thresholds
# ---------------------------------------------------------------------------

class TestContactThresholds:
    def _active_pairs(self, points, ranges):
        legs = stationary_legs(points)
        minr2 = mobility.min_range_matrix(np.asarray(ranges, dtype=np.float64))
        pos = positions_at(legs, np.array([0.0]))
        tt, ii, jj, started, adj = kernels.transitions(
            pos, minr2, np.zeros((len(points), len(points)), dtype=bool))
        return {(int(i), int(j)) for i, j, s in zip(ii, jj, started) if s}

    def test_pedestrians_at_9m_in_contact(self):
        assert self._active_pairs([(0, 0), (9, 0)], [10.0, 10.0]) == {(0, 1)}

    def test_pedestrian_bus_at_50m_uses_min_rule(self):
        assert self._active_pairs([(0, 0), (50, 0)], [10.0, 100.0]) == set()

    def test_buses_at_99m_in_contact(self):
        assert self._active_pairs([(0, 0), (99, 0)], [100.0, 100.0]) == {(0, 1)}

    def test_threshold_inclusive(self):
        assert self._active_pairs([(0, 0), (10, 0)], [10.0, 10.0]) == {(0, 1)}


# ---------------------------------------------------------------------------
# scenario population and validation
# ---------------------------------------------------------------------------

class TestScenario:
    def test_paper_population(self):
        assert paper_preset().n_nodes == 166

    def test_desk_population(self):
        assert desk_preset().n_nodes == 63

    def test_zero_groups_rejected(self):
        with pytest.raises(ValueError, match="at least one node group"):
            Scenario(groups=()).validate()

    def test_bad_router_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            mini_scenario(router="hotpotato").validate()

    @pytest.mark.parametrize("ttl_min", [0.0, -1.0])
    def test_nonpositive_ttl_rejected(self, ttl_min):
        with pytest.raises(ValueError, match="ttl must be positive"):
            mini_scenario(ttl_min=ttl_min).validate()

    def test_warmup_must_precede_end(self):
        with pytest.raises(ValueError, match="warmup"):
            mini_scenario(warmup=5000.0, duration=4000.0).validate()

    @pytest.mark.parametrize("field,value", [
        ("ttl_min", math.nan), ("ttl_min", math.inf), ("duration", math.inf),
        ("duration", math.nan), ("warmup", math.nan), ("mobility_dt", math.nan),
        ("mobility_dt", math.inf), ("area", (800.0, math.nan)),
        ("area", (math.inf, 600.0)), ("message_interval", (20.0, math.inf)),
        ("message_interval", (math.nan, 40.0)), ("prophet_p_init", math.nan),
        ("prophet_beta", math.inf), ("prophet_gamma", -math.inf),
        ("energy", {"window": math.nan}), ("energy", {"window": math.inf})])
    def test_non_finite_scenario_number_rejected(self, field, value):
        """Every `<= 0` check reads False for NaN, so NaN passed them; an
        infinite duration kept the itinerary draws going forever.  Only
        ``validate`` runs here: nothing is built.  Energy parameters are
        rejected as they are built."""
        with pytest.raises(ValueError, match="finite"):
            if field == "energy":
                value = EnergyParams(**value)
            mini_scenario(**{field: value}).validate()

    @pytest.mark.parametrize("field,value", [
        ("speed_range", (1.0, math.inf)), ("speed_range", (math.nan, 2.0)),
        ("pause_range", (0.0, math.nan)), ("pause_range", (0.0, math.inf)),
        ("radio_range", math.nan), ("radio_range", math.inf),
        ("link_rate_bps", math.nan), ("link_rate_bps", math.inf)])
    def test_non_finite_group_number_rejected(self, field, value):
        sc = mini_scenario()
        groups = (replace(sc.groups[0], **{field: value}),) + sc.groups[1:]
        with pytest.raises(ValueError, match="walkers.*finite"):
            sc.with_overrides(groups=groups).validate()

    def test_interest_assignment_uniform_mode(self):
        sc = mini_scenario()
        interests = assign_interests(sc)
        assert interests.shape == (18,)
        assert set(interests.tolist()) <= {0, 1}

    def test_bus_own_community_mode(self):
        sc = mini_scenario(bus_community_mode="own")
        interests = assign_interests(sc)
        assert all(interests[i] == 2 for i in range(16, 18))
        assert all(interests[i] < 2 for i in range(16))

    def test_ini_sets_every_scenario_key(self, tmp_path):
        path = tmp_path / "all.ini"
        path.write_text(
            "[scenario]\npreset = desk\narea = 900x700\ninterests = 4\n"
            "message_interval = 10:20\nmessage_size = 1000:2000\n"
            "ttl_min = 30\nbuffer_mb = 1.5\nduration = 900\nwarmup = 100\n"
            "seed = 9\nrouter = prophet\nalpha = 0.4\nwindow = 60\n"
            "antipackets = instant\nforward_and_delete = yes\n"
            "charge_handshake_bytes = true\ncrypto = 2048\n"
            "bus_community_mode = own\narrival_mode = per-node\n"
            "payload_token_bytes = 32\nprophet_p_init = 0.5\n"
            "prophet_beta = 0.2\nprophet_gamma = 0.9\nmobility_dt = 2\n")
        base = desk_preset()
        assert scenario_from_ini(path) == base.with_overrides(
            area=(900.0, 700.0), interests=4, message_interval=(10.0, 20.0),
            message_size=(1000, 2000), ttl_min=30.0,
            buffer_bytes=int(1.5 * MB), duration=900.0, warmup=100.0, seed=9,
            router="prophet",
            energy=replace(base.energy, alpha=0.4, window=60.0),
            antipacket_mode="instant", forward_and_delete=True,
            charge_handshake_bytes=True, crypto="2048",
            bus_community_mode="own", arrival_mode="per-node",
            payload_token_bytes=32, prophet_p_init=0.5, prophet_beta=0.2,
            prophet_gamma=0.9, mobility_dt=2.0)

    def test_ini_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[scenario]\nbogus_key = 1\n")
        with pytest.raises(ValueError, match="unknown scenario keys"):
            scenario_from_ini(bad)


# ---------------------------------------------------------------------------
# trace construction
# ---------------------------------------------------------------------------

class TestTrace:
    def test_trace_ignores_router_and_replay_fields(self):
        """Sweeps share one trace per seed across routers, buffers and TTLs;
        that holds only while build_trace reads none of these fields."""
        ref = build_trace(mini_scenario())
        variants = [{"router": r} for r in ROUTERS] + [
            {"buffer_bytes": MB}, {"ttl_min": 30.0},
            {"antipacket_mode": "instant"}, {"forward_and_delete": True},
            {"charge_handshake_bytes": True}, {"crypto": "2048"},
            {"energy": EnergyParams(alpha=0.5, beta=0.1, gamma=0.5, window=7.0)},
            {"prophet_p_init": 0.5, "prophet_beta": 0.5, "prophet_gamma": 0.5}]
        for kw in variants:
            got = build_trace(mini_scenario(**kw))
            assert got.duration == ref.duration, kw
            assert np.array_equal(got.interests, ref.interests), kw
            assert got.contacts == ref.contacts, kw
            assert got.plan == ref.plan, kw

    def test_trace_is_read_only(self):
        trace = build_trace(mini_scenario(duration=1000.0))
        assert isinstance(trace.contacts, tuple) and isinstance(trace.plan, tuple)
        with pytest.raises(FrozenInstanceError):
            trace.plan = ()
        with pytest.raises(ValueError, match="read-only"):
            trace.interests[0] = 1

    def test_contacts_well_formed(self):
        trace = build_trace(mini_scenario())
        for c in trace.contacts:
            assert 0.0 <= c.start < c.end <= 4000.0
            assert c.a < c.b

    def test_no_overlapping_contacts_per_pair(self):
        trace = build_trace(mini_scenario())
        by_pair = {}
        for c in trace.contacts:
            by_pair.setdefault((c.a, c.b), []).append((c.start, c.end))
        for intervals in by_pair.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2

    def test_plan_respects_generation_rules(self):
        sc = mini_scenario()
        trace = build_trace(sc)
        assert trace.plan, "mini scenario should generate traffic"
        bus_ids = {16, 17}
        lo, hi = sc.message_size
        for p in trace.plan:
            assert p.source not in bus_ids
            assert p.source != p.destination
            assert lo <= p.size_bytes <= hi
            assert sc.warmup < p.t <= sc.duration

    def test_plan_interarrival_range(self):
        sc = mini_scenario()
        plan = build_plan(sc)
        times = [sc.warmup] + [p.t for p in plan]
        for t1, t2 in zip(times, times[1:]):
            assert 20.0 <= t2 - t1 <= 40.0

    def test_per_node_arrival_mode(self):
        sc = mini_scenario(arrival_mode="per-node")
        plan = build_plan(sc)
        by_src = {}
        for p in plan:
            by_src.setdefault(p.source, []).append(p.t)
        # every generating node runs its own arrival process
        assert len(by_src) == 16
        for times in by_src.values():
            seq = [sc.warmup] + times
            for t1, t2 in zip(seq, seq[1:]):
                assert 20.0 <= t2 - t1 <= 40.0
        assert [p.msg_id for p in plan] == sorted(p.msg_id for p in plan)
        rep = run(sc)
        assert rep.created == len(plan)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

class TestRun:
    def test_two_node_forced_meeting(self):
        groups = (GroupSpec("a", 1, (1.0, 1.5), (5.0, 10.0), 500.0, 2e6),
                  GroupSpec("b", 1, (1.0, 1.5), (5.0, 10.0), 500.0, 2e6))
        sc = Scenario(area=(50.0, 50.0), groups=groups, interests=1,
                      duration=500.0, warmup=10.0, buffer_bytes=10 * MB,
                      message_interval=(30.0, 60.0), seed=2)
        rep = run(sc)
        assert rep.created > 0
        assert rep.delivery_ratio == 1.0
        assert rep.avg_hop_count == 1.0

    def test_zero_delivery_sentinel(self):
        groups = (GroupSpec("a", 2, (1.0, 1.5), (5.0, 10.0), 0.001, 2e6),
                  GroupSpec("b", 2, (1.0, 1.5), (5.0, 10.0), 0.001, 2e6))
        sc = Scenario(area=(5000.0, 5000.0), groups=groups, interests=1,
                      duration=400.0, warmup=10.0, buffer_bytes=10 * MB,
                      message_interval=(30.0, 60.0), seed=2)
        rep = run(sc)
        assert rep.created > 0 and rep.delivered == 0
        assert rep.overhead_defined is False
        assert rep.overhead_ratio == float(rep.relayed)

    @pytest.mark.parametrize("router", ["prif", "prif-noprivacy",
                                        "epidemic", "prophet"])
    def test_conservation(self, router):
        rep = run(mini_scenario(router=router))
        parts = (rep.delivered + rep.expired + rep.dropped
                 + rep.buffered_at_end + rep.rejected)
        assert parts == rep.created

    def test_copies_past_their_ttl_expire_at_the_run_end(self):
        """Copies that outlive their TTL with nothing left to purge them
        expire at the run's end: their ``expire`` events come at ``end``,
        and their message counts as expired, not as buffered, while a
        message still alive at the end counts as buffered."""
        groups = (GroupSpec("g", 3, (1.0, 2.0), (5.0, 10.0), 10.0, 2e6),)
        sc = Scenario(area=(100.0, 100.0), groups=groups, interests=1,
                      duration=100.0, warmup=0.0, ttl_min=1.0, router="epidemic")
        plan = tuple(MessagePlan(msg_id=i, t=t, source=src, destination=dst,
                                 size_bytes=100, token=b"t", nonce=bytes(12))
                     for i, (t, src, dst) in enumerate([(5.0, 0, 2), (90.0, 2, 0)]))
        trace = ContactTrace(duration=100.0, interests=np.zeros(3, dtype=np.int64),
                             contacts=(ContactEvent(0, 1, 10.0, 20.0),), plan=plan)
        events = []
        rep = run(sc, trace=trace, events=events)
        assert [e for e in events if e[1] in ("relay", "expire")] == [
            (20.0, "relay", 0, 1, 0),
            (100.0, "expire", 0, None, 0), (100.0, "expire", 1, None, 0)]
        assert (rep.created, rep.expired, rep.buffered_at_end) == (2, 1, 1)
        assert rep.expiry_events == 2
        assert (rep.delivered + rep.expired + rep.dropped
                + rep.buffered_at_end + rep.rejected) == rep.created

    def test_determinism_same_seed(self):
        sc = mini_scenario(seed=77)
        assert run(sc).to_dict() == run(sc).to_dict()

    def test_different_seeds_differ(self):
        a = run(mini_scenario(seed=1))
        b = run(mini_scenario(seed=2))
        assert a.to_dict() != b.to_dict()

    def test_oversize_message_rejected_and_counted(self):
        sc = mini_scenario(buffer_bytes=500_000,
                           message_size=(600_000, 700_000))
        rep = run(sc)
        assert rep.created > 0
        assert rep.rejected == rep.created
        assert rep.delivered == 0

    def test_instant_antipacket_mode(self):
        rep_g = run(mini_scenario(antipacket_mode="gossip"))
        rep_i = run(mini_scenario(antipacket_mode="instant"))
        parts = (rep_i.delivered + rep_i.expired + rep_i.dropped
                 + rep_i.buffered_at_end + rep_i.rejected)
        assert parts == rep_i.created
        # instant discard can only reduce duplicate transfers
        assert rep_i.duplicates <= rep_g.duplicates

    def test_forward_and_delete_mode(self):
        rep = run(mini_scenario(forward_and_delete=True))
        parts = (rep.delivered + rep.expired + rep.dropped
                 + rep.buffered_at_end + rep.rejected)
        assert parts == rep.created

    @pytest.mark.parametrize("router,cls,gossips", [
        ("prif", PrifRouter, True), ("prif-noprivacy", NoPrivacyPrifRouter, True),
        ("epidemic", EpidemicRouter, False), ("prophet", ProphetRouter, False)])
    def test_gossip_antipackets_only_for_prif_flavours(self, router, cls, gossips):
        assert cls.gossips_antipackets is gossips
        events = []
        run(mini_scenario(router=router), events=events)
        assert any(e[1] == "anti" for e in events) is gossips

    def test_charge_handshake_bytes_runs(self):
        rep = run(mini_scenario(charge_handshake_bytes=True))
        assert rep.created > 0

    def test_trace_lines_schema(self):
        events = []
        run(mini_scenario(), events=events)
        lines = format_trace(events)
        assert lines
        kinds = set()
        for line in lines:
            parts = line.split()
            assert len(parts) == 5
            float(parts[0])
            kinds.add(parts[1])
        assert kinds <= set(TRACE_KINDS)
        assert "create" in kinds and "contact_start" in kinds
        assert "deliver" in kinds
        # decisions and frames are in the stream but never in the text
        stream_kinds = {e[1] for e in events}
        assert {"decide", "frame"} <= stream_kinds
        assert not {"decide", "frame"} & kinds
        assert len(lines) == sum(e[1] in TRACE_KINDS for e in events)


# Digests of the report JSON and of the event trace, pinned when the router
# classes were merged onto one base.  Besides criterion 8's rerun check this
# is the only byte-level guard on the instant, off and forward-and-delete
# anti-packet branches of the engine.
GOLDEN = {
    ("gossip", "prif"): ("b547ae8807949424bcd8c2815873a04dff819b3fa2c95f0079d04b91e5aac97b",
                         "7fea3d9e76c50072fc0d7523da7f7d95b4001a486842a5d1e3ceabec5eb035a6"),
    ("gossip", "prif-noprivacy"): ("7d8238fffc31f25673d8974905aa5f0026f9d31b4990f2987acfb448b4277c62",
                                   "7fea3d9e76c50072fc0d7523da7f7d95b4001a486842a5d1e3ceabec5eb035a6"),
    ("gossip", "epidemic"): ("02c1cdc6a694f82b02f6ce2760d0cb46bdec42685c608b03473ef1ade1f47c20",
                             "1d71667ac5cda5bd8fd2e29b2f2e3bbe889848e33f931d5b6a567be66761c9ff"),
    ("gossip", "prophet"): ("6d727d490330dfee97d66a62e951463e9d7d80972c7e86270bcfe96fe8846157",
                            "0f9e748d1b31676b760831f704e5221c91fc4ca178f289519e5d6b751b473be3"),
    ("instant", "prif"): ("011b019f235753750334db63ecf6cfc92604ac1b54df5697541639c779d9b3af",
                          "c16a1c10b71943eac0c24dda301349592ab289eddb848b57cee990da72de1a90"),
    ("instant", "prif-noprivacy"): ("ecd88e89d9b9dfe2f2923e787689c3973fc067724b30779cb421b574de833a52",
                                    "c16a1c10b71943eac0c24dda301349592ab289eddb848b57cee990da72de1a90"),
    ("instant", "epidemic"): ("84294172654d7dcf119516a0c9d0b5cb403695a546a316ccc7e7faafd00c7296",
                              "2437dbce16671a84689e6c14201cfd808c12c67f1ebb87ad95d143ec32c780cb"),
    ("instant", "prophet"): ("096e4105d6c7e75f9803f2174f3ec5df93b8c88b9f606f06b074f4916d87ab62",
                             "c873bf05e4014a7050565dc41dfd9fbf267a213daafffd5d5bc50b2080700949"),
    ("forward-and-delete", "prif"): ("4c63a542f41a857fbc2e45a08055d8599bd4f7c231d7973612f5582c38ee0366",
                                     "351f96dbd83518ae84c1f830eb7e2a4e47f16846692bc423fdc15f31ab637177"),
    ("forward-and-delete", "prif-noprivacy"): ("50b7f0bc3a4ea1066dee0a98a2f95195b3974e2ba4cd6b52650670a2ecaf5e47",
                                               "351f96dbd83518ae84c1f830eb7e2a4e47f16846692bc423fdc15f31ab637177"),
    ("forward-and-delete", "epidemic"): ("bacb475af96818453a5ae3a28a514d1e156a6a910217d17c1e70c9e9c13f38a3",
                                         "4c2099fd440c4731fbac15c9e11ae23b90446cc0968bfe3939857fa285484a64"),
    ("forward-and-delete", "prophet"): ("53b7b72c264a4060e1104f918a4f1478cc9cd2a870deba45db166f7a706ea48a",
                                        "179fdda0c2d5099acf9f5510860aa4bf306e50f92af2e699f784986cd1cf05df"),
    # no anti-packets: epidemic and PRoPHET gossip none in any mode, so
    # their runs equal the gossip ones
    ("off", "prif"): ("7819dc73b78aba2c38523d85101eca93b8e7c2b1e66649dc7f4bfb0cb1e1be9f",
                      "9c999af00b736d778b03ac4fcf2ba83904c8e833912d8ea3ebac1094b1e26e00"),
    ("off", "prif-noprivacy"): ("ba4a2d1b1ec2f55ad6cf2e05cf65446b1c6468cf348088e3a4670c476495b186",
                                "9c999af00b736d778b03ac4fcf2ba83904c8e833912d8ea3ebac1094b1e26e00"),
    ("off", "epidemic"): ("02c1cdc6a694f82b02f6ce2760d0cb46bdec42685c608b03473ef1ade1f47c20",
                          "1d71667ac5cda5bd8fd2e29b2f2e3bbe889848e33f931d5b6a567be66761c9ff"),
    ("off", "prophet"): ("6d727d490330dfee97d66a62e951463e9d7d80972c7e86270bcfe96fe8846157",
                         "0f9e748d1b31676b760831f704e5221c91fc4ca178f289519e5d6b751b473be3"),
    # handshake bytes charged on 2 kbps links with 200-2000-byte messages,
    # where the charge binds for prif (see test_charge_binds_for_prif)
    ("charged", "prif"): ("d9c48190de41a61d8257e27b5d42118a67e70c498b50fdb624bda64e7851171f",
                          "0d0132519d2b7e6bec8821b9bfe3bbb76eeca469b8e0aab02d22ec01675242ca"),
    ("charged", "prif-noprivacy"): ("9f8a9dbac69261e890f00e3545c248b604a3f36ca3af73d41cbf7d873c0c24ce",
                                    "8c8d78c7399caaaf19a391ed7552d2c2afbbc27da0d9fd86c3f02c9034f00178"),
    ("charged", "epidemic"): ("7359deff817187f39cf21c603ccd4b6c1fcc0d2f54b1e9982cf6850216b6a49e",
                              "07efdc3ef6a23e135b10e364f6eb7f6b54e35a95380a4c309e13d87d41baacd3"),
    ("charged", "prophet"): ("3210e4dd5ad0ecc4176f8476f49338d5c1de3d086181171b507e637dcd66c351",
                             "48bc38561b7bda6f8b79af075115faa5178b210ed61aecf4023700dfb15c83c9"),
}


def slow_link_scenario(**kw):
    """The mini scenario on 2 kbps links with 200-2000-byte messages."""
    base = mini_scenario(message_size=(200, 2000), **kw)
    return base.with_overrides(groups=tuple(
        replace(g, link_rate_bps=2000.0) for g in base.groups))


def digests(scenario):
    rep, lines = replay_text(scenario)
    report = json.dumps(rep.to_dict(), sort_keys=True).encode()
    return (hashlib.sha256(report).hexdigest(),
            hashlib.sha256("\n".join(lines).encode()).hexdigest())


def with_mode(sc, mode):
    """``sc`` with an antipacket mode, ``forward-and-delete`` or ``charged``
    (handshake bytes charged)."""
    if mode == "charged":
        return sc.with_overrides(charge_handshake_bytes=True)
    if mode == "forward-and-delete":
        return sc.with_overrides(forward_and_delete=True)
    return sc.with_overrides(antipacket_mode=mode)


def mode_scenario(mode, **kw):
    """The golden runs' scenario for a mode of ``with_mode``; charged runs
    are on the slow links."""
    base = slow_link_scenario(**kw) if mode == "charged" else mini_scenario(**kw)
    return with_mode(base, mode)


class TestGoldenDigest:
    @pytest.mark.parametrize("mode,router", sorted(GOLDEN))
    def test_report_and_trace_unchanged(self, mode, router):
        assert digests(mode_scenario(mode, router=router)) == GOLDEN[(mode, router)]

    def test_charge_binds_for_prif(self):
        # uncharged, the same slow-link run relays fewer copies (604 vs 610)
        assert (digests(slow_link_scenario(router="prif"))[0]
                != GOLDEN[("charged", "prif")][0])


# Digests of the whole event list (``repr`` of every event, ``decide`` and
# ``frame`` included), so the header frames that carry the community label
# on the wire are pinned too; the text-trace digests above leave them out.
EVENT_GOLDEN = {
    "prif": "103de4f089330b4cdae161229e2125b54b904f95db3344a64aacc8de5c9d5371",
    "prif-noprivacy": "59baf2b9856424a6e581a772046c0ec5e5905efc512d2f8e1e9f05108a88140b",
    "epidemic": "712f4d06507fd8680d33aa40500a9208e08650dd1591d1ace41d1326494fc66c",
    "prophet": "ab5e985c1477fa66fa608daf5a07657550bb1a40e2347c4aac9f692e6a3b678b",
    "charged-prif": "5cb56cb636a75723be892789b74aee06003d32e4eeb984be76909c3bc2e6c679",
}


def event_digest(scenario):
    events = []
    run(scenario, events=events)
    return hashlib.sha256("\n".join(map(repr, events)).encode()).hexdigest()


class TestEventListGolden:
    @pytest.mark.parametrize("router", ROUTERS)
    def test_event_list_unchanged(self, router):
        assert event_digest(mini_scenario(router=router)) == EVENT_GOLDEN[router]

    def test_charged_prif_event_list_unchanged(self):
        sc = slow_link_scenario(router="prif", charge_handshake_bytes=True)
        assert event_digest(sc) == EVENT_GOLDEN["charged-prif"]


def created_messages(scenario):
    """The engine and every message it created, in creation order."""
    engine = ReplayEngine([scenario], build_trace(scenario))
    created = []
    ledger = engine.lanes[0].ledger
    on_create = ledger.on_create

    def record(m):
        created.append(m)
        on_create(m)

    ledger.on_create = record
    engine.run()
    return engine, created


class TestMessageCommunityLabel:
    def test_prif_message_carries_only_the_gid(self):
        engine, created = created_messages(mini_scenario(router="prif"))
        assert created
        interests = engine.trace.interests
        gid_of = {}
        for m in created:
            gid = engine.routers[m.destination].community
            assert m.dest_community == gid
            assert isinstance(gid, str) and gid.startswith("G")
            assert gid_of.setdefault(int(interests[m.destination]), gid) == gid
        # one distinct gid per interest, and no field left for the interest
        assert len(set(gid_of.values())) == len(gid_of) == 2
        assert [f.name for f in fields(Message)] == [
            "msg_id", "source", "destination", "dest_community", "size_bytes",
            "created_at", "payload"]

    def test_noprivacy_message_carries_the_interest(self):
        engine, created = created_messages(mini_scenario(router="prif-noprivacy"))
        assert created
        for m in created:
            assert m.dest_community == int(engine.trace.interests[m.destination])


def read_all_state(router, now):
    """Every energy or predictability read a router offers, at ``now``."""
    if isinstance(router, ProphetRouter):
        for dest in list(router.state.p):
            router.predictability(dest, now)
        return
    table = router.energy
    table.inter_summary(now)
    for peer in list(table.inter):
        table.effective_inter(peer, now)
    for community in list(table.intra):
        table.effective_intra(community, now)


class TestReadsAreUnobservable:
    @pytest.mark.parametrize("router,cls", [("prif", PrifRouter),
                                            ("prif-noprivacy", NoPrivacyPrifRouter),
                                            ("prophet", ProphetRouter)])
    def test_extra_reads_leave_report_and_trace_unchanged(self, monkeypatch,
                                                         router, cls):
        def replay():
            rep, lines = replay_text(mini_scenario(router=router))
            return json.dumps(rep.to_dict(), sort_keys=True).encode(), lines

        plain = replay()
        begin = cls.begin_contact
        reads = []

        def reading_begin(self, other, now, *args, **kw):
            read_all_state(self, now)
            read_all_state(other, now)
            reads.append(now)
            return begin(self, other, now, *args, **kw)

        monkeypatch.setattr(cls, "begin_contact", reading_begin)
        assert replay() == plain
        assert reads


# Lane values that bind in the mini scenario: buffers (MB) that reject,
# evict or hold everything, TTLs (min) that expire copies or none.
LANE_VALUES = {"buffer": [0.6, 1.0, 3.0], "ttl": [8.0, 20.0, 600.0]}
# the slow-link messages are 200-2000 bytes
SLOW_LANE_VALUES = {"buffer": [0.002, 0.005, 3.0], "ttl": [8.0, 20.0, 600.0]}


class TestLanes:
    @pytest.mark.parametrize("axis", ["buffer", "ttl"])
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("mode", ["gossip", "instant", "forward-and-delete",
                                      "charged"])
    def test_lockstep_equals_independent_runs(self, mode, router, axis):
        sc = mode_scenario(mode, router=router)
        values = (SLOW_LANE_VALUES if mode == "charged" else LANE_VALUES)[axis]
        trace = build_trace(sc)
        lanes = [apply_axis(sc, axis, v) for v in values]
        events = [[] for _ in lanes]
        reports = ReplayEngine(lanes, trace, events).run(axis, values)
        outcomes = set()
        for lane, value, rep, lane_events in zip(lanes, values, reports, events):
            alone = []
            want = run(lane, trace=trace, events=alone, axis=axis,
                       axis_value=value)
            assert rep.to_dict() == want.to_dict()
            assert lane_events == alone
            outcomes.add((rep.delivered, rep.expired, rep.dropped,
                          rep.rejected, rep.relayed))
        assert len(outcomes) > 1      # the values bind: the lanes differ

    @pytest.mark.parametrize("router", ROUTERS)
    def test_lane_routers_share_all_but_message_state(self, router):
        """Each lane has one carrier per node over the replay's one router;
        the copies and delivery knowledge are the carrier's alone."""
        sc = mini_scenario(router=router)
        engine = ReplayEngine([sc, sc.with_overrides(buffer_bytes=MB)],
                              build_trace(sc))
        for node, lead in engine.routers.items():
            assert not hasattr(lead, "_copies")
            assert not hasattr(lead, "delivered_mask")
            carriers = [lane.carriers[node] for lane in engine.lanes]
            for lane, carrier in zip(engine.lanes, carriers):
                assert carrier.router is lead and carrier.node == node
                assert carrier.capacity_bytes == lane.scenario.buffer_bytes
                assert carrier.messages() == []
                assert carrier.delivered_mask == 0
            assert carriers[0]._copies is not carriers[1]._copies

    def test_lanes_share_one_message_per_creation(self):
        """A creation builds one ``Message``; every lane's ledger receives
        that same object, whatever the lane's TTL."""
        sc = mini_scenario(router="epidemic")
        values = LANE_VALUES["ttl"]
        engine = ReplayEngine([apply_axis(sc, "ttl", v) for v in values],
                              build_trace(sc))
        created = [[] for _ in engine.lanes]
        for lane, seen in zip(engine.lanes, created):
            on_create = lane.ledger.on_create
            lane.ledger.on_create = (
                lambda m, seen=seen, on_create=on_create: (seen.append(m), on_create(m)))
        engine.run("ttl", values)
        assert created[0] and all(len(c) == len(created[0]) for c in created)
        for first, *others in zip(*created):
            assert all(m is first for m in others)

    @pytest.mark.parametrize("override", [
        {"seed": 6}, {"router": "epidemic"}, {"energy": EnergyParams(gamma=0.9)},
        {"charge_handshake_bytes": True}],
        ids=["seed", "router", "energy", "charge"])
    def test_lanes_must_share_the_contact_layer(self, override):
        sc = mini_scenario()
        trace = build_trace(sc)
        ReplayEngine([sc, sc.with_overrides(buffer_bytes=MB, ttl_min=30.0)], trace)
        other = sc.with_overrides(buffer_bytes=MB, ttl_min=30.0, **override)
        with pytest.raises(ValueError, match="differ only in buffer_bytes and ttl_min"):
            ReplayEngine([sc, other], trace)

    def test_one_axis_value_and_event_list_per_lane(self):
        sc = mini_scenario()
        trace = build_trace(sc)
        with pytest.raises(ValueError, match="at least one"):
            ReplayEngine([], trace)
        with pytest.raises(ValueError, match="event list"):
            ReplayEngine([sc, sc], trace, [None])
        with pytest.raises(ValueError, match="axis value"):
            ReplayEngine([sc, sc], trace).run("buffer", [3.0])


# ---------------------------------------------------------------------------
# whole replays against the foremost-journey oracle
# ---------------------------------------------------------------------------

JOURNEY_BASES = ("mini", "slow-link", "desk-1", "desk-2")
JOURNEY_MODES = ("gossip", "instant", "off", "forward-and-delete", "charged")


@functools.lru_cache(maxsize=None)
def journey_case(base):
    """A base scenario (the golden runs' two, or the desk preset at 12,000 s
    on seed 1 or 2), its trace and the trace's foremost-journey times."""
    if base.startswith("desk-"):
        sc = desk_preset(seed=int(base[5:])).with_overrides(duration=12_000.0)
    else:
        sc = mini_scenario() if base == "mini" else slow_link_scenario()
    trace = build_trace(sc)
    return sc, trace, foremost_journeys(trace)


def delivery_times(scenario, trace):
    """``{msg_id: time}`` of every first delivery in a replay."""
    events = []
    run(scenario, trace=trace, events=events)
    return {x: t for t, kind, _, _, x in events if kind == "deliver"}


class TestForemostJourneys:
    @pytest.mark.parametrize("base", JOURNEY_BASES)
    def test_unlimited_epidemic_delivers_at_the_foremost_times(self, base):
        """With room for every copy, time for every transfer, no TTL and no
        delivery notices, flooding is the foremost journey itself."""
        sc, trace, foremost = journey_case(base)
        unlimited = sc.with_overrides(
            router="epidemic", antipacket_mode="off", buffer_bytes=10 ** 15,
            ttl_min=1e9, groups=tuple(replace(g, link_rate_bps=1e18)
                                      for g in sc.groups))
        assert foremost
        assert delivery_times(unlimited, trace) == foremost

    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("base", JOURNEY_BASES)
    def test_no_delivery_beats_the_foremost_journey(self, base, router):
        """Whatever the resources, a router delivers only messages a journey
        reaches, and none before the journey's time."""
        sc, trace, foremost = journey_case(base)
        for mode in JOURNEY_MODES:
            got = delivery_times(with_mode(sc, mode).with_overrides(router=router),
                                 trace)
            assert got, mode
            early = {mid: (t, foremost.get(mid)) for mid, t in got.items()
                     if mid not in foremost or t < foremost[mid]}
            assert early == {}, mode


class TestInterestRelabelling:
    """A metamorphic relation (Chen, Cheung and Yiu, HKUST-CS98-01, 1998):
    routers read communities only through equality, so renaming them
    changes what goes on the wire and nothing else."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_permuted_labels_change_only_frame_bytes(self, seed):
        sc, trace, _ = journey_case(f"desk-{seed}")
        relabelled = replace(trace, interests=np.array([2, 0, 1])[trace.interests])
        assert not np.array_equal(relabelled.interests, trace.interests)
        for router in ROUTERS:
            scenario = sc.with_overrides(router=router)
            runs = []
            for tr in (trace, relabelled):
                events = []
                report = run(scenario, trace=tr, events=events)
                runs.append((report.to_dict(),
                             [e if e[1] != "frame" else (*e[:4], len(e[4]))
                              for e in events]))
            assert runs[0] == runs[1], router


class TestSweep:
    def test_single_value_single_report(self):
        reports = run_sweep(mini_scenario(), ["prif"], "buffer", [3.0], [5])
        assert len(reports) == 1
        assert reports[0].axis == "buffer" and reports[0].axis_value == 3.0

    def test_row_counts_and_order(self):
        reports = run_sweep(mini_scenario(), ["prif"], "buffer", [1.0, 3.0],
                            [5, 6, 7])
        assert len(reports) == 6
        keys = [(r.axis_value, r.seed) for r in reports]
        assert keys == sorted(keys)

    def test_ttl_axis_reuses_trace_consistently(self):
        reports = run_sweep(mini_scenario(), ["prif", "epidemic"], "ttl",
                            [600.0], [5])
        assert [r.router for r in reports] == ["epidemic", "prif"]
        for r1 in reports:
            r2 = run(apply_axis(mini_scenario(), "ttl", 600.0).with_overrides(
                seed=5, router=r1.router), axis="ttl", axis_value=600.0)
            assert r1.to_dict() == r2.to_dict()

    @pytest.mark.parametrize("axis,values,replays", [
        ("buffer", [0.6, 3.0], 2), ("ttl", [8.0, 600.0], 2),
        ("time", [1500.0, 2000.0], 4)])
    def test_one_replay_per_router_and_seed(self, monkeypatch, axis, values,
                                            replays):
        """Buffer and TTL values are lanes of one replay per router; time
        values replay one by one.  Each report equals a run of its own."""
        lanes = []
        replay = ReplayEngine.run

        def counted(self, *args, **kw):
            lanes.append(len(self.lanes))
            return replay(self, *args, **kw)

        monkeypatch.setattr(ReplayEngine, "run", counted)
        sc = mini_scenario(duration=2000.0)
        reports = run_sweep(sc, ["prif", "epidemic"], axis, values, [5])
        assert len(lanes) == replays and sum(lanes) == len(reports) == 4
        monkeypatch.setattr(ReplayEngine, "run", replay)
        for r in reports:
            alone = run(apply_axis(sc, axis, r.axis_value).with_overrides(
                seed=5, router=r.router), axis=axis, axis_value=r.axis_value)
            assert r.to_dict() == alone.to_dict()

    @pytest.mark.parametrize("routers,values,seeds", [
        (["prif", "prif"], [3.0], [5]), (["prif"], [3.0, 3.0], [5]),
        (["prif"], [3.0], [5, 6, 5]), (["prif"], [2.0, 2.0000001], [5])],
        ids=["router", "value", "seed", "value-printed-alike"])
    def test_duplicates_rejected(self, routers, values, seeds):
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(mini_scenario(), routers, "buffer", values, seeds)

    def test_time_axis_changes_duration(self):
        reports = run_sweep(mini_scenario(), ["prif"], "time", [1000.0, 4000.0], [5])
        assert reports[0].created < reports[1].created

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            run_sweep(mini_scenario(), ["prif"], "voltage", [1.0], [5])

    def test_parallel_workers_match_sequential(self):
        args = (mini_scenario(), ["prif"], "buffer", [1.0, 3.0], [5, 6])
        seq = [r.to_dict() for r in run_sweep(*args, jobs=1)]
        par = [r.to_dict() for r in run_sweep(*args, jobs=2)]
        assert seq == par

    def test_jobs_below_one_rejected(self, pool_sizes):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(mini_scenario(), ["prif"], "buffer", [3.0], [5], jobs=0)
        assert pool_sizes == []

    @pytest.mark.parametrize("jobs,seeds,expected", [
        (64, [5], []), (64, [5, 6], [2]), (2, [5, 6, 7], [2])])
    def test_pool_never_larger_than_seed_count(self, pool_sizes, jobs, seeds,
                                               expected):
        sc = mini_scenario(duration=1000.0)
        reports = run_sweep(sc, ["prif"], "buffer", [3.0], seeds, jobs=jobs)
        assert pool_sizes == expected
        assert [r.seed for r in reports] == seeds


class TestPaperScale:
    def test_paper_preset_runs_at_short_horizon(self):
        # full-population geometry (166 nodes, 10 m radios) on a short clock
        sc = paper_preset(seed=4).with_overrides(duration=3000.0, warmup=200.0)
        rep = run(sc)
        assert rep.created > 0
        parts = (rep.delivered + rep.expired + rep.dropped
                 + rep.buffered_at_end + rep.rejected)
        assert parts == rep.created


class TestProtocolScale:
    def test_2048_bit_desk_run_matches_toy(self, monkeypatch):
        """Group authentication at protocol scale decides the same contacts
        as the toy group, so the report is the same."""
        from prif import auth
        bits = []
        handshake = auth.run_mutual_handshake

        def recorded(*args):
            bits.append(args[6].p.bit_length())
            return handshake(*args)

        monkeypatch.setattr(auth, "run_mutual_handshake", recorded)
        reports = {}
        for crypto in ("toy", "2048"):
            sc = desk_preset().with_overrides(crypto=crypto, warmup=0.0,
                                              duration=1500.0)
            reports[crypto] = json.dumps(run(sc).to_dict(), sort_keys=True)
        assert reports["2048"] == reports["toy"]
        assert json.loads(reports["toy"])["relayed"] > 0
        half = len(bits) // 2
        assert half > 0 and bits == [5] * half + [2048] * half
