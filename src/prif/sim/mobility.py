"""Random-waypoint itineraries for heterogeneous node classes.

Each node independently walks: pick a uniform waypoint in the area, move
toward it in a straight line at a speed sampled from its class range, pause
there for a sampled wait, repeat.  The whole itinerary for a run is built
up front (it depends only on the mobility seed), flattened into leg arrays,
and evaluated by the kernels in :mod:`prif.sim.kernels`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# Legs drawn per node in the first batch; each further batch doubles.
_FIRST_BATCH = 16


@dataclass
class LegArrays:
    """Flattened per-node itineraries (CSR layout over legs)."""

    leg_off: np.ndarray   # int64[N + 1]
    t0: np.ndarray        # float64[L] leg start
    x0: np.ndarray
    y0: np.ndarray
    x1: np.ndarray        # waypoint
    y1: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    tarr: np.ndarray      # arrival at waypoint

    @property
    def n_nodes(self) -> int:
        return self.leg_off.shape[0] - 1


def build_itineraries(area: tuple[float, float],
                      speed_lo: np.ndarray, speed_hi: np.ndarray,
                      pause_lo: np.ndarray, pause_hi: np.ndarray,
                      duration: float, seed: int) -> LegArrays:
    """Sample every node's itinerary covering [0, duration].

    Per-node child streams keep one node's path independent of how many
    other nodes exist.  Draw order is start x, start y, then per leg
    waypoint x, waypoint y, speed, pause.
    """
    width, height = area
    n_nodes = speed_lo.shape[0]
    streams = np.random.SeedSequence(seed).spawn(n_nodes)
    offs = [0]
    parts: list[list[np.ndarray]] = []
    for n in range(n_nodes):
        rng = np.random.default_rng(streams[n])
        x = rng.uniform(0.0, width)
        y = rng.uniform(0.0, height)
        lo = np.array([0.0, 0.0, speed_lo[n], pause_lo[n]])
        span = np.array([width, height, speed_hi[n], pause_hi[n]]) - lo
        t = 0.0
        batch = _FIRST_BATCH
        n_legs = 0
        while True:
            *cols, t_end = _leg_batch(rng, batch, lo, span, x, y, t)
            past = np.flatnonzero(t_end > duration)
            if past.shape[0]:
                # the first leg ending past the horizon is the last one
                parts.append([c[:past[0] + 1] for c in cols])
                n_legs += int(past[0]) + 1
                break
            parts.append(cols)
            n_legs += batch
            x, y, t = float(cols[3][-1]), float(cols[4][-1]), float(t_end[-1])
            batch *= 2
        offs.append(offs[-1] + n_legs)
    return LegArrays(np.asarray(offs, dtype=np.int64),
                     *(np.concatenate(c) for c in zip(*parts)))


def _leg_batch(rng: np.random.Generator, k: int, lo: np.ndarray,
               span: np.ndarray, x: float, y: float,
               t: float) -> tuple[np.ndarray, ...]:
    """The next ``k`` legs from (x, y) at time t: the LegArrays columns
    t0 .. tarr, then each leg's end (arrival plus pause), where the next
    leg starts.

    ``lo + span * u`` over ``rng.random`` is the float ``rng.uniform(lo,
    hi)`` gives for the same draw, and ``np.add.accumulate`` adds left to
    right, so the times equal ``t = t + travel + pause`` leg by leg.
    """
    wx, wy, v, pause = (lo + span * rng.random((k, 4))).T
    x0 = np.concatenate(([x], wx[:-1]))
    y0 = np.concatenate(([y], wy[:-1]))
    dx, dy = wx - x0, wy - y0
    dist = np.array([math.hypot(a, b) for a, b in zip(dx.tolist(), dy.tolist())])
    travel = dist / v
    moving = travel > 0.0
    vx = np.divide(dx, travel, out=np.zeros(k), where=moving)
    vy = np.divide(dy, travel, out=np.zeros(k), where=moving)
    steps = np.empty(2 * k + 1)
    steps[0] = t
    steps[1::2] = travel
    steps[2::2] = pause
    clock = np.add.accumulate(steps)
    return (clock[0:-1:2], x0, y0, wx, wy, vx, vy, clock[1::2], clock[2::2])


def min_range_matrix(radio_range: np.ndarray) -> np.ndarray:
    """Squared pairwise thresholds: contact while dist <= min of the ranges."""
    mins = np.minimum(radio_range[:, None], radio_range[None, :])
    return (mins * mins).astype(np.float64)
