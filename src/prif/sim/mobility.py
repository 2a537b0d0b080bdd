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
    other nodes exist.  Each node draws start x, start y, then per leg
    waypoint x, waypoint y, speed, pause, in batches of 16, 32, 64, ...
    legs until one ends past the horizon; that leg is its last.  The draws
    stay per node, in that order and those batch sizes; only the arithmetic
    on them runs once per round for every node still short of the horizon.

    ``lo + span * u`` over ``rng.random`` is the float ``rng.uniform(lo,
    hi)`` gives for the same draw, and ``np.add.accumulate`` adds left to
    right along each node's row, so the times equal ``t = t + travel +
    pause`` leg by leg.
    """
    width, height = area
    n_nodes = speed_lo.shape[0]
    rngs = [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(n_nodes)]
    # the start point and the first batch in one draw per node; the start
    # is ``rng.uniform(0, side)``, which is ``side * u`` for the same draw
    first = np.stack([r.random(2 + 4 * _FIRST_BATCH) for r in rngs])
    x, y = (np.array([width, height]) * first[:, :2]).T
    u = first[:, 2:].reshape(n_nodes, _FIRST_BATCH, 4)
    t = np.zeros(n_nodes)
    zero = np.zeros(n_nodes)
    lo = np.stack((zero, zero, speed_lo, pause_lo), axis=1)
    span = np.stack((zero + width, zero + height, speed_hi, pause_hi), axis=1) - lo
    node = np.arange(n_nodes)      # nodes whose last leg is still to come
    owners: list[np.ndarray] = []
    parts: list[list[np.ndarray]] = []
    batch = _FIRST_BATCH
    while True:
        wx, wy, v, pause = np.moveaxis(lo[node, None] + span[node, None] * u, 2, 0)
        x0 = np.concatenate((x[:, None], wx[:, :-1]), axis=1)
        y0 = np.concatenate((y[:, None], wy[:, :-1]), axis=1)
        dx, dy = wx - x0, wy - y0
        dist = list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()))
        travel = np.reshape(dist, dx.shape) / v
        moving = travel > 0.0
        vx = np.divide(dx, travel, out=np.zeros_like(dx), where=moving)
        vy = np.divide(dy, travel, out=np.zeros_like(dy), where=moving)
        steps = np.empty((node.size, 2 * batch + 1))
        steps[:, 0] = t
        steps[:, 1::2] = travel
        steps[:, 2::2] = pause
        clock = np.add.accumulate(steps, axis=1)
        t_end = clock[:, 2::2]
        past = t_end > duration
        done = past.any(axis=1)
        n_legs = np.where(done, past.argmax(axis=1) + 1, batch)
        kept = np.arange(batch) < n_legs[:, None]
        owners.append(np.repeat(node, n_legs))
        parts.append([c[kept] for c in (clock[:, 0:-1:2], x0, y0, wx, wy,
                                         vx, vy, clock[:, 1::2])])
        go = ~done
        node, x, y, t = node[go], wx[go, -1], wy[go, -1], t_end[go, -1]
        if not node.size:
            break
        batch *= 2
        u = np.stack([rngs[n].random((batch, 4)) for n in node.tolist()])
    # rounds hold each node's legs in order; a stable sort makes them CSR
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    leg_off = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_nodes), out=leg_off[1:])
    return LegArrays(leg_off, *(np.concatenate(c)[order] for c in zip(*parts)))


def min_range_matrix(radio_range: np.ndarray) -> np.ndarray:
    """Squared pairwise thresholds: contact while dist <= min of the ranges."""
    mins = np.minimum(radio_range[:, None], radio_range[None, :])
    return (mins * mins).astype(np.float64)
