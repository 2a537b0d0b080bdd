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
    other nodes exist.  Draw order per leg is waypoint x, waypoint y,
    speed, pause.
    """
    width, height = area
    n_nodes = speed_lo.shape[0]
    streams = np.random.SeedSequence(seed).spawn(n_nodes)
    offs = [0]
    cols: dict[str, list[float]] = {k: [] for k in
                                    ("t0", "x0", "y0", "x1", "y1", "vx", "vy", "tarr")}
    for n in range(n_nodes):
        rng = np.random.default_rng(streams[n])
        x = rng.uniform(0.0, width)
        y = rng.uniform(0.0, height)
        t = 0.0
        while True:
            wx = rng.uniform(0.0, width)
            wy = rng.uniform(0.0, height)
            v = rng.uniform(speed_lo[n], speed_hi[n])
            dist = math.hypot(wx - x, wy - y)
            travel = dist / v
            if travel > 0.0:
                lvx = (wx - x) / travel
                lvy = (wy - y) / travel
            else:
                lvx = lvy = 0.0
            pause = rng.uniform(pause_lo[n], pause_hi[n])
            cols["t0"].append(t)
            cols["x0"].append(x)
            cols["y0"].append(y)
            cols["x1"].append(wx)
            cols["y1"].append(wy)
            cols["vx"].append(lvx)
            cols["vy"].append(lvy)
            cols["tarr"].append(t + travel)
            t = t + travel + pause
            x, y = wx, wy
            if t > duration:
                break
        offs.append(len(cols["t0"]))
    return LegArrays(leg_off=np.asarray(offs, dtype=np.int64),
                     t0=np.asarray(cols["t0"]), x0=np.asarray(cols["x0"]),
                     y0=np.asarray(cols["y0"]), x1=np.asarray(cols["x1"]),
                     y1=np.asarray(cols["y1"]), vx=np.asarray(cols["vx"]),
                     vy=np.asarray(cols["vy"]), tarr=np.asarray(cols["tarr"]))


def min_range_matrix(radio_range: np.ndarray) -> np.ndarray:
    """Squared pairwise thresholds: contact while dist <= min of the ranges."""
    mins = np.minimum(radio_range[:, None], radio_range[None, :])
    return (mins * mins).astype(np.float64)
