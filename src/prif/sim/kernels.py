"""Hot numeric kernels: waypoint position interpolation and contact scanning.

Positions are piecewise-linear in time: each itinerary leg starts at
(x0, y0) at t0, moves with velocity (vx, vy) until ``tarr``, then sits at
the waypoint (x1, y1) until the next leg starts.  Contact scanning compares
squared pairwise distances against the squared pairwise minimum radio range
every tick and emits adjacency transitions.  It culls pairs per block of
ticks with node bounding boxes and tests only the survivors, with the same
float expression an all-pairs scan uses, so its output is bit-identical to
testing every pair at every tick.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark's environment report; there is one (numpy) path.
USE_NUMBA = False

# Extra reach on the box test.  Box gaps never exceed the true per-tick
# distances (rounding is monotonic), so none is needed; it is margin only.
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-6


def positions(leg_off: np.ndarray, leg_t0: np.ndarray,
              leg_x0: np.ndarray, leg_y0: np.ndarray,
              leg_x1: np.ndarray, leg_y1: np.ndarray,
              leg_vx: np.ndarray, leg_vy: np.ndarray,
              leg_tarr: np.ndarray, ticks: np.ndarray) -> np.ndarray:
    """(T, N, 2) positions at the given times."""
    n_nodes = leg_off.shape[0] - 1
    out = np.empty((ticks.shape[0], n_nodes, 2), dtype=np.float64)
    for n in range(n_nodes):
        lo, hi = leg_off[n], leg_off[n + 1]
        t0 = leg_t0[lo:hi]
        idx = np.searchsorted(t0, ticks, side="right") - 1
        idx[idx < 0] = 0
        base = lo + idx
        dt = ticks - leg_t0[base]
        moving = ticks < leg_tarr[base]
        out[:, n, 0] = np.where(moving, leg_x0[base] + leg_vx[base] * dt, leg_x1[base])
        out[:, n, 1] = np.where(moving, leg_y0[base] + leg_vy[base] * dt, leg_y1[base])
    return out


def transitions(pos: np.ndarray, minr2: np.ndarray, adj: np.ndarray,
                chunk: int = 64) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]:
    """Adjacency transitions over the ticks of ``pos``.

    Returns (tick_idx, i, j, started, final_adjacency) in (tick, i, j)
    order; ``adj`` is the upper-triangular adjacency before the first tick.
    Per block of ``chunk`` ticks, a pair is tested only if it is adjacent
    at the block's start or the nodes' bounding boxes over the block come
    within the pair's range plus slack; no other pair can be in range at
    any tick of the block.
    """
    n_ticks, n_nodes, _ = pos.shape
    pi, pj = np.triu_indices(n_nodes, k=1)
    pair_r2 = minr2[pi, pj]
    reach = np.sqrt(pair_r2) * (1.0 + _REL_SLACK) + _ABS_SLACK
    reach2 = reach * reach
    prev = adj[pi, pj]
    xs = np.ascontiguousarray(pos[:, :, 0])
    ys = np.ascontiguousarray(pos[:, :, 1])
    parts_t: list[np.ndarray] = []
    parts_p: list[np.ndarray] = []
    parts_k: list[np.ndarray] = []
    for c0 in range(0, n_ticks, chunk):
        bx, by = xs[c0:c0 + chunk], ys[c0:c0 + chunk]
        xlo, xhi = bx.min(axis=0), bx.max(axis=0)
        ylo, yhi = by.min(axis=0), by.max(axis=0)
        gx = np.maximum(np.maximum(xlo[pj] - xhi[pi], xlo[pi] - xhi[pj]), 0.0)
        gy = np.maximum(np.maximum(ylo[pj] - yhi[pi], ylo[pi] - yhi[pj]), 0.0)
        cand = np.flatnonzero((gx * gx + gy * gy <= reach2) | prev)
        ci, cj = pi[cand], pj[cand]
        dx = bx[:, ci] - bx[:, cj]
        dy = by[:, ci] - by[:, cj]
        within = dx * dx + dy * dy <= pair_r2[cand]
        seq = np.concatenate([prev[cand][None], within], axis=0)
        tt, kk = np.nonzero(seq[1:] != seq[:-1])
        parts_t.append(tt + c0)
        parts_p.append(cand[kk])
        parts_k.append(within[tt, kk])
        prev[cand] = within[-1]
    final = np.zeros((n_nodes, n_nodes), dtype=bool)
    final[pi, pj] = prev
    if not parts_t:
        return (np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64), np.empty(0, bool), final)
    p = np.concatenate(parts_p)
    return (np.concatenate(parts_t), pi[p], pj[p],
            np.concatenate(parts_k), final)
