"""Hot numeric kernels: waypoint position interpolation and contact scanning.

Positions are piecewise-linear in time: each itinerary leg starts at
(x0, y0) at t0, moves with velocity (vx, vy) until ``tarr``, then sits at
the waypoint (x1, y1) until the next leg starts.  Contact scanning compares
squared pairwise distances against the squared pairwise minimum radio range
every tick and emits adjacency transitions.  It culls pairs per block of
ticks with node bounding boxes and tests only the survivors, with the same
float expression an all-pairs scan uses, so its output is bit-identical to
testing every pair at every tick.

``transitions`` takes the (T, N, 2) array ``positions`` returns, not the
two planes, because the benchmark's tracer counts pair-ticks from its first
argument's shape.
"""

from __future__ import annotations

import numpy as np

# Read by the benchmark's environment report; there is one (numpy) path.
USE_NUMBA = False

# Extra reach on the box test.  Box gaps never exceed the true per-tick
# distances (rounding is monotonic), so none is needed; it is margin only.
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-6

# Node-ticks per vectorised group in ``positions``: large enough to amortise
# numpy's per-call cost, small enough to stay in cache.
_GROUP_ELEMS = 65_536


def positions(leg_off: np.ndarray, leg_t0: np.ndarray,
              leg_x0: np.ndarray, leg_y0: np.ndarray,
              leg_x1: np.ndarray, leg_y1: np.ndarray,
              leg_vx: np.ndarray, leg_vy: np.ndarray,
              leg_tarr: np.ndarray, ticks: np.ndarray) -> np.ndarray:
    """(T, N, 2) positions at the given (ascending) times.

    A node is on its last leg starting at or before the tick (its first leg
    for earlier ticks), so each leg covers a run of consecutive ticks.  The
    legs' values are repeated over their runs for a few nodes at a time and
    evaluated with the per-tick expression, which gives the same floats as
    looking the leg up tick by tick.  The array is a view of two (T, N)
    planes, so ``out[:, :, 0]`` (x) and ``out[:, :, 1]`` (y) are each
    C-contiguous and ``transitions`` reads them without a copy.
    """
    n_nodes = leg_off.shape[0] - 1
    n_ticks = ticks.shape[0]
    out = np.empty((2, n_ticks, n_nodes))
    xs, ys = out
    # leg l covers its node's ticks [first[l], end[l])
    first = np.searchsorted(ticks, leg_t0, side="left")
    end = np.empty_like(first)
    end[:-1] = first[1:]
    end[leg_off[1:] - 1] = n_ticks
    first[leg_off[:-1]] = 0
    runs = end - first
    group = max(1, _GROUP_ELEMS // max(n_ticks, 1))
    for g in range(0, n_nodes, group):
        h = min(g + group, n_nodes)
        lo, hi = leg_off[g], leg_off[h]
        reps = runs[lo:hi]

        def per_tick(col: np.ndarray) -> np.ndarray:
            return np.repeat(col[lo:hi], reps)

        t = np.tile(ticks, h - g)
        parked = t >= per_tick(leg_tarr)
        dt = np.subtract(t, per_tick(leg_t0), out=t)
        for plane, x0, v, x1 in ((xs, leg_x0, leg_vx, leg_x1),
                                 (ys, leg_y0, leg_vy, leg_y1)):
            # x0 + v * dt while moving (addition commutes exactly), else x1
            x = np.multiply(per_tick(v), dt)
            x += per_tick(x0)
            np.copyto(x, per_tick(x1), where=parked)
            plane[:, g:h] = x.reshape(h - g, n_ticks).T
    return out.transpose(1, 2, 0)


def transitions(pos: np.ndarray, minr2: np.ndarray, adj: np.ndarray,
                chunk: int = 64) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                          np.ndarray, np.ndarray]:
    """Adjacency transitions over the ticks of ``pos``.

    Returns (tick_idx, i, j, started, final_adjacency) in (tick, i, j)
    order; ``adj`` is the upper-triangular adjacency before the first tick.
    Per block of ``chunk`` ticks, a pair is tested only if it is adjacent
    at the block's start or the nodes' bounding boxes over the block come
    within the pair's range plus slack; no other pair can be in range at
    any tick of the block.  The boxes' x gap is checked over all pairs
    first and the full box test runs on the pairs that pass it.  That cull
    is conservative too: a pair in range at a tick is at most its range
    apart in x then, and ``reach`` exceeds the range by the slack.
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
        near = np.flatnonzero((xlo[pj] - xhi[pi] <= reach)
                              & (xlo[pi] - xhi[pj] <= reach) | prev)
        a, b = pi[near], pj[near]
        gx = np.maximum(np.maximum(xlo[b] - xhi[a], xlo[a] - xhi[b]), 0.0)
        gy = np.maximum(np.maximum(ylo[b] - yhi[a], ylo[a] - yhi[b]), 0.0)
        cand = near[(gx * gx + gy * gy <= reach2[near]) | prev[near]]
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
