"""Independent straight-line re-implementations used as test oracles.

These deliberately re-derive the update recurrences from scratch (explicit
scalar loops over event scripts) instead of reusing any table machinery, so
they can catch bookkeeping mistakes in the incremental implementations.
The all-pairs contact scan is the reference the culled kernel must match.
``positions_at`` samples leg arrays at arbitrary times for kernel tests.
"""

import math

import numpy as np

from prif.sim import kernels


def inter_script_oracle(contacts, alpha, gamma, window, read_time):
    """Effective inter energy after a script of (start, end) contacts.

    First observation: duration over time-from-start; later ones: duration
    over gap between consecutive encounter ends.  Decay by gamma per whole
    window, window phase anchored at the first encounter end.
    """
    prev = cur = 0.0
    aged_at = None
    last_end = 0.0
    for start, end in contacts:
        if aged_at is None:
            aged_at = end
        else:
            k = math.floor((end - aged_at) / window)
            if k > 0:
                f = gamma ** k
                prev *= f
                cur *= f
                aged_at += k * window
        raw = (end - start) / (end - last_end)
        prev, cur = cur, raw
        last_end = end
    if aged_at is not None:
        k = math.floor((read_time - aged_at) / window)
        if k > 0:
            f = gamma ** k
            prev *= f
            cur *= f
    return alpha * prev + (1.0 - alpha) * cur


def intra_script_oracle(times, beta, gamma, window, read_time):
    """Effective intra energy after encounters at the given times."""
    prev = cur = 0.0
    aged_at = None
    first = None
    count = 0
    for t in times:
        if aged_at is None:
            aged_at = t
            first = t
        else:
            k = math.floor((t - aged_at) / window)
            if k > 0:
                f = gamma ** k
                prev *= f
                cur *= f
                aged_at += k * window
        count += 1
        prev, cur = cur, count / max(t - first, window)
    if aged_at is not None:
        k = math.floor((read_time - aged_at) / window)
        if k > 0:
            f = gamma ** k
            prev *= f
            cur *= f
    return beta * prev + (1.0 - beta) * cur


def transitive_oracle(old, e_via, e_reported):
    """Closed-form single transitive strengthening step."""
    return old + (1.0 - old) * e_via * e_reported


def forwarding_reference(peer_is_dest, carrier_comm, peer_comm, dest_comm,
                         inter_carrier_dest, inter_peer_dest,
                         intra_carrier_dest, intra_peer_dest):
    """Straight-line transcription of the forwarding branch structure."""
    if peer_is_dest:
        return "deliver"
    if carrier_comm == dest_comm:
        if peer_comm == dest_comm and inter_carrier_dest < inter_peer_dest:
            return "relay"
        return "hold"
    if peer_comm == dest_comm:
        return "relay"
    if intra_carrier_dest < intra_peer_dest:
        return "relay"
    return "hold"


def all_pairs_transitions(pos, minr2, adj, chunk=64):
    """Contact transitions by testing every pair at every tick.

    Reference for ``prif.sim.kernels.transitions``: squared distance of
    every pair against ``minr2`` at every tick, returning (tick_idx, i, j,
    started, final_adjacency) in (tick, i, j) order.
    """
    n_ticks, n_nodes, _ = pos.shape
    iu = np.triu(np.ones((n_nodes, n_nodes), dtype=bool), k=1)
    parts_t, parts_i, parts_j, parts_k = [], [], [], []
    prev = adj.copy()
    for c0 in range(0, n_ticks, chunk):
        block = pos[c0:c0 + chunk]
        dx = block[:, :, None, 0] - block[:, None, :, 0]
        dy = block[:, :, None, 1] - block[:, None, :, 1]
        within = (dx * dx + dy * dy <= minr2) & iu
        seq = np.concatenate([prev[None], within], axis=0)
        changed = seq[1:] != seq[:-1]
        tt, ii, jj = np.nonzero(changed)
        parts_t.append(tt + c0)
        parts_i.append(ii)
        parts_j.append(jj)
        parts_k.append(within[tt, ii, jj])
        prev = within[-1] if len(within) else prev
    return (np.concatenate(parts_t), np.concatenate(parts_i),
            np.concatenate(parts_j), np.concatenate(parts_k), prev)


def positions_at(legs, times):
    """Positions of every node at the given time(s): (T, N, 2) or (N, 2)."""
    scalar = np.isscalar(times)
    ticks = np.atleast_1d(np.asarray(times, dtype=np.float64))
    out = kernels.positions(legs.leg_off, legs.t0, legs.x0, legs.y0,
                            legs.x1, legs.y1, legs.vx, legs.vy,
                            legs.tarr, ticks)
    return out[0] if scalar else out
