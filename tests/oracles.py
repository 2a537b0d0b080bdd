"""Independent straight-line re-implementations used as test oracles.

These deliberately re-derive the update recurrences from scratch (explicit
scalar loops over event scripts) instead of reusing any table machinery, so
they can catch bookkeeping mistakes in the incremental implementations.
The all-pairs contact scan is the reference the culled kernel must match;
the per-leg itinerary loop, the per-node position fill and the set-and-sort
buffer are the references for the batched, plane-backed and heap-backed
versions.  ``positions_at`` samples leg arrays at arbitrary times for kernel
tests.
"""

import math

import numpy as np

from prif.model import message_is_expired
from prif.sim import kernels, mobility


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


def reference_itineraries(area, speed_lo, speed_hi, pause_lo, pause_hi,
                          duration, seed):
    """``mobility.build_itineraries`` one scalar draw and one leg at a time."""
    width, height = area
    n_nodes = speed_lo.shape[0]
    streams = np.random.SeedSequence(seed).spawn(n_nodes)
    offs = [0]
    cols = {k: [] for k in ("t0", "x0", "y0", "x1", "y1", "vx", "vy", "tarr")}
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
    return mobility.LegArrays(np.asarray(offs, dtype=np.int64),
                              *(np.asarray(cols[k]) for k in cols))


def reference_positions(legs, ticks):
    """``kernels.positions`` into a plain (T, N, 2) array, node by node."""
    n_nodes = legs.n_nodes
    out = np.empty((ticks.shape[0], n_nodes, 2), dtype=np.float64)
    for n in range(n_nodes):
        lo, hi = legs.leg_off[n], legs.leg_off[n + 1]
        idx = np.searchsorted(legs.t0[lo:hi], ticks, side="right") - 1
        idx[idx < 0] = 0
        base = lo + idx
        dt = ticks - legs.t0[base]
        moving = ticks < legs.tarr[base]
        out[:, n, 0] = np.where(moving, legs.x0[base] + legs.vx[base] * dt,
                                legs.x1[base])
        out[:, n, 1] = np.where(moving, legs.y0[base] + legs.vy[base] * dt,
                                legs.y1[base])
    return out


class SetBufferNode:
    """A router's buffer and delivery knowledge kept the plain way: an
    insertion-ordered dict scanned for expiry, a full sort for oldest-first
    eviction, and a set of delivered ids.  Reference for ``Buffer`` and the
    ``Router`` admission, schedule filter and anti-packet methods."""

    def __init__(self, node, capacity_bytes):
        self.node = node
        self.capacity_bytes = capacity_bytes
        self.msgs = {}
        self.delivered_ids = set()

    def used_bytes(self):
        return sum(m.size_bytes for m in self.msgs.values())

    def pop_expired(self, now):
        dead = [m for m in self.msgs.values() if message_is_expired(m, now)]
        for m in dead:
            del self.msgs[m.msg_id]
        return dead

    def admit(self, m, now):
        purged = self.pop_expired(now)
        if m.size_bytes > self.capacity_bytes:
            return False, [], purged
        evicted = []
        for victim in sorted(self.msgs.values(),
                             key=lambda v: (v.created_at, v.msg_id)):
            if self.used_bytes() + m.size_bytes <= self.capacity_bytes:
                break
            del self.msgs[victim.msg_id]
            evicted.append(victim)
        self.msgs[m.msg_id] = m
        return True, evicted, purged

    def drop_copy(self, msg_id):
        return self.msgs.pop(msg_id)

    def candidates(self, peer, now):
        """The schedule filter: live, not held by the peer, not known
        delivered on either side; buffer order."""
        return [m for m in self.msgs.values()
                if not message_is_expired(m, now)
                and m.msg_id not in peer.msgs
                and m.msg_id not in peer.delivered_ids
                and m.msg_id not in self.delivered_ids]

    def mark_delivered(self, msg_id):
        self.delivered_ids.add(msg_id)
        return self.msgs.pop(msg_id, None)

    def exchange_antipackets(self, other):
        union = self.delivered_ids | other.delivered_ids
        self.delivered_ids = union
        other.delivered_ids = set(union)
        dropped_self = [self.msgs.pop(mid) for mid in sorted(union & set(self.msgs))]
        dropped_other = [other.msgs.pop(mid) for mid in sorted(union & set(other.msgs))]
        return dropped_self, dropped_other
