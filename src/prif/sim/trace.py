"""Router-independent run material: contact trace plus message plan.

Mobility, contact detection and the traffic schedule depend only on the
scenario geometry, traffic, duration and seed, never on the router, buffer
or TTL.  ``engine.run_sweep`` therefore builds one read-only trace per seed
and replays it for every router and buffer or TTL value.  A time sweep
rebuilds it per value: ``build_plan`` draws destinations after the arrival
loop, so a shorter run's plan is not a prefix of a longer one's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model import ContactEvent
from . import kernels, mobility
from .scenario import Scenario

_STREAM_INTERESTS = 1
_STREAM_MOBILITY = 2
_STREAM_MESSAGES = 3
_STREAM_CRYPTO = 4

_N_STREAMS = 8


def stream_seed(seed: int, stream: int) -> int:
    """Disjoint derived seeds: one master seed, one sub-stream per concern."""
    return seed * _N_STREAMS + stream


@dataclass(frozen=True)
class MessagePlan:
    msg_id: int
    t: float
    source: int
    destination: int
    size_bytes: int
    token: bytes
    nonce: bytes


@dataclass(frozen=True)
class ContactTrace:
    duration: float
    interests: np.ndarray                # node -> community index
    contacts: tuple[ContactEvent, ...]   # ordered by (start, pair discovery)
    plan: tuple[MessagePlan, ...]
    n_truncated: int                     # contacts cut off by end of run


def assign_interests(scenario: Scenario) -> np.ndarray:
    """Interest community per node.

    Regular nodes draw uniformly over the configured interest set.  Buses
    (groups that do not generate traffic) do the same by default, or form
    their own extra community when ``bus_community_mode`` is ``own``.
    """
    rng = np.random.default_rng(stream_seed(scenario.seed, _STREAM_INTERESTS))
    out = rng.integers(0, scenario.interests, size=scenario.n_nodes)
    if scenario.bus_community_mode == "own":
        gi = scenario.node_group_index()
        gen = np.array([g.generates_messages for g in scenario.groups])
        out = np.where(gen[gi], out, scenario.interests)
    return out.astype(np.int64)


def build_contacts(scenario: Scenario) -> tuple[list[ContactEvent], int]:
    """Tick-sampled contact intervals from the waypoint mobility.

    A contact opens at the first tick two nodes sit within the smaller of
    their radio ranges and closes at the first tick they do not; contacts
    still open at the end of the run are truncated there.
    """
    speed_lo, speed_hi = scenario.per_node_range("speed_range")
    pause_lo, pause_hi = scenario.per_node_range("pause_range")
    legs = mobility.build_itineraries(
        scenario.area, speed_lo, speed_hi, pause_lo, pause_hi,
        scenario.duration, stream_seed(scenario.seed, _STREAM_MOBILITY))
    minr2 = mobility.min_range_matrix(scenario.per_node("radio_range"))

    dt = scenario.mobility_dt
    n_ticks = int(np.floor(scenario.duration / dt)) + 1
    adj = np.zeros((scenario.n_nodes, scenario.n_nodes), dtype=bool)
    open_since: dict[tuple[int, int], float] = {}
    contacts: list[ContactEvent] = []

    block = 8192
    for b0 in range(0, n_ticks, block):
        ticks = (np.arange(b0, min(b0 + block, n_ticks), dtype=np.float64)) * dt
        pos = kernels.positions(legs.leg_off, legs.t0, legs.x0, legs.y0,
                                legs.x1, legs.y1, legs.vx, legs.vy,
                                legs.tarr, ticks)
        tt, ii, jj, started, adj = kernels.transitions(pos, minr2, adj)
        del pos   # freed before the next block is allocated: one block at a time
        for k in range(tt.shape[0]):
            t = float(ticks[tt[k]])
            pair = (int(ii[k]), int(jj[k]))
            if started[k]:
                open_since[pair] = t
            else:
                contacts.append(ContactEvent(pair[0], pair[1],
                                             open_since.pop(pair), t))
    n_truncated = 0
    for pair, t_start in sorted(open_since.items()):
        if t_start < scenario.duration:
            contacts.append(ContactEvent(pair[0], pair[1], t_start, scenario.duration))
            n_truncated += 1
    contacts.sort(key=lambda c: (c.start, c.a, c.b))
    return contacts, n_truncated


def build_plan(scenario: Scenario, interests: np.ndarray) -> list[MessagePlan]:
    """Traffic schedule: one uniform inter-arrival process after warmup
    (default), or one process per generating node when ``arrival_mode`` is
    per-node.  Sources draw from generating nodes, destinations uniformly
    over everyone else."""
    rng = np.random.default_rng(stream_seed(scenario.seed, _STREAM_MESSAGES))
    generators = scenario.generating_nodes()
    lo, hi = scenario.message_interval
    n = scenario.n_nodes

    arrivals: list[tuple[float, int]] = []
    if scenario.arrival_mode == "global":
        t = scenario.warmup
        while True:
            t = t + rng.uniform(lo, hi)
            if t > scenario.duration:
                break
            src = int(generators[rng.integers(0, len(generators))])
            arrivals.append((float(t), src))
    else:
        for src in generators.tolist():
            t = scenario.warmup
            while True:
                t = t + rng.uniform(lo, hi)
                if t > scenario.duration:
                    break
                arrivals.append((float(t), int(src)))
        arrivals.sort()

    slo, shi = scenario.message_size
    plan: list[MessagePlan] = []
    for msg_id, (t, src) in enumerate(arrivals):
        d = int(rng.integers(0, n - 1))
        if d >= src:
            d += 1
        size = int(rng.integers(slo, shi + 1))
        token = rng.bytes(scenario.payload_token_bytes)
        nonce = rng.bytes(12)
        plan.append(MessagePlan(msg_id=msg_id, t=t, source=src,
                                destination=d, size_bytes=size,
                                token=token, nonce=nonce))
    return plan


def build_trace(scenario: Scenario) -> ContactTrace:
    scenario.validate()
    interests = assign_interests(scenario)
    contacts, n_truncated = build_contacts(scenario)
    plan = build_plan(scenario, interests)
    interests.flags.writeable = False
    return ContactTrace(duration=scenario.duration, interests=interests,
                        contacts=tuple(contacts), plan=tuple(plan),
                        n_truncated=n_truncated)
