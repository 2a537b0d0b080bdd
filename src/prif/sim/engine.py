"""Deterministic replay of a contact trace under one router flavour.

Per contact: mutual setup at contact start (handshake, plaintext announce,
or summary exchange depending on the router); at contact end, delivery
notices, then transfers within the byte budget (link rate times contact
duration per direction), then the energy or predictability updates.
Forwarding decisions therefore always see pre-contact values.

Event order is (time, kind priority) with contact starts before message
creations before contact ends at equal times; remaining ties keep the
trace's own order of contacts and plan entries.

One pass over the event queue can replay several scenarios that differ only
in ``buffer_bytes`` and ``ttl_min``, one *lane* each.  What a contact does
apart from messages never reads message state: the setup and its
``crypto_rng`` draws, the sessions it opens and the energy or predictability
updates.  That is the *contact layer*, kept once: the engine's ``routers``,
``crypto_rng`` and ``active`` contacts.  Each lane is a message layer: one
``Carrier`` per node over that node's router, holding the lane's copies and
delivery knowledge, plus the lane's ledger and event list.  Within a step the
order is a one-lane replay's: a contact start runs the setup once and gives
every lane the same outcome and frames; a contact end runs each lane's
delivery notices and transfers, then the updates once; a creation seals once
and builds the one ``Message`` that every lane and every copy shares.  A
buffered copy is that message and its hop count, and the TTL is the lane's.
So each lane's report and events equal a replay of its scenario alone, and
``run`` is a one-lane replay.

A replay can append its events to a list as ``(t, kind, a, b, x)``: the
``TRACE_KINDS`` of the text trace (``x`` a message id), ``decide`` (``x`` =
msg_id, action, reason) and ``frame`` (``x`` = the bytes ``a`` sent ``b``:
setup frames, then a header and a payload per transfer).
"""

from __future__ import annotations

import random
from typing import Sequence

from .. import auth
from ..baselines import EpidemicRouter, NoPrivacyPrifRouter, ProphetRouter
from ..model import ContactEvent, Message
from ..routing import (Action, AuthContext, Carrier, PrifRouter, Router,
                       encode_message_header, seal_payload)
from .metrics import MetricsLedger, MetricsReport
from .scenario import MB, Scenario
from .trace import ContactTrace, build_trace, stream_seed, _STREAM_CRYPTO

TRACE_KINDS = ("contact_start", "contact_end", "hs_ok", "hs_fail", "create",
               "reject", "relay", "deliver", "dup", "anti", "handoff", "evict",
               "expire", "partial")
TRACE_SCHEMA = ("lines are 'time kind a b msg'; '-' marks an absent field; "
                "kinds: " + " ".join(TRACE_KINDS))

Event = tuple[float, str, int | None, int | None, object]


def format_trace(events: list[Event]) -> list[str]:
    """The text trace of an event list: one 'time kind a b msg' line per
    event whose kind is in ``TRACE_KINDS``, in list order."""
    def field(v) -> str:
        return "-" if v is None else str(v)
    return [f"{t:.1f} {kind} {field(a)} {field(b)} {field(x)}"
            for t, kind, a, b, x in events if kind in TRACE_KINDS]


class Lane:
    """One scenario's message layer: a carrier per node over the replay's
    routers, a ledger and events."""

    def __init__(self, scenario: Scenario, routers: dict[int, Router],
                 events: list[Event] | None) -> None:
        self.scenario = scenario
        self.carriers = {node: Carrier(r, scenario.buffer_bytes, scenario.ttl_min)
                         for node, r in routers.items()}
        self.ledger = MetricsLedger()
        self.events = events

    def _emit(self, t: float, kind: str, a, b, x) -> None:
        if self.events is not None:
            self.events.append((t, kind, a, b, x))

    def _gone(self, now: float, node: int, copies: list[Message], kind: str) -> None:
        for copy in copies:
            self.ledger.on_copy_gone(copy, kind)
            self._emit(now, kind, node, None, copy.msg_id)

    def _admit(self, carrier: Carrier, m: Message, hops: int, now: float) -> bool:
        admitted, evicted, purged = carrier.admit(m, hops, now)
        self._gone(now, carrier.node, purged, "expire")
        self._gone(now, carrier.node, evicted, "evict")
        return admitted

    def create(self, m: Message) -> None:
        t, source = m.created_at, m.source
        self.ledger.on_create(m)
        self._emit(t, "create", source, m.destination, m.msg_id)
        if not self._admit(self.carriers[source], m, 0, t):
            self.ledger.on_reject(m)
            self._emit(t, "reject", source, None, m.msg_id)

    def contact_end(self, c: ContactEvent, ok: bool, budget_ab: float,
                    budget_ba: float) -> None:
        ca, cb = self.carriers[c.a], self.carriers[c.b]
        self._emit(c.end, "contact_end", c.a, c.b, None)
        if ok:
            now = c.end
            if self.scenario.antipacket_mode == "gossip" and ca.router.gossips_antipackets:
                dropped_a, dropped_b = ca.exchange_antipackets(cb)
                self._gone(now, c.a, dropped_a, "anti")
                self._gone(now, c.b, dropped_b, "anti")
            self._transfer(ca, cb, budget_ab, now)
            self._transfer(cb, ca, budget_ba, now)

    def _transfer(self, carrier: Carrier, peer: Carrier, budget: float, now: float) -> None:
        if budget <= 0:
            return
        events, ttl_min = self.events, self.scenario.ttl_min
        router, peer_router, hops_of = carrier.router, peer.router, carrier.hops
        for m in carrier.schedule_messages(peer, now):
            decision = router.decide(peer_router, m, now)
            if events is not None:
                events.append((now, "decide", carrier.node, peer.node,
                               (m.msg_id, decision.action, decision.reason)))
            if decision.action is Action.HOLD:
                continue
            if m.size_bytes > budget:
                # not enough contact time left: partial transfer, discarded
                self._emit(now, "partial", carrier.node, peer.node, m.msg_id)
                break
            budget -= m.size_bytes
            hops = hops_of(m.msg_id) + 1
            self.ledger.on_relay()
            if events is not None:
                header = encode_message_header(m, ttl_min, hops, router.header_label(m))
                events.append((now, "frame", carrier.node, peer.node, header))
                events.append((now, "frame", carrier.node, peer.node, m.payload))
            if decision.action is Action.DELIVER:
                first = peer.accept_delivery(m)
                self.ledger.on_delivered(m, hops, first)
                self._emit(now, "deliver" if first else "dup",
                           carrier.node, peer.node, m.msg_id)
                own = carrier.mark_delivered(m.msg_id)
                if own is not None:
                    self._gone(now, carrier.node, [own], "handoff")
                if first and self.scenario.antipacket_mode == "instant":
                    self._instant_discard(m.msg_id, now)
            elif self._admit(peer, m, hops, now):
                self._emit(now, "relay", carrier.node, peer.node, m.msg_id)
                if self.scenario.forward_and_delete:
                    carrier.remove(m.msg_id)

    def _instant_discard(self, msg_id: int, now: float) -> None:
        for node, carrier in self.carriers.items():
            v = carrier.mark_delivered(msg_id)
            if v is not None:
                self._gone(now, node, [v], "anti")

    def finish(self, end: float, axis: str, axis_value: float) -> MetricsReport:
        """Expire what is left at the end of the run, then report, with
        the ids still held deciding ``buffered_at_end``."""
        for node, carrier in self.carriers.items():
            self._gone(end, node, carrier.pop_expired(end), "expire")
        held = {m.msg_id for carrier in self.carriers.values()
                for m in carrier.messages()}
        return self.ledger.finalize(held, self.scenario.router,
                                    self.scenario.seed, axis, axis_value)


# What lanes of one replay may differ in; everything else is contact layer.
LANE_FIELDS = ("buffer_bytes", "ttl_min")


class ReplayEngine:
    """One pass over a trace: scenarios (one lane each) -> metrics reports.

    ``events``, if given, holds one event list (or ``None``) per scenario.
    """

    def __init__(self, scenarios: Sequence[Scenario], trace: ContactTrace,
                 events: Sequence[list[Event] | None] | None = None) -> None:
        if not scenarios:
            raise ValueError("a replay needs at least one scenario")
        if events is None:
            events = [None] * len(scenarios)
        if len(events) != len(scenarios):
            raise ValueError("one event list (or None) per scenario")
        lead = scenarios[0]
        same = {f: getattr(lead, f) for f in LANE_FIELDS}
        for sc in scenarios:
            sc.validate()
            if sc.with_overrides(**same) != lead:
                raise ValueError("the scenarios of one replay may differ only "
                                 f"in {' and '.join(LANE_FIELDS)}")
        self.scenario = lead
        self.trace = trace
        self.crypto_rng = random.Random(stream_seed(lead.seed, _STREAM_CRYPTO))
        self.routers = self._build_routers()
        self.active: dict[tuple[int, int], tuple[bool, float, float]] = {}
        self.link_rate = lead.per_node("link_rate_bps")
        self.lanes = [Lane(sc, self.routers, ev)
                      for sc, ev in zip(scenarios, events)]
        self._sinks = [ev for ev in events if ev is not None]

    # -- construction -----------------------------------------------------

    def _build_routers(self) -> dict[int, Router]:
        sc = self.scenario
        interests = [int(i) for i in self.trace.interests]
        if sc.router == "prif":
            params = auth.TOY_PARAMS if sc.crypto == "toy" else auth.DEFAULT_PARAMS_2048
            ta = auth.TrustAuthority(params, self.crypto_rng)
            gids = [ta.create_group().gid for _ in range(max(interests) + 1)]
            ctx = AuthContext(params, ta.rl, ta.directory())
        make = {
            "prif": lambda node, i: PrifRouter(
                node, gids[i], ta.register(gids[i]), ctx, sc.energy),
            "prif-noprivacy": lambda node, i: NoPrivacyPrifRouter(
                node, i, sc.energy),
            "epidemic": lambda node, i: EpidemicRouter(node, i),
            "prophet": lambda node, i: ProphetRouter(
                node, i, p_init=sc.prophet_p_init,
                beta_transitive=sc.prophet_beta, gamma_age=sc.prophet_gamma,
                window=sc.energy.window),
        }[sc.router]
        return {node: make(node, i) for node, i in enumerate(interests)}

    # -- event handlers ----------------------------------------------------------

    def _on_create(self, p) -> None:
        dest_router = self.routers[p.destination]
        sealed = seal_payload(p.token, dest_router.pseudo_identity(), p.nonce)
        m = Message(p.msg_id, p.source, p.destination, dest_router.community,
                    p.size_bytes, p.t, sealed)
        for lane in self.lanes:
            lane.create(m)

    def _on_contact_start(self, c: ContactEvent) -> None:
        ra, rb = self.routers[c.a], self.routers[c.b]
        ok, frames_ab, frames_ba = ra.begin_contact(rb, c.start, self.crypto_rng)
        cost_ab = cost_ba = 0
        if self.scenario.charge_handshake_bytes:
            cost_ab, cost_ba = sum(map(len, frames_ab)), sum(map(len, frames_ba))
        rate = min(self.link_rate[c.a], self.link_rate[c.b])
        budget = rate * c.duration / 8.0
        self.active[(c.a, c.b)] = (ok, budget - cost_ab, budget - cost_ba)
        if self._sinks:
            started = [(c.start, "contact_start", c.a, c.b, None)]
            started += [(c.start, "frame", c.a, c.b, f) for f in frames_ab]
            started += [(c.start, "frame", c.b, c.a, f) for f in frames_ba]
            started.append((c.start, "hs_ok" if ok else "hs_fail", c.a, c.b, None))
            for events in self._sinks:
                for event in started:
                    events.append(event)

    def _on_contact_end(self, c: ContactEvent) -> None:
        ok, budget_ab, budget_ba = self.active.pop((c.a, c.b))
        for lane in self.lanes:
            lane.contact_end(c, ok, budget_ab, budget_ba)
        self.routers[c.a].end_contact(self.routers[c.b], c)

    # -- main loop -------------------------------------------------------------

    def run(self, axis: str = "none",
            axis_values: Sequence[float] | None = None) -> list[MetricsReport]:
        """Replay the trace; one report per lane, labelled with ``axis`` and
        that lane's entry of ``axis_values`` (0 for every lane if omitted)."""
        if axis_values is None:
            axis_values = [0.0] * len(self.lanes)
        if len(axis_values) != len(self.lanes):
            raise ValueError("one axis value per scenario")
        contacts, plan = self.trace.contacts, self.trace.plan
        queue = ([(c.start, 0, c) for c in contacts] + [(p.t, 1, p) for p in plan]
                 + [(c.end, 2, c) for c in contacts])
        queue.sort(key=lambda e: (e[0], e[1]))   # stable: ties keep list order
        handlers = (self._on_contact_start, self._on_create, self._on_contact_end)
        for _, kind, payload in queue:
            handlers[kind](payload)
        end = self.trace.duration
        return [lane.finish(end, axis, value)
                for lane, value in zip(self.lanes, axis_values)]


def run(scenario: Scenario, *, events: list[Event] | None = None,
        trace: ContactTrace | None = None,
        axis: str = "none", axis_value: float = 0.0) -> MetricsReport:
    """Build (or reuse) the trace for a scenario and replay it."""
    if trace is None:
        trace = build_trace(scenario)
    return ReplayEngine([scenario], trace, [events]).run(axis, [axis_value])[0]


SWEEP_AXES = ("buffer", "ttl", "time")


def apply_axis(scenario: Scenario, axis: str, value: float) -> Scenario:
    """Bind one sweep-axis value: buffer in MB, ttl in minutes, time in
    seconds; axis ``none`` leaves the scenario as it is."""
    if axis == "buffer":
        return scenario.with_overrides(buffer_bytes=int(value * MB))
    if axis == "ttl":
        return scenario.with_overrides(ttl_min=float(value))
    if axis == "time":
        return scenario.with_overrides(duration=float(value))
    if axis == "none":
        return scenario
    raise ValueError(f"unknown sweep axis {axis!r}; valid: {', '.join(SWEEP_AXES)}")


def _sweep_one_seed(args) -> list[tuple[MetricsReport, list[str] | None]]:
    scenario, routers, axis, values, seed, want_lines = args
    base = scenario.with_overrides(seed=seed)
    # every value is a lane of one replay, except on the time axis, where
    # each value has a trace of its own
    groups = [[v] for v in values] if axis == "time" else [values]
    out = []
    for group in groups:
        lanes = [apply_axis(base, axis, v) for v in group]
        trace = build_trace(lanes[0])
        for router in routers:
            events = [[] if want_lines else None for _ in group]
            engine = ReplayEngine([sc.with_overrides(router=router) for sc in lanes],
                                  trace, events)
            for rep, ev in zip(engine.run(axis, group), events):
                # text only: frame bytes stay in this process
                out.append((rep, None if ev is None else format_trace(ev)))
    return out


def axis_label(value: float) -> str:
    """An axis value as report names print it; values that print alike
    would share one report name."""
    return f"{value:g}"


def run_sweep(scenario: Scenario, routers: list[str], axis: str,
              values: list[float], seeds: list[int], jobs: int = 1,
              trace_lines: dict[tuple[str, float, int], list[str]] | None = None,
              ) -> list[MetricsReport]:
    """One run per (router, value, seed), sorted in that order.

    Each seed's trace is built once and replayed per router, with every
    buffer or TTL value a lane of that one replay; only the ``time`` axis
    rebuilds the trace and replays per value.  Axis ``none`` (value 0) is a
    plain run.  Seeds are spread over at most ``jobs`` worker processes.  If
    ``trace_lines`` is given, each run's event lines are stored in it under
    (router, value, seed).  Duplicate routers or seeds, and values with one
    ``axis_label``, are rejected: their runs would share one report name.
    """
    if not (routers and values and seeds):
        raise ValueError("sweep needs at least one router, value and seed")
    labels = [axis_label(v) for v in values]
    for name, items in (("router", routers), ("value", labels), ("seed", seeds)):
        if len(set(items)) != len(items):
            raise ValueError(f"duplicate {name} in sweep: {list(items)}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    tasks = [(scenario, routers, axis, values, seed, trace_lines is not None)
             for seed in seeds]
    workers = min(jobs, len(seeds))
    if workers > 1:
        # imported here: it pulls in multiprocessing, which a serial run skips
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_one_seed, tasks))
    else:
        chunks = [_sweep_one_seed(t) for t in tasks]
    reports = []
    for rep, lines in (pair for chunk in chunks for pair in chunk):
        reports.append(rep)
        if trace_lines is not None:
            trace_lines[(rep.router, rep.axis_value, rep.seed)] = lines
    reports.sort(key=lambda r: (r.router, r.axis_value, r.seed))
    return reports
