"""Per-layer tracing of prif from outside the package.

Layer entry points are wrapped in place (module attributes and class
methods) for the length of a traced pass and restored afterwards, so the
code under test is unchanged.  Every wrapped call takes part in self-time
accounting: a call's self time is its duration minus the time of the wrapped
calls it made, charged to the call's layer.  Coarse boundaries (trace
builds, kernel blocks, replays) are also kept as spans (name, start, end,
parent); calls that run thousands to millions of times (router decisions,
energy reads, ``powmod``) are only counted and timed in aggregate.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from time import perf_counter

import prif.auth
import prif.baselines
import prif.energy
import prif.routing
import prif.sim.engine
import prif.sim.kernels
import prif.sim.mobility
import prif.sim.trace

LAYERS = ("bench", "cli", "kernels", "mobility", "trace", "engine", "routing",
          "energy", "auth")


class Tracer:
    """Spans, per-name call aggregates, layer self times and counters."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.aggs: dict[str, list] = {}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.counts: Counter = Counter()
        self.trace_digests: set[str] = set()
        # one frame per active wrapped call: [child seconds, enclosing span]
        self._stack: list[list] = [[0.0, -1]]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, span: bool = False, on_exit=None):
        agg = self.aggs.setdefault(name, [0, 0.0])
        spans, stack, self_s = self.spans, self._stack, self.self_s

        def traced(*args, **kwargs):
            parent = stack[-1]
            if span:
                idx = len(spans)
                spans.append((name, 0.0, 0.0, parent[1]))
                frame = [0.0, idx]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                agg[0] += 1
                agg[1] += dt
                self_s[layer] += dt - frame[0]
                parent[0] += dt
                if span:
                    spans[idx] = (name, t0, t0 + dt, parent[1])
            if on_exit is not None:
                on_exit(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, owner, attr: str, name: str, layer: str,
                span: bool = False, on_exit=None, also=()) -> None:
        """Replace ``owner.attr`` (and the same object re-exported under
        ``attr`` by each module in ``also``) with a traced wrapper."""
        fn = vars(owner)[attr]
        wrapper = self.wrap(fn, name, layer, span, on_exit)
        for target in (owner, *also):
            self._saved.append((target, attr, vars(target)[attr]))
            setattr(target, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        install_prif_probes(self)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- results ----------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.aggs.get(name, (0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.aggs.get(name, (0, 0.0))[1]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in ``BENCHMARK.json``."""
        c, s, n = self.counts, self.seconds, self.calls
        pair_ticks = c["kernels.pair_ticks"]
        decides = n("routing.decide")
        out = {
            "kernels.positions_s": s("kernels.positions"),
            "kernels.transitions_s": s("kernels.transitions"),
            "kernels.pair_ticks": pair_ticks,
            "kernels.transitions": c["kernels.transitions"],
            "kernels.hit_ratio": (c["kernels.transitions"] / pair_ticks
                                  if pair_ticks else 0.0),
            "mobility.itineraries_s": s("mobility.itineraries"),
            "mobility.legs": c["mobility.legs"],
            "trace.build_s": s("trace.build"),
            "trace.builds": n("trace.build"),
            "trace.distinct_builds": len(self.trace_digests),
            "trace.contacts": c["trace.contacts"],
            "trace.plan_s": s("trace.plan"),
            "engine.init_s": s("engine.init"),
            "engine.replay_s": s("engine.replay"),
            "engine.events": c["engine.events"],
            "routing.begin_contact_s": s("routing.begin_contact"),
            "routing.end_contact_s": s("routing.end_contact"),
            "routing.decide_calls": decides,
            "routing.decide_s": s("routing.decide"),
            "routing.forward_frac": (c["routing.forwards"] / decides
                                     if decides else 0.0),
            "routing.schedule_s": s("routing.schedule"),
            "routing.admit_calls": n("routing.admit"),
            "routing.admit_s": s("routing.admit"),
            "routing.evictions": c["routing.evictions"],
            "routing.seal_s": s("routing.seal") + s("routing.unseal"),
            "energy.age_calls": n("energy.age"),
            "energy.age_s": s("energy.age"),
            "energy.read_calls": n("energy.read"),
            "energy.read_s": s("energy.read"),
            "energy.update_calls": n("energy.update"),
            "energy.update_s": s("energy.update"),
            "energy.records_end": c["energy.records_end"],
            "auth.handshakes": n("auth.handshake"),
            "auth.rejects": c["auth.rejects"],
            "auth.handshake_s": s("auth.handshake"),
            "auth.round1_s": s("auth.round1"),
            "auth.round2_s": s("auth.round2"),
            "auth.verify_s": s("auth.verify"),
            "auth.powmod_calls": n("auth.powmod"),
            "auth.powmod_s": s("auth.powmod"),
        }
        for layer in LAYERS:
            out[f"self.{layer}_s"] = self.self_s[layer]
        return out

    def span_dump(self) -> dict:
        """Spans with times relative to the first one, plus aggregates."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [{"name": nm, "start": a - t0, "end": b - t0, "parent": p}
                      for nm, a, b, p in self.spans],
            "aggregates": {nm: {"calls": k, "seconds": sec}
                           for nm, (k, sec) in sorted(self.aggs.items())},
            "self_seconds": dict(self.self_s),
            "counts": dict(sorted(self.counts.items())),
        }


# ---------------------------------------------------------------------------
# counters taken from call arguments and results, outside the timed region
# ---------------------------------------------------------------------------

def _count_scan(tr: Tracer, args, result) -> None:
    n_ticks, n_nodes, _ = args[0].shape
    tr.counts["kernels.pair_ticks"] += n_ticks * n_nodes * (n_nodes - 1) // 2
    tr.counts["kernels.transitions"] += int(result[0].shape[0])


def _count_legs(tr: Tracer, args, result) -> None:
    tr.counts["mobility.legs"] += int(result.t0.shape[0])


def _count_trace(tr: Tracer, args, result) -> None:
    tr.counts["trace.contacts"] += len(result.contacts)
    h = hashlib.sha256()
    h.update(repr(result.duration).encode())
    h.update(result.interests.tobytes())
    for c in result.contacts:
        h.update(repr((c.a, c.b, c.start, c.end)).encode())
    for p in result.plan:
        h.update(repr((p.msg_id, p.t, p.source, p.destination,
                       p.size_bytes, p.token, p.nonce)).encode())
    tr.trace_digests.add(h.hexdigest())


def _count_replay(tr: Tracer, args, result) -> None:
    engine = args[0]
    tr.counts["engine.events"] += (2 * len(engine.trace.contacts)
                                   + len(engine.trace.plan))
    tr.counts["energy.records_end"] += sum(
        len(r.energy.inter) + len(r.energy.intra)
        for r in engine.routers.values() if hasattr(r, "energy"))


def _count_decision(tr: Tracer, args, result) -> None:
    if result.action is not prif.routing.Action.HOLD:
        tr.counts["routing.forwards"] += 1


def _count_admit(tr: Tracer, args, result) -> None:
    tr.counts["routing.evictions"] += len(result[1])


def _count_handshake(tr: Tracer, args, result) -> None:
    if not result["mutual"]:
        tr.counts["auth.rejects"] += 1


_ROUTER_METHODS = (
    ("begin_contact", "routing.begin_contact", None),
    ("end_contact", "routing.end_contact", None),
    ("decide", "routing.decide", _count_decision),
    ("schedule_messages", "routing.schedule", None),
    ("admit", "routing.admit", _count_admit),
)

_ENERGY_METHODS = (
    ("age", "energy.age"),
    ("effective_inter", "energy.read"),
    ("effective_intra", "energy.read"),
    ("inter_summary", "energy.read"),
    ("update_direct_inter", "energy.update"),
    ("update_transitive_inter", "energy.update"),
    ("update_intra", "energy.update"),
)


def install_prif_probes(tr: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    kernels, mobility = prif.sim.kernels, prif.sim.mobility
    trace, engine, auth = prif.sim.trace, prif.sim.engine, prif.auth
    routing, baselines = prif.routing, prif.baselines

    tr.install(kernels, "positions", "kernels.positions", "kernels", span=True)
    tr.install(kernels, "transitions", "kernels.transitions", "kernels",
               span=True, on_exit=_count_scan)
    tr.install(mobility, "build_itineraries", "mobility.itineraries",
               "mobility", span=True, on_exit=_count_legs)
    tr.install(trace, "build_trace", "trace.build", "trace", span=True,
               on_exit=_count_trace, also=(engine,))
    tr.install(trace, "build_contacts", "trace.scan", "trace", span=True)
    tr.install(trace, "build_plan", "trace.plan", "trace", span=True)
    tr.install(engine.ReplayEngine, "__init__", "engine.init", "engine",
               span=True)
    tr.install(engine.ReplayEngine, "run", "engine.replay", "engine",
               span=True, on_exit=_count_replay)

    for cls in (routing.PrifRouter, baselines.NoPrivacyPrifRouter,
                baselines.EpidemicRouter, baselines.ProphetRouter):
        for attr, name, hook in _ROUTER_METHODS:
            if attr in vars(cls):
                tr.install(cls, attr, name, "routing", on_exit=hook)
    tr.install(routing, "seal_payload", "routing.seal", "routing",
               also=(engine,))
    tr.install(routing, "unseal_payload", "routing.unseal", "routing",
               also=(baselines,))

    for attr, name in _ENERGY_METHODS:
        tr.install(prif.energy.EnergyTable, attr, name, "energy")

    tr.install(auth, "run_mutual_handshake", "auth.handshake", "auth",
               on_exit=_count_handshake)
    tr.install(auth, "handshake_round1", "auth.round1", "auth")
    tr.install(auth, "handshake_round2", "auth.round2", "auth")
    tr.install(auth, "verify_confirmation", "auth.verify", "auth")
    tr.install(auth, "powmod", "auth.powmod", "auth")
