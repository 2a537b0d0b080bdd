"""Comparison routers sharing the router interface.

* Epidemic: replicate to every peer that lacks the copy.
* PRoPHET-style delivery predictability with encounter, aging and
  transitivity updates (canonical constants, overridable).
* A no-privacy twin of the community router: same decision surface, but
  contact setup announces interests in plaintext and skips authentication.
  It stands in for interest-broadcast schemes when isolating what the
  privacy layer costs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from .energy import EnergyParams, decay_windows
from .model import Message, NodeId, SimTime
from .routing import (Action, ForwardDecision, PrifRouter, Reason, Router,
                      WireLog, interest_wire_bytes)
from .routing import unseal_payload  # noqa: F401  (perfbench's tracer patches it here)


# ---------------------------------------------------------------------------
# no-privacy twin
# ---------------------------------------------------------------------------

class NoPrivacyPrifRouter(PrifRouter):
    """Community router with plaintext interests and no handshake.

    Community labels are the raw interest numbers, announced to every peer
    on contact; revocation has no effect because nothing is verified.
    """

    kind = "prif-noprivacy"

    def __init__(self, node: NodeId, interest: int, energy_params: EnergyParams,
                 capacity_bytes: int) -> None:
        super().__init__(node, interest, gid=f"plain-{interest}", cert=None,
                         auth_ctx=None, energy_params=energy_params,
                         capacity_bytes=capacity_bytes)
        self.community = interest
        self.energy.owner_community = interest

    def dest_label(self, m: Message):
        return m.dest_interest

    def header_label(self, m: Message) -> bytes:
        return interest_wire_bytes(m.dest_interest)

    def begin_contact(self, other: "NoPrivacyPrifRouter", now: SimTime,
                      rng: random.Random,
                      wire: WireLog | None = None) -> tuple[bool, int, int]:
        frame_self = interest_wire_bytes(self.interest)
        frame_other = interest_wire_bytes(other.interest)
        if wire is not None:
            wire.record(now, self.node, other.node, "interest_plain", frame_self)
            wire.record(now, other.node, self.node, "interest_plain", frame_other)
        self.sessions[other.node] = other.interest
        other.sessions[self.node] = self.interest
        return True, len(frame_self), len(frame_other)


# ---------------------------------------------------------------------------
# epidemic
# ---------------------------------------------------------------------------

class EpidemicRouter(Router):
    """Replicate everything; drop the oldest when the buffer fills."""

    kind = "epidemic"

    def begin_contact(self, other: "EpidemicRouter", now: SimTime,
                      rng: random.Random,
                      wire: WireLog | None = None) -> tuple[bool, int, int]:
        if wire is not None:
            for a, b in ((self, other), (other, self)):
                ids = sorted(a.buffer.ids() | a.delivered_ids)
                frame = b"SUMMARY" + b"".join(i.to_bytes(8, "big") for i in ids)
                wire.record(now, a.node, b.node, "summary_vector", frame)
        self.sessions[other.node] = True
        other.sessions[self.node] = True
        return True, 0, 0

    def decide(self, peer: "EpidemicRouter", m: Message, now: SimTime) -> ForwardDecision:
        """Flood: deliver at the destination, otherwise relay any missing copy."""
        if peer.node == m.destination:
            return ForwardDecision(Action.DELIVER, Reason.DESTINATION_MET)
        if m.msg_id in peer.buffer or m.msg_id in peer.delivered_ids:
            return ForwardDecision(Action.HOLD, Reason.TIE_OR_LOWER)
        return ForwardDecision(Action.RELAY, Reason.CARRIER_OUTSIDE_DEST_IN_COMMUNITY)

    def _schedule_key(self, m: Message, peer: Router, now: SimTime):
        return (0 if m.destination == peer.node else 1, m.created_at, m.msg_id)


# ---------------------------------------------------------------------------
# delivery predictability
# ---------------------------------------------------------------------------

@dataclass
class ProphetState:
    """Per-node predictability vector plus the update constants."""

    owner: NodeId
    p: dict[NodeId, float] = field(default_factory=dict)
    p_init: float = 0.75
    beta_transitive: float = 0.25
    gamma_age: float = 0.98
    window: float = 30.0
    last_aged_at: SimTime = 0.0

    def encounter(self, peer: NodeId) -> None:
        """P(peer) grows toward 1 by p_init of the remaining headroom."""
        old = self.p.get(peer, 0.0)
        self.p[peer] = old + (1.0 - old) * self.p_init

    def age(self, now: SimTime) -> None:
        """Every entry decays by gamma per whole window since the last aging."""
        k = decay_windows(self.last_aged_at, now, self.window)
        if k:
            f = self.gamma_age ** k
            for node in self.p:
                self.p[node] *= f
            self.last_aged_at += k * self.window

    def transitive(self, via: NodeId,
                   peer_vector: Iterable[tuple[NodeId, float]]) -> None:
        """P(c) grows by P(via) * P_via(c) * beta of the headroom."""
        p_via = self.p.get(via, 0.0)
        for node, p_bc in peer_vector:
            if node == self.owner or node == via:
                continue
            old = self.p.get(node, 0.0)
            self.p[node] = old + (1.0 - old) * p_via * p_bc * self.beta_transitive


class ProphetRouter(Router):
    """Forward to peers with strictly higher delivery predictability."""

    kind = "prophet"

    def __init__(self, node: NodeId, interest: int, capacity_bytes: int,
                 p_init: float = 0.75, beta_transitive: float = 0.25,
                 gamma_age: float = 0.98, window: float = 30.0) -> None:
        super().__init__(node, interest, capacity_bytes)
        self.state = ProphetState(owner=node, p_init=p_init,
                                  beta_transitive=beta_transitive,
                                  gamma_age=gamma_age, window=window)

    def predictability(self, dest: NodeId, now: SimTime) -> float:
        """P(dest) decayed from the vector's anchor to ``now``; a pure read."""
        s = self.state
        return s.p.get(dest, 0.0) * s.gamma_age ** decay_windows(
            s.last_aged_at, now, s.window)

    def begin_contact(self, other: "ProphetRouter", now: SimTime,
                      rng: random.Random,
                      wire: WireLog | None = None) -> tuple[bool, int, int]:
        """Encounter bump both ways, then mutual transitive folding."""
        self.state.age(now)
        other.state.age(now)
        self.state.encounter(other.node)
        other.state.encounter(self.node)
        vec_self = sorted(self.state.p.items())
        vec_other = sorted(other.state.p.items())
        self.state.transitive(other.node, vec_other)
        other.state.transitive(self.node, vec_self)
        if wire is not None:
            for a, vec in ((self, vec_self), (other, vec_other)):
                frame = b"PPRED" + b"".join(n.to_bytes(8, "big") for n, _ in vec)
                peer_node = other.node if a is self else self.node
                wire.record(now, a.node, peer_node, "predictability_vector", frame)
        self.sessions[other.node] = True
        other.sessions[self.node] = True
        return True, 0, 0

    def decide(self, peer: "ProphetRouter", m: Message, now: SimTime) -> ForwardDecision:
        if peer.node == m.destination:
            return ForwardDecision(Action.DELIVER, Reason.DESTINATION_MET)
        if peer.predictability(m.destination, now) > self.predictability(m.destination, now):
            return ForwardDecision(Action.RELAY, Reason.HIGHER_INTRA)
        return ForwardDecision(Action.HOLD, Reason.TIE_OR_LOWER)

    def _schedule_key(self, m: Message, peer: Router, now: SimTime):
        return (0 if m.destination == peer.node else 1,
                -self.predictability(m.destination, now),
                m.created_at, m.msg_id)
