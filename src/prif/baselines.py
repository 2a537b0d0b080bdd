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

import math
import random
from dataclasses import dataclass, field
from typing import Iterable

from .energy import EnergyParams, decay_windows, gamma_powers
from .model import Message, NodeId, SimTime
from .routing import (DELIVER, HOLD, RELAY_HIGHER_INTRA, RELAY_INTO_COMMUNITY,
                      ForwardDecision, Frames, PrifRouter, Router,
                      interest_wire_bytes)
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

    def __init__(self, node: NodeId, interest: int, energy_params: EnergyParams) -> None:
        super().__init__(node, interest, None, None, energy_params)

    def header_label(self, m: Message) -> bytes:
        return interest_wire_bytes(m.dest_community)

    def begin_contact(self, other: "NoPrivacyPrifRouter", now: SimTime,
                      rng: random.Random) -> tuple[bool, Frames, Frames]:
        self.sessions[other.node] = other.community
        other.sessions[self.node] = self.community
        return (True, (interest_wire_bytes(self.community),),
                (interest_wire_bytes(other.community),))


# ---------------------------------------------------------------------------
# epidemic
# ---------------------------------------------------------------------------

class EpidemicRouter(Router):
    """Replicate everything; drop the oldest when the buffer fills."""

    kind = "epidemic"

    def begin_contact(self, other: "EpidemicRouter", now: SimTime,
                      rng: random.Random) -> tuple[bool, Frames, Frames]:
        return True, (), ()

    def decide(self, peer: "EpidemicRouter", m: Message, now: SimTime) -> ForwardDecision:
        """Flood: deliver at the destination, otherwise relay; the carrier's
        schedule already skips copies the peer holds or either side knows delivered."""
        if peer.node == m.destination:
            return DELIVER
        return RELAY_INTO_COMMUNITY

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
            f = gamma_powers(self.gamma_age)[k]
            self.p = {node: v * f for node, v in self.p.items()}
            self.last_aged_at += k * self.window

    def transitive(self, via: NodeId,
                   peer_vector: Iterable[tuple[NodeId, float]]) -> None:
        """P(c) grows by P(via) * P_via(c) * beta of the headroom."""
        p = self.p
        owner, beta = self.owner, self.beta_transitive
        p_via = p.get(via, 0.0)
        for node, p_bc in peer_vector:
            if node == owner or node == via:
                continue
            old = p.get(node, 0.0)
            p[node] = old + (1.0 - old) * p_via * p_bc * beta


class ProphetRouter(Router):
    """Forward to peers with strictly higher delivery predictability."""

    kind = "prophet"

    def __init__(self, node: NodeId, community: int,
                 p_init: float = 0.75, beta_transitive: float = 0.25,
                 gamma_age: float = 0.98, window: float = 30.0) -> None:
        super().__init__(node, community)
        self.state = ProphetState(owner=node, p_init=p_init,
                                  beta_transitive=beta_transitive,
                                  gamma_age=gamma_age, window=window)
        self._powers = gamma_powers(gamma_age)

    def predictability(self, dest: NodeId, now: SimTime) -> float:
        """P(dest) decayed from the vector's anchor to ``now``; a pure read."""
        s = self.state
        p = s.p.get(dest, 0.0)
        anchor = s.last_aged_at
        if now <= anchor:
            return p
        return p * self._powers[math.floor((now - anchor) / s.window)]

    def begin_contact(self, other: "ProphetRouter", now: SimTime,
                      rng: random.Random) -> tuple[bool, Frames, Frames]:
        """Encounter bump both ways, then mutual transitive folding."""
        self.state.age(now)
        other.state.age(now)
        self.state.encounter(other.node)
        other.state.encounter(self.node)
        # snapshots: each side folds the other's vector from before the fold
        vec_self = list(self.state.p.items())
        vec_other = list(other.state.p.items())
        self.state.transitive(other.node, vec_other)
        other.state.transitive(self.node, vec_self)
        return True, (), ()

    def decide(self, peer: "ProphetRouter", m: Message, now: SimTime) -> ForwardDecision:
        if peer.node == m.destination:
            return DELIVER
        if peer.predictability(m.destination, now) > self.predictability(m.destination, now):
            return RELAY_HIGHER_INTRA
        return HOLD

    def _schedule_key(self, m: Message, peer: Router, now: SimTime):
        return (0 if m.destination == peer.node else 1,
                -self.predictability(m.destination, now),
                m.created_at, m.msg_id)
