"""The interest-community router and the carriers that hold its copies.

A carrier meeting a peer classifies every buffered message by community:

* peer is the destination: hand the message over;
* carrier and peer both inside the destination community: relay only to a
  strictly stronger inter energy toward the destination;
* carrier outside, peer inside the destination community: always relay;
* both outside: relay only to a strictly stronger intra energy toward the
  destination community.

Each router carries one community label, ``community``, and each message
its destination's, ``dest_community``.  Here the labels are opaque group ids
verified through the authenticated handshake, so a node outside a community
can route toward it without ever learning its interest.  The plaintext
variant in ``baselines`` shares this decision surface with interest labels.

Transmission order puts destination-community messages first (strong inter
energy first, newer first on ties); eviction discards in exactly the reverse
order.  Delivery notices ("anti-packets") are gossiped on authenticated
contacts so delivered copies drain out of buffers.

Routers are policy: decisions, transmission and eviction order.  A
``Carrier`` per node and lane holds the copies and delivery knowledge.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Hashable, Iterable, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import auth
from .energy import EnergyParams, EnergyTable
from .model import (SECONDS_PER_MINUTE, ContactEvent, Message, NodeId, SimTime,
                    message_is_expired)


class SealError(Exception):
    """Unsealing failed: wrong destination identity or tampered bytes."""


class Action(Enum):
    DELIVER = "deliver"
    RELAY = "relay"
    HOLD = "hold"


class Reason(Enum):
    DESTINATION_MET = "destination-met"
    SAME_COMMUNITY_HIGHER_INTER = "same-community-higher-inter"
    CARRIER_OUTSIDE_DEST_IN_COMMUNITY = "carrier-outside-dest-in-community"
    HIGHER_INTRA = "higher-intra"
    TIE_OR_LOWER = "tie-or-lower"


@dataclass(frozen=True)
class ForwardDecision:
    action: Action
    reason: Reason

    def __post_init__(self) -> None:
        if self.action is Action.DELIVER and self.reason is not Reason.DESTINATION_MET:
            raise ValueError("deliver happens only when the peer is the destination")


# The five decisions, shared: a decision is a frozen value.
DELIVER = ForwardDecision(Action.DELIVER, Reason.DESTINATION_MET)
RELAY_HIGHER_INTER = ForwardDecision(Action.RELAY, Reason.SAME_COMMUNITY_HIGHER_INTER)
RELAY_INTO_COMMUNITY = ForwardDecision(Action.RELAY,
                                       Reason.CARRIER_OUTSIDE_DEST_IN_COMMUNITY)
RELAY_HIGHER_INTRA = ForwardDecision(Action.RELAY, Reason.HIGHER_INTRA)
HOLD = ForwardDecision(Action.HOLD, Reason.TIE_OR_LOWER)


# ---------------------------------------------------------------------------
# payload sealing (stand-in for identity-based encryption: the observable
# contract is opacity plus destination-only unsealing with integrity)
# ---------------------------------------------------------------------------

_NONCE_LEN = 12


def _seal_key(dest_pseudo_identity: str) -> bytes:
    return hashlib.sha256(b"PRIF-SEAL" + dest_pseudo_identity.encode()).digest()


def seal_payload(plaintext: bytes, dest_pseudo_identity: str, nonce: bytes) -> bytes:
    """Authenticated sealing under a key derived from the destination identity."""
    if len(nonce) != _NONCE_LEN:
        raise ValueError(f"nonce must be {_NONCE_LEN} bytes")
    aead = AESGCM(_seal_key(dest_pseudo_identity))
    return nonce + aead.encrypt(nonce, plaintext, b"")


def unseal_payload(sealed: bytes, dest_pseudo_identity: str) -> bytes:
    """Reverse of seal_payload; raises SealError on any mismatch."""
    if len(sealed) < _NONCE_LEN + 16:
        raise SealError("sealed payload too short")
    aead = AESGCM(_seal_key(dest_pseudo_identity))
    try:
        return aead.decrypt(sealed[:_NONCE_LEN], sealed[_NONCE_LEN:], b"")
    except InvalidTag as exc:
        raise SealError("payload failed integrity check") from exc


# ---------------------------------------------------------------------------
# wire frames
# ---------------------------------------------------------------------------

Frames = tuple[bytes, ...]   # one side's frames, in sending order

INTEREST_MARKER = b"INTEREST="


def interest_wire_bytes(interest: int) -> bytes:
    """Plaintext community announcement used only by the no-privacy router."""
    return INTEREST_MARKER + str(interest).encode()


def encode_message_header(m: Message, ttl_min: float, hops: int,
                          community_label: bytes) -> bytes:
    """Routable header bytes: ids, timing, TTL, hop count and community label.

    The label is the destination group id for the privacy-preserving router
    and a plaintext interest announcement for the no-privacy one.
    """
    fixed = struct.pack(">qqqddq", m.msg_id, m.source, m.destination,
                        m.created_at, ttl_min, hops)
    return b"MSG" + fixed + len(community_label).to_bytes(4, "big") + community_label


# ---------------------------------------------------------------------------
# routers and carriers
# ---------------------------------------------------------------------------

@dataclass
class AuthContext:
    """Shared public state every node sees: params, revocations, directory."""

    params: auth.SystemParams
    rl: auth.RevocationList
    directory: dict[str, int]


class Router:
    """Per-node contact state and the policy every flavour shares.

    ``community`` is the node's one community label.  A flavour supplies
    its contact setup ``begin_contact(other, now, rng) -> (usable, frames
    sent by self, frames sent by other)``, its forwarding decision
    ``decide(peer, m, now)`` and its transmission order
    ``_schedule_key(m, peer, now)``; the default ``eviction_order`` puts the
    oldest copy first.  The setup frames are what the link budget is charged.
    A router only orders and decides: its ``Carrier`` in each lane holds
    the copies.
    """

    gossips_antipackets = False
    cert: Optional[auth.Certificate] = None

    def __init__(self, node: NodeId, community: Hashable) -> None:
        self.node = node
        self.community = community

    def pseudo_identity(self) -> str:
        return self.cert.id if self.cert is not None else f"node-{self.node}"

    def header_label(self, m: Message) -> bytes:
        return b""

    # -- contact lifecycle ----------------------------------------------------

    def end_contact(self, other: "Router", contact: ContactEvent) -> None:
        """Nothing to update or tear down unless a flavour says otherwise."""

    # -- scheduling and eviction -------------------------------------------------

    def schedule_order(self, msgs: Iterable[Message], now: SimTime,
                       peer: Optional["Router"] = None) -> list[Message]:
        return sorted(msgs, key=lambda m: self._schedule_key(m, peer, now))

    def eviction_order(self, msgs: Iterable[Message], now: SimTime) -> list[Message]:
        """Oldest first, by ``(created_at, msg_id)``."""
        return sorted(msgs, key=attrgetter("created_at", "msg_id"))


class Carrier:
    """One node's message layer in one lane: its copies under one TTL and
    its delivery knowledge, ordered and evicted by its ``router``.

    A replay has one carrier per node and lane (see ``sim.engine``), all of
    a node's carriers over its one router.  A copy is a shared ``Message``
    and the hops it has travelled, kept in insertion order as ``msg_id ->
    (message, hops)``.  Every query scans the copies: no preset buffer
    holds more than a few dozen.  One float keeps the expiry scan off the
    common path: ``_oldest`` is at most every held ``created_at``.  ``add``
    lowers it, each expiry scan resets it from the survivors, and a removal
    leaves it low, which costs at most a needless scan.  Float subtraction
    is monotone, so when ``maybe_expired`` is False no copy is expired
    under ``message_is_expired``.

    Delivery knowledge is one int, ``delivered_mask``, with bit ``msg_id``
    set for every id known delivered (message ids are dense from 0); gossip
    is then one ``|``.  ``knows_delivered`` is the membership test.
    """

    def __init__(self, router: Router, capacity_bytes: int, ttl_min: float) -> None:
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        if not 0.0 < ttl_min < math.inf:
            raise ValueError("buffer ttl must be positive and finite")
        self.router = router
        self.node = router.node
        self.capacity_bytes = capacity_bytes
        self.ttl_min = ttl_min
        self._copies: dict[int, tuple[Message, int]] = {}
        self.used_bytes = 0
        self._oldest = math.inf
        self.delivered_mask = 0

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self._copies

    def messages(self) -> list[Message]:
        return [m for m, _ in self._copies.values()]

    def hops(self, msg_id: int) -> int:
        """The hops the held copy of ``msg_id`` has travelled."""
        return self._copies[msg_id][1]

    def add(self, m: Message, hops: int) -> None:
        mid = m.msg_id
        if mid in self._copies:
            raise ValueError(f"message {mid} already buffered")
        if self.used_bytes + m.size_bytes > self.capacity_bytes:
            raise ValueError("buffer overflow; evict before adding")
        self._copies[mid] = (m, hops)
        self.used_bytes += m.size_bytes
        if m.created_at < self._oldest:
            self._oldest = m.created_at

    def remove(self, msg_id: int) -> Message:
        m = self._copies.pop(msg_id)[0]
        self.used_bytes -= m.size_bytes
        return m

    def maybe_expired(self, now: SimTime) -> bool:
        """False only if no held copy has expired at ``now``."""
        return now - self._oldest > self.ttl_min * SECONDS_PER_MINUTE

    def pop_expired(self, now: SimTime) -> list[Message]:
        """Remove and return every expired copy, in insertion order."""
        if not self.maybe_expired(now):
            return []
        ttl_min = self.ttl_min
        dead = [m for m in self.messages() if message_is_expired(m, ttl_min, now)]
        for m in dead:
            self.remove(m.msg_id)
        self._oldest = min((m.created_at for m, _ in self._copies.values()),
                           default=math.inf)
        return dead

    # -- contacts -------------------------------------------------------------

    def schedule_messages(self, peer: "Carrier", now: SimTime) -> list[Message]:
        """Outbound plan for one contact: drop dead copies, skip what the
        peer already has or either side knows delivered, order the rest."""
        msgs = self.messages()
        if self.maybe_expired(now):
            msgs = [m for m in msgs if not message_is_expired(m, self.ttl_min, now)]
        known = self.delivered_mask | peer.delivered_mask
        candidates = [m for m in msgs
                      if m.msg_id not in peer and not known >> m.msg_id & 1]
        return self.router.schedule_order(candidates, now, peer.router)

    def admit(self, m: Message, hops: int,
              now: SimTime) -> tuple[bool, list[Message], list[Message]]:
        """Admit a copy ``hops`` hops from its source, evicting in the
        router's ``eviction_order`` until it fits.

        Returns (admitted, evicted, expired-purged).  A message larger than
        the whole buffer is rejected outright.
        """
        purged = self.pop_expired(now)
        room = self.capacity_bytes - m.size_bytes
        if room < 0:
            return False, [], purged
        evicted: list[Message] = []
        if self.used_bytes > room:
            for victim in self.router.eviction_order(self.messages(), now):
                evicted.append(self.remove(victim.msg_id))
                if self.used_bytes <= room:
                    break
        self.add(m, hops)
        return True, evicted, purged

    # -- delivery and anti-packets ---------------------------------------------------

    def knows_delivered(self, msg_id: int) -> bool:
        """True iff ``msg_id`` is known delivered; a negative id raises
        ``ValueError`` (a negative shift count)."""
        return bool(self.delivered_mask >> msg_id & 1)

    def accept_delivery(self, m: Message) -> bool:
        """Destination-side processing; True the first time an id arrives."""
        if m.destination != self.node:
            raise ValueError("delivery processed at a non-destination node")
        if self.knows_delivered(m.msg_id):
            return False
        unseal_payload(m.payload, self.router.pseudo_identity())
        self.delivered_mask |= 1 << m.msg_id
        return True

    def mark_delivered(self, msg_id: int) -> Optional[Message]:
        """Record a delivery notice; returns the own copy it condemns, if any.
        A negative id raises ``ValueError``."""
        self.delivered_mask |= 1 << msg_id
        return self.remove(msg_id) if msg_id in self._copies else None

    def _drop_known_delivered(self) -> list[Message]:
        """Remove the held copies known delivered, in ascending id order."""
        known = self.delivered_mask
        return [self.remove(mid) for mid in
                sorted(m.msg_id for m in self.messages() if known >> m.msg_id & 1)]

    def exchange_antipackets(self, other: "Carrier") -> tuple[list[Message], list[Message]]:
        """Union the delivery knowledge and drop any copies it condemns."""
        self.delivered_mask = other.delivered_mask = (
            self.delivered_mask | other.delivered_mask)
        return self._drop_known_delivered(), other._drop_known_delivered()


class PrifRouter(Router):
    """Community-energy router over authenticated group sessions."""

    kind = "prif"
    gossips_antipackets = True

    def __init__(self, node: NodeId, community: Hashable,
                 cert: Optional[auth.Certificate], auth_ctx: Optional[AuthContext],
                 energy_params: EnergyParams) -> None:
        super().__init__(node, community)
        self.cert = cert
        self.auth_ctx = auth_ctx
        self.sessions: dict[NodeId, Hashable] = {}
        self.energy = EnergyTable(node, community, energy_params)

    def header_label(self, m: Message) -> bytes:
        return m.dest_community.encode()

    # -- contact lifecycle ----------------------------------------------------

    def begin_contact(self, other: "PrifRouter", now: SimTime,
                      rng: random.Random) -> tuple[bool, Frames, Frames]:
        """Mutual group authentication; only a mutual accept opens the link.

        Returns (usable, frames sent by self, frames sent by other): each
        side's round-1 and round-2 handshake frames.
        """
        ctx = self.auth_ctx
        transcript = auth.run_mutual_handshake(
            self.cert, self.community, other.cert, other.community,
            ctx.rl, ctx.directory, ctx.params, rng)
        w1i, w1j, w2i, w2j = transcript["wire"]
        if transcript["mutual"]:
            self.sessions[other.node] = transcript["gid_j"]
            other.sessions[self.node] = transcript["gid_i"]
        return transcript["mutual"], (w1i, w2i), (w1j, w2j)

    def end_contact(self, other: "PrifRouter", contact: ContactEvent) -> None:
        """Community-energy awareness pass, then session teardown.

        Same community: direct inter update both ways, then the transitive
        fold over summaries snapshotted after the direct updates.  Foreign
        community: intra update both ways keyed by the verified labels.
        """
        now = contact.end
        mine = self.sessions.pop(other.node, None)
        theirs = other.sessions.pop(self.node, None)
        if mine is None or theirs is None:
            return
        if mine == self.community:
            self.energy.update_direct_inter(other.node, mine, contact)
            other.energy.update_direct_inter(self.node, theirs, contact)
            sum_self = self.energy.inter_summary(now)
            sum_other = other.energy.inter_summary(now)
            self.energy.update_transitive_inter(other.node, sum_other, now)
            other.energy.update_transitive_inter(self.node, sum_self, now)
        else:
            self.energy.update_intra(mine, now)
            other.energy.update_intra(theirs, now)

    # -- forwarding decision ---------------------------------------------------

    def decide(self, peer: "PrifRouter", m: Message, now: SimTime) -> ForwardDecision:
        """Community-energy forwarding decision for one live message."""
        if peer.node == m.destination:
            return DELIVER
        dest_c = m.dest_community
        peer_c = self.sessions[peer.node]
        if self.community == dest_c:
            if (peer_c == dest_c
                    and peer.energy.effective_inter(m.destination, now)
                    > self.energy.effective_inter(m.destination, now)):
                return RELAY_HIGHER_INTER
            return HOLD
        if peer_c == dest_c:
            return RELAY_INTO_COMMUNITY
        if (peer.energy.effective_intra(dest_c, now)
                > self.energy.effective_intra(dest_c, now)):
            return RELAY_HIGHER_INTRA
        return HOLD

    # -- scheduling and eviction -------------------------------------------------

    def _schedule_key(self, m: Message, peer: Optional[Router], now: SimTime):
        """Destination-community class first, strong energy first, newer
        first on equal energy; the peer plays no part."""
        if self.community == m.dest_community:
            return (0, -self.energy.effective_inter(m.destination, now),
                    -m.created_at, m.msg_id)
        return (1, -self.energy.effective_intra(m.dest_community, now),
                -m.created_at, m.msg_id)

    def eviction_order(self, msgs: Iterable[Message], now: SimTime) -> list[Message]:
        """The schedule order reversed; every key ends in the unique msg_id,
        so no two keys tie and the reversal is exact."""
        return self.schedule_order(msgs, now)[::-1]
