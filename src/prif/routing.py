"""The interest-community router: decisions, scheduling, buffers, sealing.

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
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Hashable, Iterable, Optional

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import auth
from .energy import EnergyParams, EnergyTable
from .model import ContactEvent, Message, NodeId, SimTime, message_is_expired


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


def encode_message_header(m: Message, community_label: bytes) -> bytes:
    """Routable header bytes: ids, sizing, timing, and the community label.

    The label is the destination group id for the privacy-preserving router
    and a plaintext interest announcement for the no-privacy one.
    """
    fixed = struct.pack(">qqqddq", m.msg_id, m.source, m.destination,
                        m.created_at, m.ttl_min, m.hop_count)
    return b"MSG" + fixed + len(community_label).to_bytes(4, "big") + community_label


# ---------------------------------------------------------------------------
# buffer
# ---------------------------------------------------------------------------

class Buffer:
    """Capacity-bounded message store preserving insertion order."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._msgs: dict[int, Message] = {}
        self._used = 0

    def __contains__(self, msg_id: int) -> bool:
        return msg_id in self._msgs

    @property
    def used_bytes(self) -> int:
        return self._used

    def messages(self) -> list[Message]:
        return list(self._msgs.values())

    def ids(self) -> set[int]:
        return set(self._msgs)

    def add(self, m: Message) -> None:
        if m.msg_id in self._msgs:
            raise ValueError(f"message {m.msg_id} already buffered")
        if self._used + m.size_bytes > self.capacity_bytes:
            raise ValueError("buffer overflow; evict before adding")
        self._msgs[m.msg_id] = m
        self._used += m.size_bytes

    def remove(self, msg_id: int) -> Message:
        m = self._msgs.pop(msg_id)
        self._used -= m.size_bytes
        return m

    def pop_expired(self, now: SimTime) -> list[Message]:
        dead = [m for m in self._msgs.values() if message_is_expired(m, now)]
        for m in dead:
            self.remove(m.msg_id)
        return dead


# ---------------------------------------------------------------------------
# router
# ---------------------------------------------------------------------------

@dataclass
class AuthContext:
    """Shared public state every node sees: params, revocations, directory."""

    params: auth.SystemParams
    rl: auth.RevocationList
    directory: dict[str, int]


class Router:
    """Per-node state and the contact-time logic every flavour shares.

    ``community`` is the node's one community label.  A flavour supplies
    its contact setup ``begin_contact(other, now, rng) -> (usable, frames
    sent by self, frames sent by other)``, its forwarding decision
    ``decide(peer, m, now)`` and its transmission order
    ``_schedule_key(m, peer, now)``; the default eviction order drops the
    oldest copy first.  The setup frames are what the link budget is charged.
    """

    gossips_antipackets = False
    cert: Optional[auth.Certificate] = None

    def __init__(self, node: NodeId, community: Hashable, capacity_bytes: int) -> None:
        self.node = node
        self.community = community
        self.buffer = Buffer(capacity_bytes)
        self.delivered_ids: set[int] = set()

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
        return sorted(msgs, key=lambda m: (m.created_at, m.msg_id))

    def schedule_messages(self, peer: "Router", now: SimTime) -> list[Message]:
        """Outbound plan for one contact: drop dead copies, skip what the
        peer already has or has seen delivered, order the rest."""
        candidates = [m for m in self.buffer.messages()
                      if not message_is_expired(m, now)
                      and m.msg_id not in peer.buffer
                      and m.msg_id not in peer.delivered_ids
                      and m.msg_id not in self.delivered_ids]
        return self.schedule_order(candidates, now, peer)

    # -- buffer admission ---------------------------------------------------------

    def admit(self, m: Message, now: SimTime) -> tuple[bool, list[Message], list[Message]]:
        """Admit a message, evicting in eviction order if needed.

        Returns (admitted, evicted, expired-purged).  A message larger than
        the whole buffer is rejected outright.
        """
        purged = self.buffer.pop_expired(now)
        if m.size_bytes > self.buffer.capacity_bytes:
            return False, [], purged
        evicted: list[Message] = []
        if self.buffer.used_bytes + m.size_bytes > self.buffer.capacity_bytes:
            order = self.eviction_order(self.buffer.messages(), now)
            for victim in order:
                if self.buffer.used_bytes + m.size_bytes <= self.buffer.capacity_bytes:
                    break
                self.buffer.remove(victim.msg_id)
                evicted.append(victim)
        self.buffer.add(m)
        return True, evicted, purged

    def pop_expired(self, now: SimTime) -> list[Message]:
        return self.buffer.pop_expired(now)

    def drop_copy(self, msg_id: int) -> Message:
        """Remove the carrier's own copy after a forward-and-delete relay."""
        return self.buffer.remove(msg_id)

    # -- delivery and anti-packets ---------------------------------------------------

    def accept_delivery(self, m: Message) -> bool:
        """Destination-side processing; True the first time an id arrives."""
        if m.destination != self.node:
            raise ValueError("delivery processed at a non-destination node")
        if m.msg_id in self.delivered_ids:
            return False
        unseal_payload(m.payload, self.pseudo_identity())
        self.delivered_ids.add(m.msg_id)
        return True

    def mark_delivered(self, msg_id: int) -> Optional[Message]:
        """Record a delivery notice; returns the own copy it condemns, if any."""
        self.delivered_ids.add(msg_id)
        return self.buffer.remove(msg_id) if msg_id in self.buffer else None

    def exchange_antipackets(self, other: "Router") -> tuple[list[Message], list[Message]]:
        """Union the delivered-id sets and drop any copies they condemn."""
        union = self.delivered_ids | other.delivered_ids
        self.delivered_ids = union
        other.delivered_ids = set(union)
        dropped_self = [self.buffer.remove(mid) for mid in
                        sorted(union & self.buffer.ids())]
        dropped_other = [other.buffer.remove(mid) for mid in
                         sorted(union & other.buffer.ids())]
        return dropped_self, dropped_other


class PrifRouter(Router):
    """Community-energy router over authenticated group sessions."""

    kind = "prif"
    gossips_antipackets = True

    def __init__(self, node: NodeId, community: Hashable,
                 cert: Optional[auth.Certificate], auth_ctx: Optional[AuthContext],
                 energy_params: EnergyParams, capacity_bytes: int) -> None:
        super().__init__(node, community, capacity_bytes)
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
            return ForwardDecision(Action.DELIVER, Reason.DESTINATION_MET)
        dest_c = m.dest_community
        peer_c = self.sessions[peer.node]
        if self.community == dest_c:
            if (peer_c == dest_c
                    and peer.energy.effective_inter(m.destination, now)
                    > self.energy.effective_inter(m.destination, now)):
                return ForwardDecision(Action.RELAY, Reason.SAME_COMMUNITY_HIGHER_INTER)
            return ForwardDecision(Action.HOLD, Reason.TIE_OR_LOWER)
        if peer_c == dest_c:
            return ForwardDecision(Action.RELAY, Reason.CARRIER_OUTSIDE_DEST_IN_COMMUNITY)
        if (peer.energy.effective_intra(dest_c, now)
                > self.energy.effective_intra(dest_c, now)):
            return ForwardDecision(Action.RELAY, Reason.HIGHER_INTRA)
        return ForwardDecision(Action.HOLD, Reason.TIE_OR_LOWER)

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


def relay_copy(m: Message) -> Message:
    """The copy a transfer hands to the next carrier; one hop further on.

    Built field by field, in about half the time ``dataclasses.replace``
    takes; it runs at every transfer."""
    return Message(m.msg_id, m.source, m.destination, m.dest_community,
                   m.size_bytes, m.created_at, m.ttl_min, m.hop_count + 1,
                   m.payload)
