"""Shared domain vocabulary: node identities, interests, messages, contacts.

All simulation times are float seconds from run start.  TTLs are configured
in minutes (the conventional unit for DTN workloads) and converted exactly to
seconds wherever they are compared against ages.  A TTL belongs to a buffer,
not to the one ``Message`` that every buffer and copy shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

NodeId = int
SimTime = float

SECONDS_PER_MINUTE = 60.0


@dataclass(frozen=True)
class Message:
    """A routable store-carry-forward unit.

    ``size_bytes`` drives all buffer and bandwidth accounting; ``payload`` is
    a sealed opaque token readable only by the destination.  ``dest_community``
    is the destination router's community label: its opaque group id under
    ``prif``, so the interest never travels, and its plain interest number
    under ``prif-noprivacy``; epidemic and PRoPHET ignore it.  A buffered
    copy is the message plus its hop count (see ``routing.Buffer``).
    """

    msg_id: int
    source: NodeId
    destination: NodeId
    dest_community: Hashable
    size_bytes: int
    created_at: SimTime
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("message size must be positive")


def message_is_expired(m: Message, ttl_min: float, now: SimTime) -> bool:
    """True iff the message age strictly exceeds ``ttl_min`` minutes.

    A message exactly at TTL age is still alive; the boundary rule is strict
    inequality and is relied on by buffer purging and metrics.
    """
    return now - m.created_at > ttl_min * SECONDS_PER_MINUTE


@dataclass(frozen=True)
class ContactEvent:
    """A closed radio-range interval between two nodes.

    The pair is unordered; constructors normalise so ``a < b``.
    """

    a: NodeId
    b: NodeId
    start: SimTime
    end: SimTime

    def __post_init__(self) -> None:
        if self.start >= self.end:
            raise ValueError("contact must have start < end")
        if self.a == self.b:
            raise ValueError("contact requires two distinct nodes")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)

    @property
    def duration(self) -> float:
        return self.end - self.start
