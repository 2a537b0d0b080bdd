"""Community-energy bookkeeping for one node.

Two kinds of record live in a node's table:

* inter-community energy, one record per same-community peer, built from
  contact durations relative to the inter-encounter gap, plus a transitive
  strengthening rule fed by summaries exchanged during contacts;
* intra-community energy, one record per foreign community, an average
  encounter rate since the first encounter with that community.

Both kinds carry the raw current observation and the previous one; reads
return a weighted moving average of the two.  All values decay by gamma per
whole aging window elapsed since the record's own anchor (``last_aged_at``).
Reads are pure: they scale the stored prediction by gamma to the number of
windows since the anchor and change nothing, so how often a table is read
never affects what it later returns.  A write first brings only the record it
touches forward to ``now`` (values decayed, anchor advanced in whole windows)
and then applies its update; a new record is anchored at ``now``.
Every decay factor ``gamma ** k`` comes from one ``GammaPowers`` table per
gamma, shared by every table in the process (and by PRoPHET's aging): each
power is computed once and is the same float ``gamma ** k`` gives.  The
reads inline ``predict_inter``/``predict_intra`` and the transitive fold
inlines ``age``; the tests hold each inline copy to its named original.
Forwarding comparisons use strict ``>``: a tie is no evidence of improvement,
so the carrier keeps the message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable

from .model import ContactEvent, NodeId, SimTime

CommunityKey = Hashable


@dataclass(frozen=True)
class EnergyParams:
    """Prediction weights, decay factor and aging window (seconds)."""

    alpha: float = 0.3
    beta: float = 0.3
    gamma: float = 0.98
    window: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.window <= 0.0:
            raise ValueError("aging window must be positive")


@dataclass
class InterEnergyRecord:
    peer: NodeId
    value: float = 0.0
    prev_value: float = 0.0
    last_encounter_end: SimTime = 0.0
    last_aged_at: SimTime = 0.0
    encounter_count: int = 0


@dataclass
class IntraEnergyRecord:
    community: CommunityKey
    value: float = 0.0
    prev_value: float = 0.0
    cumulative_count: int = 0
    first_encounter: SimTime = 0.0
    last_aged_at: SimTime = 0.0


def predict_inter(rec: InterEnergyRecord, alpha: float) -> float:
    """Moving-average prediction over the last two inter observations."""
    return alpha * rec.prev_value + (1.0 - alpha) * rec.value


def predict_intra(rec: IntraEnergyRecord, beta: float) -> float:
    """Moving-average prediction over the last two intra observations."""
    return beta * rec.prev_value + (1.0 - beta) * rec.value


def decay_windows(anchor: SimTime, now: SimTime, window: float) -> int:
    """Whole aging windows elapsed from ``anchor`` to ``now``; 0 if none."""
    if now <= anchor:
        return 0
    return int(math.floor((now - anchor) / window))


class GammaPowers(dict):
    """``k -> gamma ** k``, each power computed on first use."""

    def __init__(self, gamma: float) -> None:
        super().__init__()
        self.gamma = gamma

    def __missing__(self, k: int) -> float:
        f = self[k] = self.gamma ** k
        return f


# One table per gamma for the whole process: a pure memo whose entries do not
# depend on the order they are filled in, so no run can see another's.  A
# run has one gamma, and k stays below duration / window.
_GAMMA_POWERS: dict[float, GammaPowers] = {}


def gamma_powers(gamma: float) -> GammaPowers:
    """The shared ``k -> gamma ** k`` table for ``gamma``."""
    table = _GAMMA_POWERS.get(gamma)
    if table is None:
        table = _GAMMA_POWERS[gamma] = GammaPowers(gamma)
    return table


class EnergyTable:
    """Per-node store of inter and intra community energies.

    Inter records exist only for peers of the owner's own community; intra
    records are keyed by foreign community labels and never by the owner's
    own.  Community keys are any hashable label: the privacy-preserving
    router keys them by opaque group ids, the plaintext router by interest
    numbers; the arithmetic is identical.
    """

    def __init__(self, owner: NodeId, owner_community: CommunityKey,
                 params: EnergyParams | None = None) -> None:
        self.owner = owner
        self.owner_community = owner_community
        self.params = params or EnergyParams()
        self._powers = gamma_powers(self.params.gamma)
        self.inter: dict[NodeId, InterEnergyRecord] = {}
        self.intra: dict[CommunityKey, IntraEnergyRecord] = {}

    # -- decay ---------------------------------------------------------

    # Kept as a method by this name: perfbench's tracer wraps EnergyTable.age.
    def age(self, rec: InterEnergyRecord | IntraEnergyRecord, now: SimTime) -> None:
        """Decay one record by gamma per whole aging window since its anchor.

        The anchor advances in window quanta only, so aging to t1 and then t2
        lands on the same anchor as aging straight to t2.  Both the current
        and the previous observation decay, keeping the predicted read
        consistent with evaporation.
        """
        w = self.params.window
        k = decay_windows(rec.last_aged_at, now, w)
        if k:
            f = self._powers[k]
            rec.value *= f
            rec.prev_value *= f
            rec.last_aged_at += k * w

    # -- inter-community updates ----------------------------------------

    def update_direct_inter(self, peer: NodeId, peer_community: CommunityKey,
                            contact: ContactEvent) -> InterEnergyRecord:
        """Record a direct same-community encounter ending now.

        The raw observation is contact duration over the gap since the
        previous encounter's end; the very first gap is measured from
        simulation start, which keeps the value in (0, 1] and penalises a
        late first contact.
        """
        if peer_community != self.owner_community:
            raise ValueError(
                "inter-community energy is only kept for same-community peers")
        now = contact.end
        rec = self.inter.get(peer)
        if rec is None:
            rec = InterEnergyRecord(peer=peer, last_aged_at=now)
            self.inter[peer] = rec
        self.age(rec, now)
        elapsed = now - rec.last_encounter_end
        if elapsed <= 0.0:
            raise ValueError("encounters for one peer must not overlap")
        raw = contact.duration / elapsed
        rec.prev_value = rec.value
        rec.value = raw
        rec.encounter_count += 1
        rec.last_encounter_end = now
        return rec

    def update_transitive_inter(self, via: NodeId,
                                summary: Iterable[tuple[NodeId, float]],
                                now: SimTime) -> None:
        """Fold a peer's reported inter energies into our own records.

        For each reported (c, e_bc) with c other than the owner, the record
        for c gains (1 - old) * e_via * e_bc where e_via is our effective
        energy toward the relaying peer.  Entries are strengthened in place:
        the previous-observation slot and encounter count are untouched.
        """
        e_via = self.effective_inter(via, now)
        if e_via <= 0.0:
            return
        owner, inter = self.owner, self.inter
        w, powers = self.params.window, self._powers
        for node, e_bc in summary:
            if node == owner or node == via:
                continue
            rec = inter.get(node)
            if rec is None:
                rec = inter[node] = InterEnergyRecord(peer=node, last_aged_at=now)
            elif now > rec.last_aged_at:
                # ``age`` inlined: this loop is the table's busiest writer
                k = math.floor((now - rec.last_aged_at) / w)
                if k:
                    f = powers[k]
                    rec.value *= f
                    rec.prev_value *= f
                    rec.last_aged_at += k * w
            rec.value = rec.value + (1.0 - rec.value) * e_via * e_bc

    # -- intra-community updates ----------------------------------------

    def update_intra(self, community: CommunityKey, now: SimTime) -> IntraEnergyRecord:
        """Record an encounter with a member of a foreign community.

        The raw observation is the cumulative encounter count over the time
        since the first encounter with that community, with the denominator
        clamped to at least one aging window so back-to-back encounters
        cannot divide by ~0.
        """
        if community == self.owner_community:
            raise ValueError("intra-community energy never targets the owner's own community")
        rec = self.intra.get(community)
        if rec is None:
            rec = IntraEnergyRecord(community=community, first_encounter=now,
                                    last_aged_at=now)
            self.intra[community] = rec
        self.age(rec, now)
        rec.cumulative_count += 1
        denom = max(now - rec.first_encounter, self.params.window)
        rec.prev_value = rec.value
        rec.value = rec.cumulative_count / denom
        return rec

    # -- reads -----------------------------------------------------------

    def effective_inter(self, peer: NodeId, now: SimTime) -> float:
        """Decayed, predicted inter energy toward a peer; 0 if unknown."""
        rec = self.inter.get(peer)
        if rec is None:
            return 0.0
        a = self.params.alpha
        e = a * rec.prev_value + (1.0 - a) * rec.value      # predict_inter
        anchor = rec.last_aged_at
        if now <= anchor:
            return e
        return e * self._powers[math.floor((now - anchor) / self.params.window)]

    def effective_intra(self, community: CommunityKey, now: SimTime) -> float:
        """Decayed, predicted intra energy toward a community; 0 if unknown."""
        rec = self.intra.get(community)
        if rec is None:
            return 0.0
        b = self.params.beta
        e = b * rec.prev_value + (1.0 - b) * rec.value      # predict_intra
        anchor = rec.last_aged_at
        if now <= anchor:
            return e
        return e * self._powers[math.floor((now - anchor) / self.params.window)]

    def inter_summary(self, now: SimTime) -> list[tuple[NodeId, float]]:
        """Snapshot of effective inter energies, exchanged during contacts."""
        a, w, powers = self.params.alpha, self.params.window, self._powers
        out = []
        for peer, rec in sorted(self.inter.items()):
            e = a * rec.prev_value + (1.0 - a) * rec.value  # effective_inter
            anchor = rec.last_aged_at
            if now > anchor:
                e *= powers[math.floor((now - anchor) / w)]
            out.append((peer, e))
        return out
