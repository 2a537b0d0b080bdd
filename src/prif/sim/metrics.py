"""Run accounting: per-event counters, per-message fates, report shaping.

Every created message ends the run in exactly one state: delivered,
still buffered, expired, dropped (evicted to death), or rejected at birth
(larger than the whole buffer).  The conservation test in the suite checks
that partition sums to the created count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import Message


@dataclass
class MetricsReport:
    """Per-run result row.

    ``overhead_ratio`` is (relay transfers - distinct deliveries) /
    distinct deliveries; with zero deliveries it degenerates to the raw
    relay count and ``overhead_defined`` is False.
    """

    router: str
    seed: int
    axis: str = "none"
    axis_value: float = 0.0
    created: int = 0
    delivered: int = 0
    duplicates: int = 0
    relayed: int = 0
    dropped: int = 0
    expired: int = 0
    rejected: int = 0
    buffered_at_end: int = 0
    drop_events: int = 0
    expiry_events: int = 0
    antipacket_drops: int = 0
    delivery_ratio: float = 0.0
    overhead_ratio: float = 0.0
    overhead_defined: bool = True
    avg_hop_count: float = 0.0

    CSV_FIELDS = ("router", "axis", "axis_value", "seed", "delivery_ratio",
                  "overhead_ratio", "overhead_defined", "avg_hop_count",
                  "created", "delivered", "duplicates", "relayed", "dropped",
                  "expired", "rejected", "buffered_at_end", "drop_events",
                  "expiry_events", "antipacket_drops")

    def csv_row(self) -> list[str]:
        out = []
        for name in self.CSV_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool):
                out.append("1" if v else "0")
            elif isinstance(v, float):
                out.append(repr(v))
            else:
                out.append(str(v))
        return out

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.CSV_FIELDS}


class MetricsLedger:
    """Event sink the engine feeds while replaying a trace."""

    def __init__(self) -> None:
        self.created_ids: list[int] = []
        self.delivered_hops: dict[int, int] = {}
        self.duplicates = 0
        self.relays = 0
        self.rejected_ids: set[int] = set()
        self.copies: dict[int, int] = {}
        self.last_death: dict[int, str] = {}
        self.drop_events = 0
        self.expiry_events = 0
        self.antipacket_drops = 0

    # -- message lifecycle ----------------------------------------------------

    def on_create(self, m: Message) -> None:
        self.created_ids.append(m.msg_id)
        self.copies.setdefault(m.msg_id, 0)

    def on_reject(self, m: Message) -> None:
        self.rejected_ids.add(m.msg_id)

    def on_admit(self, m: Message) -> None:
        self.copies[m.msg_id] = self.copies.get(m.msg_id, 0) + 1

    def on_relay(self) -> None:
        self.relays += 1

    def on_copy_gone(self, m: Message, cause: str) -> None:
        self.copies[m.msg_id] = self.copies.get(m.msg_id, 0) - 1
        self.last_death[m.msg_id] = cause
        if cause == "evict":
            self.drop_events += 1
        elif cause == "expire":
            self.expiry_events += 1
        elif cause == "anti":
            self.antipacket_drops += 1
        elif cause != "handoff":   # handoff: copy left with the destination
            raise ValueError(f"unknown copy death cause {cause!r}")

    def on_delivered(self, m: Message, hops: int, first: bool) -> None:
        if first:
            self.delivered_hops[m.msg_id] = hops
        else:
            self.duplicates += 1

    # -- report ------------------------------------------------------------------

    def finalize(self, router: str, seed: int, axis: str = "none",
                 axis_value: float = 0.0) -> MetricsReport:
        created = len(self.created_ids)
        delivered = len(self.delivered_hops)
        buffered = dropped = expired = rejected = 0
        for mid in self.created_ids:
            if mid in self.delivered_hops:
                continue
            if mid in self.rejected_ids:
                rejected += 1
            elif self.copies.get(mid, 0) > 0:
                buffered += 1
            elif self.last_death.get(mid) == "expire":
                expired += 1
            else:
                dropped += 1
        report = MetricsReport(router=router, seed=seed, axis=axis,
                               axis_value=axis_value, created=created,
                               delivered=delivered, duplicates=self.duplicates,
                               relayed=self.relays, dropped=dropped,
                               expired=expired, rejected=rejected,
                               buffered_at_end=buffered,
                               drop_events=self.drop_events,
                               expiry_events=self.expiry_events,
                               antipacket_drops=self.antipacket_drops)
        report.delivery_ratio = delivered / created if created else 0.0
        if delivered:
            report.overhead_ratio = (self.relays - delivered) / delivered
            report.overhead_defined = True
        else:
            report.overhead_ratio = float(self.relays)
            report.overhead_defined = False
        report.avg_hop_count = (sum(self.delivered_hops.values()) / delivered
                                if delivered else 0.0)
        return report
