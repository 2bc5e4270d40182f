"""Message and byte accounting for simulation runs.

Every transmission is recorded exactly once, at the moment the send decision
is made, under its envelope's traffic category. Lost transmissions still
count toward totals: the bytes were put on the air. A broadcast is a single
transmission regardless of how many nodes receive it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Optional

from .model import Category, Envelope, Notification, SimError
from .protocol import RoleChange


class DoubleCount(SimError):
    """The same transmission was reported to the recorder twice."""


class Recorder:
    """Accumulates counts and bytes as the kernel reports each send."""

    def __init__(self) -> None:
        # the kernel numbers sends in increasing order, so a sequence number
        # at or below the last one recorded was already counted
        self._last_seq: Optional[int] = None
        self.sent = 0
        self.delivered = 0
        self.lost = 0
        self.payload_bytes = 0
        self.wire_bytes = 0
        self.bytes_by_category = {c.value: 0 for c in Category}
        self.messages_by_category = {c.value: 0 for c in Category}

    def record_send(self, seq: int, env: Envelope, delivered: bool) -> None:
        if self._last_seq is not None and seq <= self._last_seq:
            raise DoubleCount(
                f"transmission {seq} was already recorded (last was "
                f"{self._last_seq})")
        self._last_seq = seq
        self.sent += 1
        if delivered:
            self.delivered += 1
        else:
            self.lost += 1
        self.payload_bytes += env.payload_len
        self.wire_bytes += env.wire_len
        cat = env.category.value
        self.bytes_by_category[cat] += env.wire_len
        self.messages_by_category[cat] += 1


def _notification_dict(n: Notification) -> dict:
    return {
        "at": n.at,
        "severity": n.severity.value,
        "subject": n.subject,
        "cause": n.cause.value,
        "reporter": n.reporter,
    }


def _role_change_dict(rc: RoleChange) -> dict:
    return {
        "at": rc.at,
        "node": rc.node,
        "from_role": rc.from_role.value if rc.from_role is not None else None,
        "to_role": rc.to_role.value,
        "reason": rc.reason.value,
    }


@dataclass
class RunReport:
    """Everything a single run produced, ready for serialization."""

    scenario: str
    profile: str
    seed: int
    duration_ms: int
    sent: int
    delivered: int
    lost: int
    payload_bytes: int
    wire_bytes: int
    bytes_by_category: dict[str, int]
    messages_by_category: dict[str, int]
    notifications: list[Notification] = field(default_factory=list)
    role_changes: list[RoleChange] = field(default_factory=list)
    convergence_failures: int = 0
    final_admin: Optional[int] = None
    supervising: bool = False

    @classmethod
    def from_run(cls, *, scenario: str, profile: str, seed: int,
                 duration_ms: int, recorder: Recorder,
                 network) -> "RunReport":
        return cls(
            scenario=scenario, profile=profile, seed=seed,
            duration_ms=duration_ms, sent=recorder.sent,
            delivered=recorder.delivered, lost=recorder.lost,
            payload_bytes=recorder.payload_bytes,
            wire_bytes=recorder.wire_bytes,
            bytes_by_category=dict(recorder.bytes_by_category),
            messages_by_category=dict(recorder.messages_by_category),
            notifications=list(network.notifications),
            role_changes=list(network.role_changes),
            convergence_failures=network.convergence_failures,
            final_admin=network.admin_id,
            supervising=network.supervising)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "profile": self.profile,
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "messages": {
                "sent": self.sent,
                "delivered": self.delivered,
                "lost": self.lost,
                "by_category": dict(self.messages_by_category),
            },
            "bytes": {
                "payload": self.payload_bytes,
                "wire": self.wire_bytes,
                "by_category": dict(self.bytes_by_category),
            },
            "notifications": [_notification_dict(n) for n in self.notifications],
            "role_changes": [_role_change_dict(rc) for rc in self.role_changes],
            "convergence_failures": self.convergence_failures,
            "final_admin": self.final_admin,
            "supervising": self.supervising,
        }


@dataclass
class ComparisonReport:
    """Same scenario and seed run once per security profile."""

    scenario: str
    seed: int
    runs: dict[str, RunReport]

    def _wire(self, profile: str) -> int:
        return self.runs[profile].wire_bytes

    @property
    def ratio_encap_plain(self) -> float:
        return self._wire("auth-encap") / self._wire("plain")

    @property
    def ratio_encap_auth(self) -> float:
        return self._wire("auth-encap") / self._wire("auth")

    @property
    def ratio_auth_plain(self) -> float:
        return self._wire("auth") / self._wire("plain")

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "runs": {name: run.to_json_dict()
                     for name, run in self.runs.items()},
            "ratios": {
                "encap_over_plain": self.ratio_encap_plain,
                "encap_over_auth": self.ratio_encap_auth,
                "auth_over_plain": self.ratio_auth_plain,
            },
        }

    def to_csv(self) -> str:
        """Per-profile, per-category wire bytes as a flat CSV table."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["profile", "category", "bytes"])
        for name, run in self.runs.items():
            for category in Category:
                writer.writerow([name, category.value,
                                 run.bytes_by_category[category.value]])
            writer.writerow([name, "total", run.wire_bytes])
        return out.getvalue()


def run_report_to_csv(report: RunReport) -> str:
    """Single-run counterpart of ComparisonReport.to_csv."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["profile", "category", "bytes"])
    for category in Category:
        writer.writerow([report.profile, category.value,
                         report.bytes_by_category[category.value]])
    writer.writerow([report.profile, "total", report.wire_bytes])
    return out.getvalue()
