"""Correctness gate and identity digest for one benchmark run.

A run fails when it raises or when ``problems`` returns anything. The digest
covers the report JSON and the event trace byte for byte, so two versions of
the simulator that produce the same digest on a workload produced the same
output on it.
"""

from __future__ import annotations

import hashlib

from ansim import audit
from ansim.metrics import RunReport

from workloads import ALL_AUDITS, LOSS_SAFE_AUDITS

# audit_warning_precedes_alert assumes warnings are never lost, and
# audit_probe_cadence assumes jitter-free links; neither holds on lossy runs.
_LOSS_SAFE = (audit.audit_admin_uniqueness,
              audit.audit_alert_precedes_removal,
              audit.audit_demotion_permanence)


def problems(report: RunReport, trace: list[str], audits: str) -> list[str]:
    """Every way the report breaks the accounting invariants or the audits."""
    found = []
    if report.sent != report.delivered + report.lost:
        found.append(f"sent {report.sent} != delivered {report.delivered} "
                     f"+ lost {report.lost}")
    if sum(report.messages_by_category.values()) != report.sent:
        found.append("per-category messages do not sum to sent")
    if sum(report.bytes_by_category.values()) != report.wire_bytes:
        found.append("per-category bytes do not sum to wire bytes")
    if report.wire_bytes < report.payload_bytes:
        found.append(f"wire bytes {report.wire_bytes} < payload bytes "
                     f"{report.payload_bytes}")
    if audits == ALL_AUDITS:
        found += audit.run_all(report, trace)
    elif audits == LOSS_SAFE_AUDITS:
        for check in _LOSS_SAFE:
            found += check(report)
    else:
        raise ValueError(f"unknown audit set {audits!r}")
    return found


def digest(report_json: str, trace_text: str) -> str:
    h = hashlib.sha256()
    h.update(report_json.encode())
    h.update(b"\0")
    h.update(trace_text.encode())
    return h.hexdigest()
