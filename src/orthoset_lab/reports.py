"""Check reports: one record per verified statement.

Records serialize as line-delimited JSON sorted by check name.  Timing is
kept on the record for diagnostics but left out of the canonical
serialization, which has to be byte-identical across reruns with the same
inputs and seed.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass

from .errors import OrthosetLabError


@dataclass
class ReportRecord:
    check: str
    status: str  # pass | fail | error | internal
    witness: object = None
    detail: object = None
    task_ms: float | None = None  # time of the task that made the record

    def to_obj(self, timings: bool = False) -> dict:
        obj = {"check": self.check, "status": self.status}
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.detail is not None:
            obj["detail"] = self.detail
        if timings and self.task_ms is not None:
            obj["task_ms"] = round(self.task_ms, 3)
        return obj


def law(check: str, witness, detail=None) -> ReportRecord:
    """The record of a law: a pass, with detail, when there is no witness,
    else a fail with the witness."""
    if witness is None:
        return ReportRecord(check=check, status="pass", detail=detail)
    return ReportRecord(check=check, status="fail", witness=witness)


def passed(records) -> bool:
    return all(r.status == "pass" for r in records)


def render(records, timings: bool = False) -> str:
    lines = [json.dumps(r.to_obj(timings), sort_keys=True,
                        separators=(",", ":"), default=str)
             for r in sorted(records, key=lambda r: r.check)]
    return "\n".join(lines) + ("\n" if lines else "")


def error_witness(exc: Exception) -> dict:
    return {"error": type(exc).__name__, "message": str(exc),
            **({"data": exc.witness}
               if getattr(exc, "witness", None) is not None else {})}


def failure_record(check: str, exc: Exception) -> ReportRecord:
    """The record of a check that raised exc, called while exc is handled:
    status error for a library error, which is a law or input that failed,
    and status internal for any other exception, which is a bug in the
    program and leaves its traceback on stderr."""
    if isinstance(exc, OrthosetLabError):
        status = "error"
    else:
        status = "internal"
        traceback.print_exc()
    return ReportRecord(check=check, status=status, witness=error_witness(exc))


def run_tasks(tasks) -> list[ReportRecord]:
    """Run (name, thunk) tasks in sequence, each returning a list of
    records; results merge sorted by check name.  A task that raises
    contributes one failure_record instead of aborting."""
    merged: list[ReportRecord] = []
    for name, thunk in tasks:
        start = time.perf_counter()
        try:
            records = list(thunk())
        except Exception as exc:  # records, not crashes
            records = [failure_record(name, exc)]
        elapsed = (time.perf_counter() - start) * 1000.0
        for r in records:
            if r.task_ms is None:
                r.task_ms = elapsed
        merged.extend(records)
    merged.sort(key=lambda r: r.check)
    return merged
