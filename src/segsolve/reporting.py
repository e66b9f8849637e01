"""Run reports and their JSON / JSON-lines serialization.

Floats in reports round-trip exactly (Python's shortest-repr JSON floats);
CSV field output elsewhere uses 17 significant digits.  `report.json` is
one compact line (the default `json.dumps` separators, no indent) and
`history.jsonl` one such line per history row; both are encoded by the
json module's C encoder, which an indent would switch off.  Wall time is
the only machine-dependent entry and is zeroed by callers running in
deterministic mode so artifact bytes are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["SolveReport", "write_report_json", "write_history_jsonl"]


@dataclass
class SolveReport:
    algorithm: str
    bc_id: str
    h: float
    iters: int
    converged: bool
    final_energy: float
    final_violation_max: float
    wall_time_seconds: float
    history: list[dict] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "algorithm": self.algorithm,
            "bc_id": self.bc_id,
            "h": self.h,
            "iters": self.iters,
            "converged": self.converged,
            "final_energy": self.final_energy,
            "final_violation_max": self.final_violation_max,
            "wall_time_seconds": self.wall_time_seconds,
        }
        d.update(self.meta)
        d["history"] = self.history
        return d


def write_report_json(report: SolveReport, path) -> None:
    """Write `report.to_dict()` as one line of compact JSON."""
    text = json.dumps(report.to_dict())
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_history_jsonl(rows: list[dict], path) -> None:
    """Write one line of compact JSON per row, the bytes of `json.dumps(row)` plus a newline."""
    lines = list(map(json.JSONEncoder().encode, rows))
    lines.append("")  # the last row's newline
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
