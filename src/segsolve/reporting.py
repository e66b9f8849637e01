"""Run reports and their JSON / JSON-lines serialization.

Floats in reports round-trip exactly (Python's shortest-repr JSON floats);
CSV field output elsewhere uses 17 significant digits.  `report.json` is
one compact line (the default `json.dumps` separators, no indent) and
`history.jsonl` one such line per history row; both are encoded by the
json module's C encoder, which an indent would switch off.  Wall time is
the only machine-dependent entry and is zeroed by callers running in
deterministic mode so artifact bytes are reproducible.

Each history row is encoded once for both files: `write_history_jsonl`
returns the lines it wrote, and `write_report_json` splices them into the
report after its other entries.  The bytes are those of `json.dumps` of
the whole report, because `history` is the last key of `to_dict()` and the
encoder joins list items with the same ", " it joins dict entries with.
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


def write_report_json(report: SolveReport, path, history_lines: list[str] | None = None) -> None:
    """Write `report.to_dict()` as one line of compact JSON, the bytes of `json.dumps` plus a newline.

    `history_lines` may supply the rows of `report.history` already
    encoded, as `write_history_jsonl` returns them; they are spliced in
    as they are.
    """
    encode = json.JSONEncoder().encode
    d = report.to_dict()
    rows = d.pop("history")
    if history_lines is None:
        history_lines = map(encode, rows)
    text = encode(d)[:-1] + ', "history": [' + ", ".join(history_lines) + "]}\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_history_jsonl(rows: list[dict], path) -> list[str]:
    """Write one line of compact JSON per row, the bytes of `json.dumps(row)` plus a newline.

    Returns the encoded rows, without their newlines.
    """
    lines = list(map(json.JSONEncoder().encode, rows))
    with open(path, "w") as fh:
        fh.write("\n".join([*lines, ""]))  # "" for the last row's newline
    return lines
