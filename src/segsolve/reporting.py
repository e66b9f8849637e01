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
report after its other entries, without reading the rows.  The bytes are
those of `json.dumps` of the whole report, because `history` is the last
key of `to_dict()` and the encoder joins list items with the same ", " it
joins dict entries with.

A report's history is a sequence of row dicts: a plain list for penalty
runs, and a `History` for the projected gradient loops, which keeps one
column per key and builds each row when it is read.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any

__all__ = ["History", "SolveReport", "write_report_json", "write_history_jsonl"]


class _Shared:
    """A column whose every entry is one value, stored once."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __getitem__(self, index):
        return self.value

    def __iter__(self):
        return repeat(self.value)


class History(Sequence):
    """History rows stored as columns, read as a sequence of row dicts.

    Built with one keyword per row key, in row order, naming the key's
    column: "q" for an `array('q')` of integers, "d" for an `array('d')` of
    floats, `list` for a list, for values that may be None or a bool, and
    any other value for a value every row shares, stored once.  `append`
    takes one value per stored column, in key order.  A row, read by index,
    slice or iteration, is a new dict with the keys in that order; an
    integer or float column gives back a Python int or float, so the JSON
    bytes of a row are those of the dict the loop would have built.  A PGD
    row takes 32 bytes of columns, where its dict took about 290.
    """

    def __init__(self, **kinds):
        self.columns = {key: array(kind) if isinstance(kind, str) else [] if kind is list
                        else _Shared(kind) for key, kind in kinds.items()}
        stored = [col for col in self.columns.values() if not isinstance(col, _Shared)]
        self._length = stored[0].__len__
        self._appends = [col.append for col in stored]

    def append(self, *values) -> None:
        for add, value in zip(self._appends, values):
            add(value)

    def __len__(self) -> int:
        return self._length()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(len(self))[index]]
        return dict(zip(self.columns, [col[index] for col in self.columns.values()]))

    def __iter__(self):
        return map(dict, map(zip, repeat(tuple(self.columns)), zip(*self.columns.values())))


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
    history: Sequence[dict] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)

    def _head(self) -> dict:
        """The entries of `to_dict()` before the history."""
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
        return d

    def to_dict(self) -> dict:
        """The report as plain data, its history a list of row dicts last."""
        d = self._head()
        d["history"] = list(self.history)
        return d


def write_report_json(report: SolveReport, path, history_lines: list[str] | None = None) -> None:
    """Write `report.to_dict()` as one line of compact JSON, the bytes of `json.dumps` plus a newline.

    `history_lines` may supply the rows of `report.history` already
    encoded, as `write_history_jsonl` returns them; they are spliced in
    as they are, and the rows are not read.
    """
    encode = json.JSONEncoder().encode
    d = report._head()
    if history_lines is None:
        history_lines = map(encode, report.history)
    text = encode(d)[:-1] + ', "history": [' + ", ".join(history_lines) + "]}\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_history_jsonl(rows: Sequence[dict], path) -> list[str]:
    """Write one line of compact JSON per row, the bytes of `json.dumps(row)` plus a newline.

    Returns the encoded rows, without their newlines.
    """
    lines = list(map(json.JSONEncoder().encode, rows))
    with open(path, "w") as fh:
        fh.write("\n".join([*lines, ""]))  # "" for the last row's newline
    return lines
