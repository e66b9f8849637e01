"""Dirichlet boundary data for the benchmark square [-1,1]^2.

Nine built-in configurations (bc1..bc9) plus the two-lobe / constant-collar
configuration ex41.  Every configuration must satisfy the segregation
assumption phi1*phi2*phi3 = 0 with phi_i >= 0 at each boundary node.

Conventions adopted here:
  * theta is the full-circle angle atan2(y, x) in (-pi, pi].
  * Data restricted to a named edge is 0 on the unnamed edges.
  * At corner nodes where two unit edges meet and the product would be
    positive (bc5, bc9), the smallest-index active component is kept and the
    next positive index is zeroed, mirroring the projection tie-break.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Grid

__all__ = [
    "BoundaryConfig",
    "BoundaryTrace",
    "SegregationReport",
    "BUILTIN_IDS",
    "builtin_config",
    "evaluate_bc",
    "validate_segregation",
    "sup_bound",
    "trace_from_csv",
]

SEGREGATION_TOL = 1e-14
TRACE_BOUND = 1e100  # largest ring value; below (float max)^(1/3), phi1*phi2*phi3 is finite

Evaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class BoundaryConfig:
    """Identifier plus three boundary-point evaluators phi_i(x, y) >= 0."""

    id: str
    evaluators: tuple[Evaluator, Evaluator, Evaluator]
    # built-ins are only meaningful on this square; None disables the check
    domain: tuple[float, float, float, float] | None = (-1.0, 1.0, -1.0, 1.0)


@dataclass
class BoundaryTrace:
    """Three values in [0, TRACE_BOUND] per boundary node; zero at interior nodes."""

    grid: Grid
    phi: np.ndarray  # shape (3, ny, nx)
    config_id: str = "custom"

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.phi.shape != (3, *self.grid.shape):
            raise ValueError("trace must have shape (3, ny, nx)")
        ring = self.phi[:, self.grid.boundary_mask()]
        if not np.all(np.isfinite(ring)):
            raise ValueError("boundary data must be finite")
        if np.any(ring < 0):
            raise ValueError("boundary data must be nonnegative")
        if np.any(ring > TRACE_BOUND):
            raise ValueError(f"boundary data must be at most {TRACE_BOUND:g}")


@dataclass
class SegregationReport:
    ok: bool
    violations: list[tuple[int, int, float, float, tuple[float, float, float]]]


def _theta(x, y):
    return np.arctan2(y, x)


def _pos(v):
    return np.maximum(v, 0.0)


def _on(cond, value):
    return np.where(cond, value, 0.0)


def _cosine_lobes(shift: float):
    def make(i):
        def ev(x, y):
            return _pos(np.cos(_theta(x, y) - 2.0 * np.pi * i / 3.0 - shift))

        return ev

    return tuple(make(i) for i in (1, 2, 3))


def _corner_distance(cx: float, cy: float) -> Evaluator:
    def ev(x, y):
        return _pos(1.0 - np.hypot(x - cx, y - cy) / 2.0)

    return ev


_BUILTINS: dict[str, BoundaryConfig] = {}


def _register(cfg: BoundaryConfig) -> None:
    _BUILTINS[cfg.id] = cfg


_register(BoundaryConfig("bc1", _cosine_lobes(0.0)))
_register(BoundaryConfig("bc2", _cosine_lobes(np.pi / 4.0)))
_register(
    BoundaryConfig(
        "bc3",
        (
            lambda x, y: _on(y == -1.0, 1.0),
            lambda x, y: _on(y == 1.0, 1.0),
            lambda x, y: _on(np.abs(x) == 1.0, 0.5),
        ),
    )
)
_register(
    BoundaryConfig(
        "bc4",
        (
            lambda x, y: _pos(x),
            lambda x, y: _pos(-x),
            lambda x, y: 0.25 + 0.0 * x,
        ),
    )
)
_register(
    BoundaryConfig(
        "bc5",
        (
            lambda x, y: _on(np.abs(y) == 1.0, 1.0),
            lambda x, y: _on(np.abs(x) == 1.0, 1.0),
            lambda x, y: 0.3 + 0.0 * x,
        ),
    )
)
_register(
    BoundaryConfig(
        "bc6",
        (
            _corner_distance(-1.0, -1.0),
            _corner_distance(1.0, 1.0),
            _corner_distance(1.0, -1.0),
        ),
    )
)
_register(
    BoundaryConfig(
        "bc7",
        (
            lambda x, y: _on(np.abs(y) == 1.0, np.sin(np.pi * (x + 1.0) / 2.0)),
            lambda x, y: _on(np.abs(y) == 1.0, _pos(np.cos(np.pi * (x + 1.0) / 2.0))),
            lambda x, y: _on(np.abs(x) == 1.0, 0.3),
        ),
    )
)
_register(
    BoundaryConfig(
        "bc8",
        (
            lambda x, y: _on((y == -1.0) & (x < 0.0), 1.0),
            lambda x, y: _on((y == -1.0) & (x > 0.0), 1.0),
            lambda x, y: _on(y == 1.0, 1.0),
        ),
    )
)
_register(
    BoundaryConfig(
        "bc9",
        (
            lambda x, y: _on((y == -1.0) | (x == -1.0), 1.0),
            lambda x, y: _on((y == 1.0) | (x == 1.0), 1.0),
            lambda x, y: 0.2 + 0.0 * x,
        ),
    )
)
_register(
    BoundaryConfig(
        "ex41",
        (
            lambda x, y: _on(y < 0.0, np.abs(y)),
            lambda x, y: _on(y > 0.0, np.abs(y)),
            lambda x, y: 0.25 + 0.0 * x,
        ),
    )
)

BUILTIN_IDS: tuple[str, ...] = tuple(_BUILTINS)


def builtin_config(config_id: str) -> BoundaryConfig:
    try:
        return _BUILTINS[config_id]
    except KeyError:
        raise KeyError(
            f"unknown boundary config {config_id!r}; known: {', '.join(BUILTIN_IDS)}"
        ) from None


def evaluate_bc(config: BoundaryConfig, grid: Grid) -> BoundaryTrace:
    """Evaluate a configuration at the boundary nodes of the grid.

    Raises ValueError if the grid domain differs from the one the config
    expects, or if the data still violates segregation after corner
    resolution.
    """
    if config.domain is not None:
        expected = config.domain
        actual = (grid.x_min, grid.x_max, grid.y_min, grid.y_max)
        if actual != expected:
            raise ValueError(
                f"config {config.id!r} expects domain {expected}, grid has {actual}"
            )
    X, Y = grid.meshgrid()
    bmask = grid.boundary_mask()
    phi = np.zeros((3, *grid.shape))
    for k, ev in enumerate(config.evaluators):
        full = np.asarray(ev(X, Y), dtype=float) + np.zeros(grid.shape)
        phi[k][bmask] = full[bmask]
    return _segregated_trace(grid, phi, config.id)


def _segregated_trace(grid: Grid, phi: np.ndarray, config_id: str) -> BoundaryTrace:
    """Resolve corner conflicts in phi, then build and validate the trace.

    Raises ValueError on non-finite, negative or oversized data (see
    BoundaryTrace), or if the data still violates segregation after corner
    resolution.
    """
    _resolve_corners(phi, grid)
    trace = BoundaryTrace(grid, phi, config_id=config_id)
    report = validate_segregation(trace)
    if not report.ok:
        raise ValueError(
            f"config {config_id!r} violates the segregation assumption at "
            f"{len(report.violations)} boundary node(s), first at "
            f"(x, y) = {report.violations[0][2:4]}"
        )
    return trace


def _resolve_corners(phi: np.ndarray, grid: Grid) -> None:
    """Zero index 1 at corners where all three components are positive.

    A corner with a negative component is left as it is, for the trace's
    nonnegativity check to refuse.
    """
    for j in (0, grid.ny - 1):
        for i in (0, grid.nx - 1):
            if np.all(phi[:, j, i] > 0.0):
                phi[1, j, i] = 0.0


def validate_segregation(trace: BoundaryTrace) -> SegregationReport:
    """Check phi >= 0 and phi1*phi2*phi3 <= tolerance at every boundary node."""
    g = trace.grid
    bmask = g.boundary_mask()
    prod = trace.phi[0] * trace.phi[1] * trace.phi[2]
    bad = bmask & ((prod > SEGREGATION_TOL) | np.any(trace.phi < 0.0, axis=0))
    violations = []
    xs, ys = g.xs(), g.ys()
    for j, i in zip(*np.nonzero(bad)):
        violations.append(
            (int(i), int(j), float(xs[i]), float(ys[j]), tuple(trace.phi[:, j, i]))
        )
    return SegregationReport(ok=not violations, violations=violations)


def sup_bound(trace: BoundaryTrace) -> float:
    """Max over boundary nodes and components of the trace values."""
    return float(np.max(trace.phi[:, trace.grid.boundary_mask()], initial=0.0))


def resolve_trace(bc, grid: Grid) -> BoundaryTrace:
    """Accept a BoundaryConfig, a config id string, or a ready BoundaryTrace."""
    if isinstance(bc, BoundaryTrace):
        if bc.grid != grid:
            raise ValueError("trace grid does not match solver grid")
        return bc
    if isinstance(bc, str):
        bc = builtin_config(bc)
    return evaluate_bc(bc, grid)


def trace_from_csv(path, grid: Grid, config_id: str = "custom") -> BoundaryTrace:
    """Load a tabulated trace (`side,coord,phi1,phi2,phi3` rows).

    Sides are bottom/top (coord = x) and left/right (coord = y); values are
    interpolated linearly along each side.  Corner nodes take the bottom/top
    table values, and conflicting corners are resolved as for the built-ins.
    Raises ValueError on an empty or header-only file, a row without five
    columns, a non-finite table value, and on node data that is negative,
    above TRACE_BOUND or not segregated.
    """
    tables: dict[str, list[tuple[float, float, float, float]]] = {
        "bottom": [],
        "top": [],
        "left": [],
        "right": [],
    }
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"trace CSV {path} is empty")
        if [c.strip().lower() for c in header] != ["side", "coord", "phi1", "phi2", "phi3"]:
            raise ValueError(f"unexpected trace CSV header: {header}")
        for row in reader:
            if len(row) != 5:
                raise ValueError(f"trace CSV row {row} does not have 5 columns")
            side = row[0].strip().lower()
            if side not in tables:
                raise ValueError(f"unknown side {side!r} in trace CSV")
            values = tuple(float(v) for v in row[1:5])
            if not np.all(np.isfinite(values)):
                raise ValueError(f"non-finite value in trace CSV row {row}")
            tables[side].append(values)
    if not any(tables.values()):
        raise ValueError(f"trace CSV {path} has no data rows")

    phi = np.zeros((3, *grid.shape))
    xs, ys = grid.xs(), grid.ys()

    def fill(side: str, sel: tuple, coords: np.ndarray) -> None:
        rows = sorted(tables[side])
        if not rows:
            return
        pts = np.array([r[0] for r in rows])
        for k in range(3):
            vals = np.array([r[k + 1] for r in rows])
            phi[(k, *sel)] = np.interp(coords, pts, vals)

    # x-sides last so they own the corner nodes
    fill("left", (slice(None), 0), ys)
    fill("right", (slice(None), grid.nx - 1), ys)
    fill("bottom", (0, slice(None)), xs)
    fill("top", (grid.ny - 1, slice(None)), xs)
    return _segregated_trace(grid, phi, config_id)
