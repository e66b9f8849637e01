"""Uniform Cartesian grids on a rectangle and discrete fields living on them.

Nodes are indexed (i, j) with x = x_min + i*hx and y = y_min + j*hy.  Field
values are stored as 2D arrays of shape (ny, nx), i.e. ``values[j, i]``, so
that the flattened row-major order runs j-outer / i-inner.  A node is a
boundary node iff it lies on the first/last row or column; the remaining
nodes are interior.

Discrete L2 quantities use the tensor-product trapezoidal node weights
(interior weight hx*hy, half on edges, quarter on corners), which integrate
constants exactly.  For fields vanishing on the boundary this coincides with
the plain diagonal hx*hy weighting used inside the interior linear systems.

The measures every solver shares are defined once, on raw arrays:
`energy_of_stack` (the Dirichlet energy of a (3, ny, nx) stack),
`max_l2_step` (the largest per-component L2 norm of a stack difference, the
stopping measure of every outer loop) and `l2_norm`.  `dirichlet_energy`,
`l2_diff` and `product_violation` are their wrappers on the dataclasses.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "SystemState",
    "RegionMask",
    "build_grid",
    "apply_laplacian",
    "dirichlet_energy",
    "energy_of_stack",
    "max_l2_step",
    "product_violation",
    "interior_product_max",
    "region_mean",
    "l2_diff",
    "l2_norm",
    "node_weights",
    "field_to_csv",
    "field_from_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian grid on [x_min, x_max] x [y_min, y_max].

    nx, ny count nodes per axis (>= 3 each so at least one interior node
    exists).  Spacings are hx = (x_max - x_min)/(nx - 1) and likewise hy.
    """

    nx: int
    ny: int
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ValueError(f"grid needs nx, ny >= 3, got ({self.nx}, {self.ny})")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate domain bounds")

    @property
    def hx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def hy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape (ny, nx) of nodal fields on this grid."""
        return (self.ny, self.nx)

    @property
    def n_interior(self) -> int:
        return (self.nx - 2) * (self.ny - 2)

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(self.y_min, self.y_max, self.ny)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X, Y of shape (ny, nx)."""
        return np.meshgrid(self.xs(), self.ys())

    def boundary_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask

    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask()


def build_grid(nx: int, ny: int, bounds: tuple[float, float, float, float]) -> Grid:
    """Build a grid from node counts and bounds (x_min, x_max, y_min, y_max)."""
    x_min, x_max, y_min, y_max = bounds
    return Grid(int(nx), int(ny), float(x_min), float(x_max), float(y_min), float(y_max))


@dataclass
class ScalarField:
    """Nodal values of one component, shape (ny, nx), all finite."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> "ScalarField":
        X, Y = grid.meshgrid()
        return cls(grid, np.asarray(fn(X, Y), dtype=float) + np.zeros(grid.shape))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())


@dataclass
class SystemState:
    """Triple of components (u1, u2, u3) on a shared grid."""

    u1: ScalarField
    u2: ScalarField
    u3: ScalarField

    def __post_init__(self):
        if not (self.u1.grid == self.u2.grid == self.u3.grid):
            raise ValueError("components must share a grid")

    @property
    def grid(self) -> Grid:
        return self.u1.grid

    @property
    def components(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        return (self.u1, self.u2, self.u3)

    def stack(self) -> np.ndarray:
        """Values as a (3, ny, nx) array (copies)."""
        return np.stack([self.u1.values, self.u2.values, self.u3.values])

    @classmethod
    def from_stack(cls, grid: Grid, arr: np.ndarray) -> "SystemState":
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (3, *grid.shape):
            raise ValueError(f"expected shape (3, {grid.ny}, {grid.nx}), got {arr.shape}")
        return cls(*(ScalarField(grid, arr[k].copy()) for k in range(3)))

    @classmethod
    def constant(cls, grid: Grid, v1: float, v2: float, v3: float) -> "SystemState":
        return cls(
            ScalarField.constant(grid, v1),
            ScalarField.constant(grid, v2),
            ScalarField.constant(grid, v3),
        )

    def copy(self) -> "SystemState":
        return SystemState(self.u1.copy(), self.u2.copy(), self.u3.copy())


@dataclass
class RegionMask:
    """Boolean node membership flags for a subregion of the grid."""

    grid: Grid
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.grid.shape:
            raise ValueError("mask shape does not match grid")

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def node_weights(grid: Grid) -> np.ndarray:
    """Trapezoidal quadrature weight per node, shape (ny, nx).

    Row sums of the lumped mass matrix: hx*hy at interior nodes, halved per
    boundary axis.  Sums exactly to the domain area.
    """
    wx = np.full(grid.nx, grid.hx)
    wx[0] = wx[-1] = grid.hx / 2.0
    wy = np.full(grid.ny, grid.hy)
    wy[0] = wy[-1] = grid.hy / 2.0
    return np.outer(wy, wx)


def apply_laplacian(grid: Grid, f: ScalarField) -> ScalarField:
    """Five-point discrete Laplacian; zero on boundary nodes.

    At interior (i, j):
        (f[i+1,j] - 2 f[i,j] + f[i-1,j]) / hx^2
      + (f[i,j+1] - 2 f[i,j] + f[i,j-1]) / hy^2
    """
    if f.grid != grid:
        raise ValueError("field is not defined on the given grid")
    v = f.values
    out = np.zeros(grid.shape)
    out[1:-1, 1:-1] = (
        (v[1:-1, 2:] - 2.0 * v[1:-1, 1:-1] + v[1:-1, :-2]) / grid.hx**2
        + (v[2:, 1:-1] - 2.0 * v[1:-1, 1:-1] + v[:-2, 1:-1]) / grid.hy**2
    )
    return ScalarField(grid, out)


def dirichlet_energy(state: SystemState) -> float:
    """Cell-based Dirichlet energy surrogate of a state; see :func:`energy_of_stack`."""
    return energy_of_stack(state.grid, state.stack())


def energy_of_stack(grid: Grid, arr: np.ndarray, work=None) -> float:
    """Cell-based Dirichlet energy surrogate of a raw (3, ny, nx) array.

    E_h(u) = 1/2 * sum_i sum_cells |grad_h u_i|^2 * hx*hy, with the forward
    difference gradient anchored at the lower-left corner of each cell.
    Nonnegative, and zero exactly for componentwise-constant states.

    Evaluated as 0.5 * (Sx / hx^2 + Sy / hy^2) * hx * hy, where Sx and Sy
    are the sums of the squared raw differences over all cells of all three
    components.  The differences are taken on the flat C-ordered stack `f`,
    as one contiguous pass each: f[p+1] - f[p] and f[p+nx] - f[p].  At every
    cell corner p these are the x- and y-differences of the plain
    (3, ny-1, nx-1) form; the other entries straddle a row or component edge
    and are never read.  Each sum is one
    ``np.einsum("kij,kij->", v, v)`` over the (3, ny-1, nx-1) cell view `v`
    of the (3, ny, nx)-shaped differences, with no copy.  einsum calls no
    BLAS, so the bits do not depend on the BLAS thread count.
    `tests/test_grid.py::TestDirichletEnergy` pins the value bit for bit to
    this expression written out on plain arrays.

    `work` may supply a float array of shape (2, 3*ny*nx) to hold the
    differences, so repeated calls allocate nothing; the value is the same
    bit for bit as without it.
    """
    ny, nx = grid.ny, grid.nx
    if work is None:
        work = np.empty((2, 3 * ny * nx))
    f = arr.reshape(-1)
    m = f.size - nx  # every cell corner p has p + nx < f.size
    np.subtract(f[1 : m + 1], f[:m], out=work[0, :m])
    np.subtract(f[nx:], f[:m], out=work[1, :m])
    dx, dy = work.reshape(2, 3, ny, nx)[:, :, :-1, :-1]  # cell views, no copy
    sx = float(np.einsum("kij,kij->", dx, dx))
    sy = float(np.einsum("kij,kij->", dy, dy))
    return 0.5 * (sx / grid.hx**2 + sy / grid.hy**2) * grid.hx * grid.hy


def max_l2_step(weights: np.ndarray, a: np.ndarray, b: np.ndarray, work=None) -> float:
    """Largest per-component discrete L2 norm of a - b, for (3, ny, nx) arrays.

    max_k sqrt(sum(weights * (a_k - b_k)^2)) with the (ny, nx) node weights
    of :func:`node_weights`.  `work` may supply two float arrays of the
    stacks' shape, so repeated calls allocate nothing; the value is the same
    bit for bit as without them.
    """
    if work is None:
        work = (np.empty(a.shape), np.empty(a.shape))
    d, wd = work
    np.subtract(a, b, out=d)
    np.multiply(weights, d, out=wd)
    np.multiply(wd, d, out=wd)
    return float(np.sqrt(np.max(np.sum(wd, axis=(1, 2)))))


class ProductViolation(NamedTuple):
    l2: float
    max_abs: float


def product_violation(state: SystemState) -> ProductViolation:
    """L2 norm and max-abs of the pointwise product u1*u2*u3 over all nodes."""
    prod = state.u1.values * state.u2.values * state.u3.values
    return ProductViolation(l2_norm(state.grid, prod), float(np.max(np.abs(prod))))


def interior_product_max(state: SystemState) -> float:
    """Max of |u1*u2*u3| over interior nodes only."""
    prod = (
        state.u1.values[1:-1, 1:-1]
        * state.u2.values[1:-1, 1:-1]
        * state.u3.values[1:-1, 1:-1]
    )
    return float(np.max(np.abs(prod)))


def region_mean(f: ScalarField, mask: RegionMask) -> float:
    """Arithmetic mean of field values over the mask nodes."""
    if f.grid != mask.grid:
        raise ValueError("field and mask grids differ")
    if mask.count == 0:
        raise ValueError("empty region mask")
    return float(f.values[mask.mask].mean())


def l2_diff(a: ScalarField, b: ScalarField) -> float:
    """Discrete L2 norm of (a - b); grids must match."""
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")
    return l2_norm(a.grid, a.values - b.values)


def l2_norm(grid: Grid, values: np.ndarray) -> float:
    """Discrete L2 norm of a raw nodal array."""
    return float(np.sqrt(np.sum(node_weights(grid) * values * values)))


def field_to_csv(f: ScalarField, path) -> None:
    """Write `x,y,value` rows in row-major node order, 17 significant digits."""
    g = f.grid
    xs, ys = g.xs(), g.ys()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        for j in range(g.ny):
            for i in range(g.nx):
                writer.writerow(
                    [f"{xs[i]:.17g}", f"{ys[j]:.17g}", f"{f.values[j, i]:.17g}"]
                )


def field_from_csv(path) -> ScalarField:
    """Rebuild a field from :func:`field_to_csv` output.

    Raises ValueError on an empty or header-only file, a row without three
    columns, or rows that do not form a rectangular grid.
    """
    xs, ys, vals = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"field CSV {path} is empty")
        if [c.strip() for c in header] != ["x", "y", "value"]:
            raise ValueError(f"unexpected field CSV header: {header}")
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"field CSV row {row} does not have 3 columns")
            xs.append(float(row[0]))
            ys.append(float(row[1]))
            vals.append(float(row[2]))
    if not xs:
        raise ValueError(f"field CSV {path} has no data rows")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    # row-major layout: x cycles fastest, so nx = index of first y change
    change = np.nonzero(ys != ys[0])[0]
    nx = int(change[0]) if change.size else len(xs)
    if len(xs) % nx != 0:
        raise ValueError("CSV rows do not form a full rectangular grid")
    ny = len(xs) // nx
    grid = Grid(nx, ny, float(xs[0]), float(xs[nx - 1]), float(ys[0]), float(ys[-1]))
    return ScalarField(grid, np.asarray(vals).reshape(ny, nx))
