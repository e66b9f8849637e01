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
A loop that measures the same buffers every iteration builds their
`energy_views` once and passes them to `energy_of_stack`.

Every buffer a solver loop touches on each iteration comes from
`aligned_empty`, which starts it on a 64-byte cache line: a short numpy
pass runs faster on such a buffer (on a shared Xeon host at n=61, the energy
took 20.8 us aligned, 25.7-27.5 us at byte offsets 8 to 48, best of seven
processes), and the bits are the same at every offset.

`fits` and `check_fields` decide once, from the dataclass annotations, which
values the fields of `Grid` and of every config accept.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "Grid",
    "ScalarField",
    "aligned_empty",
    "SystemState",
    "RegionMask",
    "build_grid",
    "apply_laplacian",
    "dirichlet_energy",
    "energy_of_stack",
    "energy_views",
    "energy_work",
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


ALIGN = 64  # bytes: one cache line


def aligned_empty(shape, dtype=float) -> np.ndarray:
    """An uninitialised C-contiguous array of `shape` whose data start on a 64-byte boundary.

    numpy has no aligned allocation, so the array is the aligned slice of a
    byte buffer ALIGN bytes longer, as pyFFTW's `empty_aligned` does it.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape if np.iterable(shape) else (shape,)) * dtype.itemsize
    raw = np.empty(nbytes + ALIGN, np.uint8)
    start = -raw.ctypes.data % ALIGN
    return raw[start:][:nbytes].view(dtype).reshape(shape)  # [start:] is never empty


_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a float"),
          "str": (str, "a string"), "bool": (bool, "a bool")}


def fits(value, annotation: str) -> bool:
    """Whether `value` fits an annotation: 'int', 'float', 'str' or 'bool', optionally '| None'.

    A numpy scalar fits like the Python number it stands for.  A bool is no
    number, and an integer is a float.
    """
    kind, _, optional = annotation.partition(" | ")
    if value is None:
        return optional == "None"
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, _KINDS[kind][0])


def check_fields(obj) -> None:
    """ValueError unless every field of the dataclass `obj` fits its annotation (:func:`fits`).

    An integer field must also be >= 1 and a float field finite; a number
    beyond the float range, such as the integer 10**400, is not finite.  The
    message names the first field that fails.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        kind = f.type.partition(" | ")[0]
        if not fits(value, f.type):
            raise ValueError(f"{f.name} must be {_KINDS[kind][1]}, got {value!r}")
        if kind == "int" and value is not None and value < 1:
            raise ValueError(f"{f.name} must be >= 1")
        if kind == "float" and value is not None:
            try:
                finite = math.isfinite(value)
            except OverflowError:  # named, not printed: it may run to hundreds of digits
                finite, value = False, "a number beyond the float range"
            if not finite:
                raise ValueError(f"{f.name} must be finite, got {value}")


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
        # the grid's own bound before check_fields' integer bound, so 0 gets this message too
        if fits(self.nx, "int") and fits(self.ny, "int") and min(self.nx, self.ny) < 3:
            raise ValueError(f"grid needs nx, ny >= 3, got ({self.nx}, {self.ny})")
        check_fields(self)
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
        if not np.isfinite(self.values).all():
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
    boundary axis.  Sums exactly to the domain area.  The array is
    64-byte aligned (:func:`aligned_empty`), since the loops' step norms
    read it every iteration.
    """
    wx = np.full(grid.nx, grid.hx)
    wx[0] = wx[-1] = grid.hx / 2.0
    wy = np.full(grid.ny, grid.hy)
    wy[0] = wy[-1] = grid.hy / 2.0
    return np.outer(wy, wx, out=aligned_empty(grid.shape))


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


class EnergyViews(NamedTuple):
    """What :func:`energy_of_stack` reads and writes for one stack; see :func:`energy_views`."""

    hx: float
    hy: float
    hx2: float
    hy2: float
    right: np.ndarray  # f[p + 1] for every corner p of the flat stack f
    up: np.ndarray  # f[p + nx]
    corner: np.ndarray  # f[p]
    dx_rows: np.ndarray  # the differences, written in place
    dy_rows: np.ndarray
    dx: np.ndarray  # their (3, ny-1, nx-1) cell views
    dy: np.ndarray


def energy_views(grid: Grid, arr: np.ndarray, work=None) -> EnergyViews:
    """The spacings and array views :func:`energy_of_stack` uses on the (3, ny, nx) stack `arr`.

    Built once per stack buffer, they let repeated energy calls on that
    buffer skip every reshape, slice and `Grid` property read.  `arr` must be
    C-contiguous (ValueError otherwise), so that the views see its later
    values.  `work` may supply a float array of two rows of at least
    3*ny*nx entries each, such as `energy_work(grid)`, to hold the
    differences; each row is read alone, so the row stride may be padded,
    and buffers of one grid can share it.  Without it, `energy_work` is
    called.
    """
    ny, nx = grid.ny, grid.nx
    if work is None:
        work = energy_work(grid)
    f = arr.reshape(-1, copy=False)
    m = f.size - nx  # every cell corner p has p + nx < f.size
    dx, dy = (row[: f.size].reshape(3, ny, nx)[:, :-1, :-1] for row in work)  # cell views, no copy
    hx, hy = grid.hx, grid.hy
    return EnergyViews(hx, hy, hx**2, hy**2, f[1 : m + 1], f[nx:], f[:m], work[0, :m],
                       work[1, :m], dx, dy)


def energy_work(grid: Grid) -> np.ndarray:
    """Scratch for :func:`energy_views`: two rows that each start on a cache line.

    Its shape is (2, L), L = 3*ny*nx rounded up to a multiple of 8 doubles
    (64 bytes), from :func:`aligned_empty`.
    """
    size = 3 * grid.ny * grid.nx
    return aligned_empty((2, -(-size // 8) * 8))


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

    `work` may supply the two-row float array of :func:`energy_views`
    (rows of at least 3*ny*nx entries, padded or not) to hold the
    differences, so repeated calls allocate nothing, or the
    :func:`energy_views` of `arr`, so they also build no views; the value is
    the same bit for bit either way.
    """
    if not isinstance(work, EnergyViews):
        work = energy_views(grid, np.ascontiguousarray(arr), work)
    hx, hy, hx2, hy2, right, up, corner, dx_rows, dy_rows, dx, dy = work
    np.subtract(right, corner, out=dx_rows)
    np.subtract(up, corner, out=dy_rows)
    sx = float(np.einsum("kij,kij->", dx, dx))
    sy = float(np.einsum("kij,kij->", dy, dy))
    return 0.5 * (sx / hx2 + sy / hy2) * hx * hy


def max_l2_step(weights: np.ndarray, a: np.ndarray, b: np.ndarray, work=None) -> float:
    """Largest per-component discrete L2 norm of a - b, for (3, ny, nx) arrays.

    max_k sqrt(sum(weights * (a_k - b_k)^2)) with the (ny, nx) node weights
    of :func:`node_weights`, in two passes over the stacks: one subtract,
    then one ``np.einsum("kij,ij,kij->k", d, weights, d)`` that multiplies
    and sums each component's weighted squares without a temporary and
    without BLAS.  The weights broadcast over the components; no
    (3, ny, nx) copy of them is made.  `work` may supply a float array of
    the stacks' shape for the difference, so repeated calls allocate
    nothing; the value is the same bit for bit as without it.
    """
    d = np.subtract(a, b, out=work)
    return math.sqrt(np.maximum.reduce(np.einsum("kij,ij,kij->k", d, weights, d)))


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
    """Write `x,y,value` rows in row-major node order, 17 significant digits.

    The bytes are those of `csv.writer` rows (`\\r\\n` line ends, no field
    quoted), written in one call: each coordinate is formatted once, and
    the values in one pass.
    """
    g = f.grid
    xs = [f"{x:.17g}," for x in g.xs().tolist()]
    prefixes = [x + y for y in (f"{y:.17g}," for y in g.ys().tolist()) for x in xs]
    rows = map("{}{:.17g}\r\n".format, prefixes, f.values.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write("x,y,value\r\n" + "".join(rows))


def field_from_csv(path) -> ScalarField:
    """Rebuild a field from :func:`field_to_csv` output.

    Raises ValueError on an empty or header-only file, a row without three
    columns, or rows that are not the row-major nodes of a uniform grid.  A
    coordinate may miss its node by 1e-3 of the spacing, so that coordinates
    written by hand with a few decimals load.
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
    off_x = np.max(np.abs(xs.reshape(ny, nx) - grid.xs()))
    off_y = np.max(np.abs(ys.reshape(ny, nx) - grid.ys()[:, None]))
    if not (off_x <= 1e-3 * grid.hx and off_y <= 1e-3 * grid.hy):  # NaN fails too
        raise ValueError(f"field CSV {path} rows are not the row-major nodes of a uniform grid")
    return ScalarField(grid, np.asarray(vals).reshape(ny, nx))
