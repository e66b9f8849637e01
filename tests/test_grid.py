import csv
from dataclasses import fields

import numpy as np
import pytest

from segsolve.cli import RunConfig
from segsolve.diagnostics import RegionSpec
from segsolve.grid import (
    Grid,
    RegionMask,
    ScalarField,
    SystemState,
    apply_laplacian,
    build_grid,
    dirichlet_energy,
    energy_of_stack,
    field_from_csv,
    field_to_csv,
    l2_diff,
    l2_norm,
    max_l2_step,
    node_weights,
    product_violation,
    region_mean,
)


def make_state(grid, f1, f2, f3):
    return SystemState(
        ScalarField.from_function(grid, f1),
        ScalarField.from_function(grid, f2),
        ScalarField.from_function(grid, f3),
    )


def energy_oracle(state):
    """Cell-by-cell forward-difference summation, plain Python loops."""
    g = state.grid
    total = 0.0
    for comp in state.components:
        v = comp.values
        for j in range(g.ny - 1):
            for i in range(g.nx - 1):
                gx = (v[j, i + 1] - v[j, i]) / g.hx
                gy = (v[j + 1, i] - v[j, i]) / g.hy
                total += (gx * gx + gy * gy) * g.hx * g.hy
    return 0.5 * total


class TestBuildGrid:
    def test_smallest_legal_grid(self):
        g = build_grid(3, 3, (-1, 1, -1, 1))
        assert g.hx == 1.0 and g.hy == 1.0
        assert g.n_interior == 1

    def test_example_resolutions(self):
        assert build_grid(201, 201, (-1, 1, -1, 1)).hx == 0.01
        g = build_grid(401, 401, (-1, 1, -1, 1))
        assert g.hx == 0.005 and g.hy == 0.005

    @pytest.mark.parametrize("nx,ny", [(2, 5), (5, 2), (1, 1)])
    def test_rejects_too_small(self, nx, ny):
        with pytest.raises(ValueError):
            build_grid(nx, ny, (-1, 1, -1, 1))

    @pytest.mark.parametrize("bounds", [(1, -1, 0, 1), (0, 1, 1, 1)])
    def test_rejects_degenerate_bounds(self, bounds):
        with pytest.raises(ValueError):
            build_grid(5, 5, bounds)

    def test_index_partition(self):
        g = build_grid(5, 4, (0, 1, 0, 1))
        b = g.boundary_mask()
        assert (b ^ g.interior_mask()).all()
        assert b[0].all() and b[-1].all() and b[:, 0].all() and b[:, -1].all()
        assert int(g.interior_mask().sum()) == g.n_interior


class TestLaplacian:
    def test_constant_is_harmonic(self):
        g = build_grid(7, 9, (-1, 1, -2, 1))
        out = apply_laplacian(g, ScalarField.constant(g, 3.7))
        assert np.all(out.values == 0.0)

    def test_linear_is_harmonic_exactly(self):
        # power-of-two spacings keep the affine cancellation exact in floats
        g = build_grid(9, 5, (-1, 1, -1, 1))
        for fn in (lambda x, y: x, lambda x, y: y, lambda x, y: 2.0 - x + 3.0 * y):
            out = apply_laplacian(g, ScalarField.from_function(g, fn))
            assert np.all(out.values == 0.0)

    def test_quadratic_exact(self):
        g = build_grid(11, 11, (-1, 1, -1, 1))
        out = apply_laplacian(g, ScalarField.from_function(g, lambda x, y: x * x))
        assert out.values[1:-1, 1:-1] == pytest.approx(2.0, abs=1e-11)
        assert np.all(out.values[0] == 0.0) and np.all(out.values[:, 0] == 0.0)

    def test_linearity(self):
        g = build_grid(9, 7, (-1, 1, 0, 2))
        rng = np.random.default_rng(7)
        f = ScalarField(g, rng.standard_normal(g.shape))
        h = ScalarField(g, rng.standard_normal(g.shape))
        a, b = 1.3, -0.7
        combo = ScalarField(g, a * f.values + b * h.values)
        lhs = apply_laplacian(g, combo).values
        rhs = a * apply_laplacian(g, f).values + b * apply_laplacian(g, h).values
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())

    def test_grid_mismatch(self):
        g1 = build_grid(5, 5, (-1, 1, -1, 1))
        g2 = build_grid(5, 5, (0, 1, 0, 1))
        with pytest.raises(ValueError):
            apply_laplacian(g2, ScalarField.zeros(g1))


def plain_cell_sum_energy(grid, stack):
    """0.5 * (Sx/hx^2 + Sy/hy^2) * hx*hy, each S the einsum of the squared
    raw cell differences over the (3, ny-1, nx-1) cell view of a (3, ny, nx)
    array."""
    sums = []
    for d in (stack[:, :-1, 1:] - stack[:, :-1, :-1], stack[:, 1:, :-1] - stack[:, :-1, :-1]):
        full = np.zeros_like(stack)
        full[:, :-1, :-1] = d
        cells = full[:, :-1, :-1]
        sums.append(float(np.einsum("kij,kij->", cells, cells)))
    return 0.5 * (sums[0] / grid.hx**2 + sums[1] / grid.hy**2) * grid.hx * grid.hy


class TestDirichletEnergy:
    def test_constant_state_zero(self):
        g = build_grid(12, 9, (-1, 1, -1, 1))
        st = SystemState.constant(g, 1.0, 2.0, 0.5)
        assert dirichlet_energy(st) == 0.0

    def test_linear_component_matches_oracle(self):
        g = build_grid(101, 101, (-1, 1, -1, 1))
        st = make_state(g, lambda x, y: x, lambda x, y: 0 * x, lambda x, y: 0 * x)
        e = dirichlet_energy(st)
        # gradient 1 on every cell: the cell sum equals half the domain area
        assert e == pytest.approx(2.0, abs=1e-10)

    def test_random_state_matches_oracle(self):
        g = build_grid(6, 5, (-1, 1, -1, 1))
        rng = np.random.default_rng(3)
        st = SystemState.from_stack(g, rng.standard_normal((3, *g.shape)))
        assert dirichlet_energy(st) == pytest.approx(energy_oracle(st), rel=1e-12)

    def test_quadratic_homogeneity(self):
        g = build_grid(14, 14, (-1, 1, -1, 1))
        rng = np.random.default_rng(5)
        u = rng.standard_normal(g.shape)
        z = np.zeros(g.shape)
        e1 = dirichlet_energy(SystemState.from_stack(g, np.stack([u, z, z])))
        e2 = dirichlet_energy(SystemState.from_stack(g, np.stack([2.0 * u, z, z])))
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    def test_nonnegative(self):
        g = build_grid(7, 7, (-1, 1, -1, 1))
        rng = np.random.default_rng(11)
        st = SystemState.from_stack(g, rng.standard_normal((3, *g.shape)))
        assert dirichlet_energy(st) >= 0.0

    def test_stack_energy_is_bitwise_the_state_energy(self):
        # same operations and summation order, with or without work buffers
        g = build_grid(37, 29, (-1, 1, -1, 1))
        rng = np.random.default_rng(13)
        stack = rng.standard_normal((3, *g.shape))
        expected = dirichlet_energy(SystemState.from_stack(g, stack))
        work = np.empty((2, 3 * g.ny * g.nx))
        assert energy_of_stack(g, stack) == expected
        assert energy_of_stack(g, stack, work) == expected

    def test_stack_energy_is_bitwise_the_plain_cell_sum(self):
        # the forward-difference cell sums written out on plain arrays
        g = build_grid(37, 29, (-1, 1, -1, 1))
        stack = np.random.default_rng(17).standard_normal((3, *g.shape))
        expected = plain_cell_sum_energy(g, stack)
        work = np.empty((2, 3 * g.ny * g.nx))
        assert energy_of_stack(g, stack) == expected
        assert energy_of_stack(g, stack, work) == expected

    @pytest.mark.parametrize("nx, ny", [(9, 12), (12, 9), (61, 61), (201, 201)])
    def test_flat_differences_give_the_plain_cell_sum_bits(self, nx, ny):
        # hx != hy; exact zeros, -0.0 and a constant component, as the
        # projected iterates have them
        g = build_grid(nx, ny, (-1.0, 1.3, -0.7, 1.0))
        assert g.hx != g.hy
        rng = np.random.default_rng(nx * ny)
        work = np.empty((2, 3 * g.ny * g.nx))
        for trial in range(4):
            stack = rng.uniform(-1.0, 2.0, (3, *g.shape))
            stack[rng.random(stack.shape) < 0.3] = 0.0
            stack[rng.random(stack.shape) < 0.1] = -0.0
            stack[trial % 3] = (0.0, -0.0, 0.25)[trial % 3]
            expected = plain_cell_sum_energy(g, stack)
            assert energy_of_stack(g, stack) == expected
            assert energy_of_stack(g, stack, work) == expected


class TestMaxL2Step:
    def test_is_bitwise_the_plain_expression(self):
        g = build_grid(37, 29, (-1, 1, -1, 1))
        rng = np.random.default_rng(19)
        a, b = rng.standard_normal((2, 3, *g.shape))
        w = node_weights(g)
        d = a - b
        expected = float(np.sqrt(np.max(np.einsum("kij,ij,kij->k", d, w, d))))
        work = np.empty(a.shape)
        assert max_l2_step(w, a, b) == expected
        assert max_l2_step(w, a, b, work) == expected

    def test_is_the_largest_component_l2_norm(self):
        g = build_grid(9, 7, (-1, 1, -1, 1))
        rng = np.random.default_rng(23)
        a, b = rng.standard_normal((2, 3, *g.shape))
        norms = [l2_norm(g, a[k] - b[k]) for k in range(3)]
        assert max_l2_step(node_weights(g), a, b) == pytest.approx(max(norms), rel=1e-14)
        assert max_l2_step(node_weights(g), a, a) == 0.0


class TestProductViolation:
    def test_zero_component(self):
        g = build_grid(9, 9, (-1, 1, -1, 1))
        rng = np.random.default_rng(0)
        st = SystemState.from_stack(
            g, np.stack([rng.random(g.shape), rng.random(g.shape), np.zeros(g.shape)])
        )
        assert product_violation(st) == (0.0, 0.0)

    def test_unit_state(self):
        # integral of 1 over area 4, then square root
        g = build_grid(33, 33, (-1, 1, -1, 1))
        st = SystemState.constant(g, 1.0, 1.0, 1.0)
        l2, max_abs = product_violation(st)
        assert l2 == pytest.approx(2.0, abs=1e-12)
        assert max_abs == 1.0

    def test_weights_integrate_area(self):
        g = build_grid(21, 16, (-2, 1, 0, 2))
        assert node_weights(g).sum() == pytest.approx(6.0, rel=1e-13)


class TestRegionMean:
    def test_constant(self):
        g = build_grid(10, 10, (-1, 1, -1, 1))
        mask = RegionMask(g, np.zeros(g.shape, dtype=bool))
        mask.mask[2:5, 3:7] = True
        assert region_mean(ScalarField.constant(g, 4.2), mask) == pytest.approx(4.2, rel=1e-15)

    def test_odd_function_full_grid(self):
        g = build_grid(31, 31, (-1, 1, -1, 1))
        f = ScalarField.from_function(g, lambda x, y: x)
        mask = RegionMask(g, np.ones(g.shape, dtype=bool))
        assert abs(region_mean(f, mask)) <= 1e-14

    def test_empty_mask_rejected(self):
        g = build_grid(5, 5, (-1, 1, -1, 1))
        with pytest.raises(ValueError):
            region_mean(ScalarField.zeros(g), RegionMask(g, np.zeros(g.shape, bool)))


class TestL2Diff:
    def test_identical(self):
        g = build_grid(8, 8, (-1, 1, -1, 1))
        f = ScalarField.from_function(g, lambda x, y: x * y)
        assert l2_diff(f, f) == 0.0

    def test_unit_difference(self):
        g = build_grid(17, 9, (-1, 1, -1, 1))
        a = ScalarField.constant(g, 1.0)
        b = ScalarField.zeros(g)
        assert l2_diff(a, b) == pytest.approx(2.0, abs=1e-13)

    def test_random_pair_matches_direct_sum(self):
        g = build_grid(5, 5, (-1, 1, -1, 1))
        rng = np.random.default_rng(9)
        a = ScalarField(g, rng.random(g.shape))
        b = ScalarField(g, rng.random(g.shape))
        w = node_weights(g)
        acc = 0.0
        for j in range(g.ny):
            for i in range(g.nx):
                acc += w[j, i] * (a.values[j, i] - b.values[j, i]) ** 2
        assert l2_diff(a, b) == pytest.approx(np.sqrt(acc), rel=1e-13)

    def test_grid_mismatch(self):
        a = ScalarField.zeros(build_grid(5, 5, (-1, 1, -1, 1)))
        b = ScalarField.zeros(build_grid(6, 5, (-1, 1, -1, 1)))
        with pytest.raises(ValueError):
            l2_diff(a, b)


class TestFieldValidation:
    def test_shape_mismatch(self):
        g = build_grid(5, 5, (-1, 1, -1, 1))
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros((4, 5)))

    def test_nonfinite_rejected(self):
        g = build_grid(5, 5, (-1, 1, -1, 1))
        vals = np.zeros(g.shape)
        vals[2, 2] = np.inf
        with pytest.raises(ValueError):
            ScalarField(g, vals)

    def test_states_share_grid(self):
        g1 = build_grid(5, 5, (-1, 1, -1, 1))
        g2 = build_grid(5, 5, (0, 1, 0, 1))
        with pytest.raises(ValueError):
            SystemState(ScalarField.zeros(g1), ScalarField.zeros(g1), ScalarField.zeros(g2))


# valid values around the field under test; RunConfig is checked by validate()
CHECKED = {
    Grid: lambda **kw: Grid(**{**dict(nx=5, ny=5, x_min=0.0, x_max=1.0, y_min=0.0, y_max=1.0), **kw}),
    RegionSpec: lambda **kw: RegionSpec(**{"name": "inner_square", **kw}),
    RunConfig: lambda **kw: RunConfig(**kw).validate(),
}
SCALAR_FIELDS = [
    (cls, f.name, f.type.partition(" | ")[0])
    for cls in CHECKED for f in fields(cls) if f.type.partition(" | ")[0] in ("int", "float")
]


class TestCheckFields:
    @pytest.mark.parametrize(
        "cls, name, kind", SCALAR_FIELDS, ids=[f"{c.__name__}-{n}" for c, n, _ in SCALAR_FIELDS]
    )
    def test_every_numeric_field_is_checked_from_its_annotation(self, cls, name, kind):
        # Grid(nx=2.5) built a grid, RunConfig(eps=True) and RunConfig(jobs=2.5)
        # validated, and RegionSpec(a="0.3") raised TypeError
        if kind == "int":
            rejected = {2.5: "must be an integer", True: "must be an integer",
                        "3": "must be an integer"}
        else:
            rejected = {True: "must be a float", "0.1": "must be a float",
                        np.inf: "must be finite", np.nan: "must be finite"}
        for value, message in rejected.items():
            with pytest.raises(ValueError, match=f"^{name} {message}"):
                CHECKED[cls](**{name: value})

    FLOAT_FIELDS = [(cls, name) for cls, name, kind in SCALAR_FIELDS if kind == "float"]

    @pytest.mark.parametrize(
        "cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}-{n}" for c, n in FLOAT_FIELDS]
    )
    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["big", "-big"])
    def test_an_integer_beyond_the_float_range_is_not_finite(self, cls, name, value):
        # math.isfinite raised OverflowError; the message does not print the digits
        message = f"^{name} must be finite, got a number beyond the float range$"
        with pytest.raises(ValueError, match=message):
            CHECKED[cls](**{name: value})


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        g = build_grid(7, 5, (-1, 1, -1, 1))
        rng = np.random.default_rng(2)
        f = ScalarField(g, rng.standard_normal(g.shape))
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        back = field_from_csv(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_header_and_precision(self, tmp_path):
        g = build_grid(3, 3, (-1, 1, -1, 1))
        f = ScalarField.constant(g, 1.0 / 3.0)
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,value"
        assert len(lines) == 1 + 9
        # 17 significant digits survive the round trip
        assert float(lines[1].split(",")[2]) == 1.0 / 3.0

    def test_row_major_order(self, tmp_path):
        g = build_grid(3, 3, (0, 2, 0, 2))
        f = ScalarField.from_function(g, lambda x, y: 10 * y + x)
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        xs = [float(r[0]) for r in rows]
        ys = [float(r[1]) for r in rows]
        assert xs == [0, 1, 2, 0, 1, 2, 0, 1, 2]
        assert ys == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_bytes_match_a_csv_writer_reference(self, tmp_path):
        # a non-square 7 x 5 grid with signed zeros, non-finite and extreme
        # values, which ScalarField itself refuses, so they are set afterwards
        g = build_grid(7, 5, (-1.0, 2.0, -0.5, 0.75))
        f = ScalarField(g, np.random.default_rng(3).standard_normal(g.shape))
        f.values[0, :6] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]
        f.values[4, 6] = -1e-300
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        ref = tmp_path / "reference.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "value"])
            xs, ys = g.xs(), g.ys()
            for j in range(g.ny):
                for i in range(g.nx):
                    writer.writerow([f"{xs[i]:.17g}", f"{ys[j]:.17g}", f"{f.values[j, i]:.17g}"])
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes().count(b"\r\n") == 1 + 35

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty"),
            ("x,y,value\n", "no data rows"),
            ("x,y,value\n0,0\n", "3 columns"),
            ("x,y,value\n0,0,1\n1,0,1,5\n", "3 columns"),
        ],
        ids=["empty", "header-only", "short-row", "long-row"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "field.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            field_from_csv(path)

    @pytest.mark.parametrize("edit", ["shifted-column", "rows-out-of-order"])
    def test_rows_off_the_grid_rejected(self, tmp_path, edit):
        g = build_grid(4, 3, (0, 1, 0, 2))
        rows = [[x, y, x + y] for y in g.ys().tolist() for x in g.xs().tolist()]
        if edit == "shifted-column":
            for row in rows[1::4]:  # x = 1/3; the end columns set the grid as before
                row[0] += 0.3
        else:
            rows[5], rows[6] = rows[6], rows[5]
        path = tmp_path / "field.csv"
        path.write_text("x,y,value\n" + "".join(f"{x!r},{y!r},{v!r}\n" for x, y, v in rows))
        with pytest.raises(ValueError, match="not the row-major nodes"):
            field_from_csv(path)

    def test_decimal_coordinates_load(self, tmp_path):
        # 0.1 and 0.2 are not the nodes np.linspace(0, 0.3, 4) computes, but lie within rounding
        path = tmp_path / "field.csv"
        rows = [f"{x},{y},{x + y}" for y in (0, 0.1, 0.2) for x in (0, 0.1, 0.2, 0.3)]
        path.write_text("x,y,value\n" + "\n".join(rows) + "\n")
        f = field_from_csv(path)
        assert f.grid == build_grid(4, 3, (0.0, 0.3, 0.0, 0.2))
        assert f.values[2, 3] == 0.2 + 0.3
