import hashlib

import numpy as np
import pytest

from segsolve.contours import (
    ContourSet,
    contours_to_csv,
    extract_contours,
    extract_field_contours,
    render_svg,
    render_tiled_svg,
)
from segsolve.grid import ScalarField, SystemState, build_grid

SQUARE = (-1.0, 1.0, -1.0, 1.0)


def make_state(grid, f1, f2=None, f3=None):
    zero = lambda x, y: 0.0 * x
    return SystemState(
        ScalarField.from_function(grid, f1),
        ScalarField.from_function(grid, f2 or zero),
        ScalarField.from_function(grid, f3 or zero),
    )


def vertex_on_level(grid, values, x, y, delta, tol=1e-12):
    """Check that (x, y) sits on a grid edge where linear interpolation hits delta."""
    xs, ys = grid.xs(), grid.ys()
    i = int(np.argmin(np.abs(xs - x)))
    j = int(np.argmin(np.abs(ys - y)))
    if abs(ys[j] - y) <= 1e-13:  # horizontal edge
        i0 = int(np.searchsorted(xs, x) - 1)
        i0 = min(max(i0, 0), grid.nx - 2)
        va, vb = values[j, i0], values[j, i0 + 1]
        t = (x - xs[i0]) / (xs[i0 + 1] - xs[i0])
    elif abs(xs[i] - x) <= 1e-13:  # vertical edge
        j0 = int(np.searchsorted(ys, y) - 1)
        j0 = min(max(j0, 0), grid.ny - 2)
        va, vb = values[j0, i], values[j0 + 1, i]
        t = (y - ys[j0]) / (ys[j0 + 1] - ys[j0])
    else:
        return False
    return abs(va + t * (vb - va) - delta) <= tol


class TestExtraction:
    def test_field_below_threshold_yields_nothing(self):
        g = build_grid(21, 21, SQUARE)
        state = make_state(g, lambda x, y: 0.1 + 0.0 * x)
        cs = extract_contours(state, 0.5)
        assert cs.polylines[1] == [] and cs.polylines[2] == [] and cs.polylines[3] == []

    def test_linear_field_vertical_line(self):
        g = build_grid(101, 101, SQUARE)
        polys = extract_field_contours(g, g.meshgrid()[0], 0.5)
        assert len(polys) == 1
        verts = polys[0]
        assert np.abs(verts[:, 0] - 0.5).max() <= 1e-12
        assert verts[:, 1].min() == -1.0 and verts[:, 1].max() == 1.0

    def test_radial_field_circle(self):
        g = build_grid(81, 81, SQUARE)
        X, Y = g.meshgrid()
        polys = extract_field_contours(g, 1.0 - (X * X + Y * Y), 0.75)
        assert len(polys) == 1
        verts = polys[0]
        # closed loop
        assert np.array_equal(verts[0], verts[-1])
        radii = np.hypot(verts[:, 0], verts[:, 1])
        assert np.abs(radii - 0.5).max() <= g.hx

    def test_vertices_interpolate_to_level(self):
        g = build_grid(41, 41, SQUARE)
        X, Y = g.meshgrid()
        values = 1.0 - (X * X + 0.5 * Y * Y)
        for poly in extract_field_contours(g, values, 0.6):
            for x, y in poly:
                assert vertex_on_level(g, values, x, y, 0.6)

    def test_consecutive_vertices_close(self):
        g = build_grid(31, 37, SQUARE)
        X, Y = g.meshgrid()
        limit = np.hypot(g.hx, g.hy) + 1e-12
        for poly in extract_field_contours(g, np.sin(3 * X) * np.cos(2 * Y), 0.3):
            gaps = np.hypot(np.diff(poly[:, 0]), np.diff(poly[:, 1]))
            assert gaps.max() <= limit

    def test_vertices_inside_domain(self):
        g = build_grid(19, 23, SQUARE)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(g.shape)
        for poly in extract_field_contours(g, vals, 0.2):
            assert poly[:, 0].min() >= g.x_min and poly[:, 0].max() <= g.x_max
            assert poly[:, 1].min() >= g.y_min and poly[:, 1].max() <= g.y_max

    def test_threshold_nesting_on_radial_field(self):
        g = build_grid(61, 61, SQUARE)
        X, Y = g.meshgrid()
        vals = 1.0 - (X * X + Y * Y)
        inner = extract_field_contours(g, vals, 0.9)[0]
        outer = extract_field_contours(g, vals, 0.75)[0]
        assert inner[:, 0].min() >= outer[:, 0].min()
        assert inner[:, 0].max() <= outer[:, 0].max()
        assert inner[:, 1].min() >= outer[:, 1].min()
        assert inner[:, 1].max() <= outer[:, 1].max()

    def test_saddle_disambiguation_deterministic(self):
        g = build_grid(3, 3, SQUARE)
        vals = np.array([[1.0, 0.0, 1.0], [0.0, 0.2, 0.0], [1.0, 0.0, 1.0]])
        polys1 = extract_field_contours(g, vals, 0.5)
        polys2 = extract_field_contours(g, vals, 0.5)
        assert len(polys1) == len(polys2)
        for a, b in zip(polys1, polys2):
            assert np.array_equal(a, b)

    # cell (0, 0) of a 3x3 grid holds the saddle; its corners are
    # (bottom-left, bottom-right, top-right, top-left) before delta = 0.5
    # is subtracted, and the other five nodes lie below the level
    @pytest.mark.parametrize("corners, pairs", [
        # case 5: bottom-left and top-right inside
        ((1.0, 0.2, 1.0, 0.2), {("bottom", "right"), ("top", "left")}),  # centre inside
        ((1.0, 0.0, 1.0, 0.0), {("bottom", "right"), ("top", "left")}),  # centre on the level
        ((0.6, 0.0, 0.6, 0.0), {("left", "bottom"), ("right", "top")}),  # centre outside
        # case 10: bottom-right and top-left inside
        ((0.2, 1.0, 0.2, 1.0), {("left", "bottom"), ("right", "top")}),
        ((0.0, 1.0, 0.0, 1.0), {("left", "bottom"), ("right", "top")}),
        ((0.0, 0.6, 0.0, 0.6), {("bottom", "right"), ("top", "left")}),
    ], ids=[f"case{c}-center-{s}" for c in (5, 10) for s in ("inside", "on-level", "outside")])
    def test_saddle_pairing(self, corners, pairs):
        g = build_grid(3, 3, SQUARE)
        vals = np.zeros(g.shape)
        vals[0, 0], vals[0, 1], vals[1, 1], vals[1, 0] = corners
        # the crossings on the edges of cell (0, 0): y = -1, y = 0, x = -1, x = 0
        edge_of = {"bottom": (1, -1.0), "top": (1, 0.0), "left": (0, -1.0), "right": (0, 0.0)}
        order = list(edge_of).index

        def on_edge(v, name):
            axis, at = edge_of[name]
            return v[axis] == at and -1.0 < v[1 - axis] < 0.0

        found = set()
        for poly in extract_field_contours(g, vals, 0.5):
            for a, b in zip(poly[:-1], poly[1:]):
                names = [n for n in edge_of for v in (a, b) if on_edge(v, n)]
                if len(names) == 2:  # both ends on cell (0, 0): the cell's own segment
                    found.add(tuple(sorted(names, key=order)))
        assert found == {tuple(sorted(p, key=order)) for p in pairs}

    def test_field_with_exact_zeros_and_saddles_pinned(self):
        # values in {0, 0.5, 1} at delta = 0.5: exact zeros on the level and
        # many saddle cells, on grids with nx != ny
        digest = hashlib.sha256()
        rng = np.random.default_rng(17)
        for nx, ny in ((17, 12), (12, 17)):
            g = build_grid(nx, ny, SQUARE)
            for _ in range(3):
                vals = rng.choice([0.0, 0.5, 1.0], size=g.shape)
                for poly in extract_field_contours(g, vals, 0.5):
                    digest.update(np.int64(len(poly)).tobytes() + poly.tobytes())
        assert digest.hexdigest() == "ed0d5df71a08fa9832c0aaa0c54ccf540293b0a8d0a4d0a95930a51b904d6b7d"

    def test_delta_must_be_positive(self):
        g = build_grid(5, 5, SQUARE)
        with pytest.raises(ValueError):
            extract_contours(make_state(g, lambda x, y: x), 0.0)


class TestQualitativeInterfaces:
    def test_ex41_interface_layout(self):
        # the two lobes meet near y = 0, so their level curves stay in their
        # half-planes; the third component keeps its boundary value in a
        # collar and is drained where the lobes coexist
        from segsolve.diagnostics import RegionSpec, build_region_mask
        from segsolve.grid import region_mean
        from segsolve.projected_gradient import FistaConfig, fista_run

        g = build_grid(41, 41, SQUARE)
        state, report = fista_run(g, "ex41", FistaConfig())
        assert report.converged
        cs = extract_contours(state, delta=1e-3)
        u1_ymax = max(p[:, 1].max() for p in cs.polylines[1])
        u2_ymin = min(p[:, 1].min() for p in cs.polylines[2])
        assert u1_ymax <= 0.25
        assert u2_ymin >= -0.25
        assert cs.polylines[3]  # drained interior region has a boundary
        layer = build_region_mask(g, RegionSpec("boundary_layer"))
        inner = build_region_mask(g, RegionSpec("inner_square"))
        assert region_mean(state.u3, layer) > 10 * region_mean(state.u3, inner)


class TestSvg:
    def test_empty_set_has_only_frame(self):
        g = build_grid(11, 11, SQUARE)
        svg = render_svg(ContourSet(delta=0.5), g)
        assert svg.count("<path") == 0
        assert svg.count("<rect") == 1
        assert 'viewBox="-1 -1 2 2"' in svg

    def test_component_colors(self):
        g = build_grid(21, 21, SQUARE)
        X, Y = g.meshgrid()
        state = SystemState(
            ScalarField(g, 1.0 + X),
            ScalarField(g, 1.0 - X),
            ScalarField(g, 1.0 + Y),
        )
        svg = render_svg(extract_contours(state, 1.5), g)
        assert svg.count("<path") == 3
        for color in ("red", "blue", "green"):
            assert f'stroke="{color}"' in svg

    def test_byte_deterministic(self):
        g = build_grid(27, 27, SQUARE)
        X, Y = g.meshgrid()
        state = make_state(g, lambda x, y: np.cos(x) * np.cos(y))
        a = render_svg(extract_contours(state, 0.8), g)
        b = render_svg(extract_contours(state, 0.8), g)
        assert a == b

    def test_tiled_sheet(self):
        g = build_grid(15, 15, SQUARE)
        X, _ = g.meshgrid()
        cs = ContourSet(delta=0.5, polylines={1: extract_field_contours(g, X, 0.5), 2: [], 3: []})
        sheet = render_tiled_svg([(f"bc{k}", cs) for k in range(1, 10)], g)
        assert sheet.count("<g ") == 9
        assert sheet.count("<text") == 9
        assert sheet.startswith("<svg")


class TestCsv:
    def test_csv_layout(self, tmp_path):
        g = build_grid(21, 21, SQUARE)
        X, _ = g.meshgrid()
        state = SystemState(
            ScalarField(g, X + 1.0), ScalarField(g, 1.0 - X), ScalarField.zeros(g)
        )
        cs = extract_contours(state, 1.5)
        path = tmp_path / "contours.csv"
        contours_to_csv(cs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "component,polyline_id,x,y"
        comps = {int(line.split(",")[0]) for line in lines[1:]}
        assert comps == {1, 2}
