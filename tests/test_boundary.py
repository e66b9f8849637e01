import numpy as np
import pytest

from segsolve.boundary import (
    BUILTIN_IDS,
    BoundaryTrace,
    _segregated_trace,
    builtin_config,
    evaluate_bc,
    sup_bound,
    trace_from_csv,
    validate_segregation,
)
from segsolve.grid import build_grid

SQUARE = (-1.0, 1.0, -1.0, 1.0)


def node_values(trace, x, y):
    g = trace.grid
    i = int(np.argmin(np.abs(g.xs() - x)))
    j = int(np.argmin(np.abs(g.ys() - y)))
    assert abs(g.xs()[i] - x) < 1e-12 and abs(g.ys()[j] - y) < 1e-12
    return trace.phi[:, j, i]


class TestTableFormulas:
    def test_bc4_point(self):
        g = build_grid(9, 9, SQUARE)
        tr = evaluate_bc(builtin_config("bc4"), g)
        assert node_values(tr, -0.5, -1.0) == pytest.approx([0.0, 0.5, 0.25])

    def test_ex41_point(self):
        g = build_grid(11, 11, SQUARE)
        tr = evaluate_bc(builtin_config("ex41"), g)
        assert node_values(tr, 1.0, -0.4) == pytest.approx([0.4, 0.0, 0.25])

    def test_bc1_cosine_lobes_at_two_thirds_pi(self):
        # boundary point on the top edge at angle theta = 2*pi/3
        cfg = builtin_config("bc1")
        x, y = -1.0 / np.sqrt(3.0), 1.0
        vals = [float(ev(np.float64(x), np.float64(y))) for ev in cfg.evaluators]
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert vals[1] == 0.0
        assert vals[2] == 0.0

    def test_bc3_edges(self):
        g = build_grid(9, 9, SQUARE)
        tr = evaluate_bc(builtin_config("bc3"), g)
        assert node_values(tr, 0.0, -1.0) == pytest.approx([1.0, 0.0, 0.0])
        assert node_values(tr, 0.0, 1.0) == pytest.approx([0.0, 1.0, 0.0])
        assert node_values(tr, 1.0, 0.0) == pytest.approx([0.0, 0.0, 0.5])

    def test_bc6_corner_anchors(self):
        g = build_grid(9, 9, SQUARE)
        tr = evaluate_bc(builtin_config("bc6"), g)
        assert node_values(tr, -1.0, -1.0)[0] == 1.0
        assert node_values(tr, 1.0, 1.0)[1] == 1.0
        assert node_values(tr, 1.0, -1.0)[2] == 1.0
        # distance formula on the bottom edge midpoint
        assert node_values(tr, 0.0, -1.0)[0] == pytest.approx(0.5)

    def test_bc8_split_edge_and_strict_inequality(self):
        g = build_grid(9, 9, SQUARE)
        tr = evaluate_bc(builtin_config("bc8"), g)
        assert node_values(tr, -0.5, -1.0) == pytest.approx([1.0, 0.0, 0.0])
        assert node_values(tr, 0.5, -1.0) == pytest.approx([0.0, 1.0, 0.0])
        # undefined point x = 0 on y = -1: both components zero
        assert node_values(tr, 0.0, -1.0) == pytest.approx([0.0, 0.0, 0.0])
        assert node_values(tr, 0.5, 1.0) == pytest.approx([0.0, 0.0, 1.0])

    def test_corner_resolution_bc5(self):
        g = build_grid(9, 9, SQUARE)
        tr = evaluate_bc(builtin_config("bc5"), g)
        # smallest-index edge value kept, conflicting second component zeroed
        for x, y in [(-1, -1), (1, -1), (-1, 1), (1, 1)]:
            assert node_values(tr, x, y) == pytest.approx([1.0, 0.0, 0.3])
        assert node_values(tr, 0.0, 1.0) == pytest.approx([1.0, 0.0, 0.3])
        assert node_values(tr, 1.0, 0.0) == pytest.approx([0.0, 1.0, 0.3])

    def test_corner_resolution_bc9(self):
        g = build_grid(9, 9, SQUARE)
        tr = evaluate_bc(builtin_config("bc9"), g)
        assert node_values(tr, -1.0, 1.0) == pytest.approx([1.0, 0.0, 0.2])
        assert node_values(tr, 1.0, -1.0) == pytest.approx([1.0, 0.0, 0.2])
        assert node_values(tr, 1.0, 1.0) == pytest.approx([0.0, 1.0, 0.2])


class TestValidation:
    @pytest.mark.parametrize("bc_id", BUILTIN_IDS)
    def test_all_builtins_segregated_at_51(self, bc_id):
        g = build_grid(51, 51, SQUARE)
        tr = evaluate_bc(builtin_config(bc_id), g)
        assert validate_segregation(tr).ok
        # independent exhaustive check over the boundary ring
        b = g.boundary_mask()
        prod = tr.phi[0] * tr.phi[1] * tr.phi[2]
        assert float(np.max(prod[b])) <= 1e-14
        assert float(np.min(tr.phi[:, b])) >= 0.0

    def test_violation_reported(self):
        g = build_grid(5, 5, SQUARE)
        phi = np.zeros((3, *g.shape))
        phi[:, 0, 2] = 0.1
        tr = BoundaryTrace(g, phi)
        rep = validate_segregation(tr)
        assert not rep.ok
        assert len(rep.violations) == 1
        i, j, x, y, vals = rep.violations[0]
        assert (i, j) == (2, 0) and y == -1.0
        assert vals == pytest.approx((0.1, 0.1, 0.1))

    def test_negative_trace_rejected(self):
        g = build_grid(5, 5, SQUARE)
        phi = np.zeros((3, *g.shape))
        phi[0, 0, 1] = -0.5
        with pytest.raises(ValueError):
            BoundaryTrace(g, phi)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_trace_rejected(self, value):
        g = build_grid(5, 5, SQUARE)
        phi = np.zeros((3, *g.shape))
        phi[2, -1, 3] = value
        with pytest.raises(ValueError, match="finite"):
            BoundaryTrace(g, phi)

    def test_corner_with_negative_components_rejected(self):
        # its product is positive, but it has no second positive component
        # to zero: the nonnegativity check refuses it
        g = build_grid(5, 5, SQUARE)
        phi = np.zeros((3, *g.shape))
        phi[:, 0, 0] = (-1.0, -1.0, 2.0)
        with pytest.raises(ValueError, match="nonnegative"):
            _segregated_trace(g, phi, "custom")

    def test_domain_mismatch(self):
        g = build_grid(9, 9, (0, 1, 0, 1))
        with pytest.raises(ValueError, match="domain"):
            evaluate_bc(builtin_config("bc1"), g)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            builtin_config("bc10")


class TestSupBound:
    def test_bc3_is_one(self):
        g = build_grid(21, 21, SQUARE)
        assert sup_bound(evaluate_bc(builtin_config("bc3"), g)) == 1.0

    def test_ex41_attains_one_at_corners(self):
        g = build_grid(17, 17, SQUARE)
        assert sup_bound(evaluate_bc(builtin_config("ex41"), g)) == 1.0

    def test_zero_trace(self):
        g = build_grid(7, 7, SQUARE)
        tr = BoundaryTrace(g, np.zeros((3, *g.shape)))
        assert sup_bound(tr) == 0.0

    @pytest.mark.parametrize(
        "bc_id,row_constants",
        [
            ("bc1", ()),
            ("bc2", ()),
            ("bc3", (1.0, 0.5)),
            ("bc4", (0.25,)),
            ("bc5", (1.0, 0.3)),
            ("bc6", (1.0,)),
            ("bc7", (0.3,)),
            ("bc8", (1.0,)),
            ("bc9", (1.0, 0.2)),
        ],
    )
    def test_sup_dominates_row_constants(self, bc_id, row_constants):
        g = build_grid(51, 51, SQUARE)
        m = sup_bound(evaluate_bc(builtin_config(bc_id), g))
        for c in row_constants:
            assert m >= c
        # cosine rows undersample the peak slightly; all stay near one
        assert 0.99 <= m <= 1.0 + 1e-12


class TestResolutionConsistency:
    @pytest.mark.parametrize("bc_id", BUILTIN_IDS)
    def test_refining_preserves_shared_nodes(self, bc_id):
        coarse = build_grid(26, 26, SQUARE)
        fine = build_grid(51, 51, SQUARE)
        tc = evaluate_bc(builtin_config(bc_id), coarse)
        tf = evaluate_bc(builtin_config(bc_id), fine)
        # every coarse node is a fine node (index doubled); compare the ring
        b = coarse.boundary_mask()
        for j, i in zip(*np.nonzero(b)):
            assert tc.phi[:, j, i] == pytest.approx(tf.phi[:, 2 * j, 2 * i], abs=1e-13)


class TestCustomTrace:
    VALID_TABLE = (
        "side,coord,phi1,phi2,phi3\n"
        "bottom,-1,1,0,0\n"
        "bottom,1,0,0,1\n"
        "top,-1,0,1,0\n"
        "top,1,0,1,0\n"
        "left,-1,1,0,0\n"
        "left,1,0,1,0\n"
        "right,-1,0,0,1\n"
        "right,1,0,1,0\n"
    )

    def test_tabulated_interpolation(self, tmp_path):
        csv_path = tmp_path / "trace.csv"
        csv_path.write_text(self.VALID_TABLE)
        g = build_grid(5, 5, SQUARE)
        tr = trace_from_csv(csv_path, g)
        # linear interpolation along the bottom edge
        assert node_values(tr, 0.0, -1.0) == pytest.approx([0.5, 0.0, 0.5])
        # corners owned by the bottom/top tables
        assert node_values(tr, -1.0, -1.0) == pytest.approx([1.0, 0.0, 0.0])
        assert validate_segregation(tr).ok

    @pytest.mark.parametrize(
        "row, match",
        [
            ("bottom,0,nan,0,0", "non-finite"),
            ("top,0.5,0,inf,0", "non-finite"),
            ("bottom,0,1,1,1", "segregation"),
        ],
    )
    def test_bad_row_rejected(self, tmp_path, row, match):
        p = tmp_path / "trace.csv"
        p.write_text(self.VALID_TABLE + row + "\n")
        with pytest.raises(ValueError, match=match):
            trace_from_csv(p, build_grid(9, 9, SQUARE))

    def test_conflicting_corner_row_resolved(self, tmp_path):
        # a corner value positive in all three components keeps phi1 and
        # phi3, as the built-in corners do
        p = tmp_path / "trace.csv"
        p.write_text(
            self.VALID_TABLE.replace("bottom,-1,1,0,0", "bottom,-1,1,1,1\nbottom,-0.99,1,0,0")
        )
        tr = trace_from_csv(p, build_grid(9, 9, SQUARE))
        assert node_values(tr, -1.0, -1.0) == pytest.approx([1.0, 0.0, 1.0])
        assert validate_segregation(tr).ok

    def test_bad_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            trace_from_csv(p, build_grid(5, 5, SQUARE))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("", "empty"),
            ("side,coord,phi1,phi2,phi3\n", "no data rows"),
            ("side,coord,phi1,phi2,phi3\nbottom,0.5\n", "5 columns"),
            ("side,coord,phi1,phi2,phi3\nbottom,0.5,1,0,0,7\n", "5 columns"),
        ],
        ids=["empty", "header-only", "short-row", "long-row"],
    )
    def test_malformed_file_rejected(self, tmp_path, text, match):
        p = tmp_path / "trace.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=match):
            trace_from_csv(p, build_grid(5, 5, SQUARE))
