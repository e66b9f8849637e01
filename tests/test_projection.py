import numpy as np
import pytest

from segsolve.boundary import BoundaryTrace
from segsolve.grid import SystemState, build_grid, interior_product_max
from segsolve.projection import (
    PhaseAssignment,
    ProjectionControls,
    assignment_to_csv,
    face_projections,
    project_field,
    project_point,
    project_stack_interior,
    projection_selftest,
)

SQUARE = (-1.0, 1.0, -1.0, 1.0)


class TestProjectPoint:
    def test_smallest_positive_part_zeroed(self):
        out, k = project_point((1.0, 2.0, 3.0))
        assert np.array_equal(out, [0.0, 2.0, 3.0]) and k == 1

    def test_already_feasible_is_identity(self):
        out, k = project_point((0.5, 0.3, 0.0))
        assert np.array_equal(out, [0.5, 0.3, 0.0]) and k == 3

    def test_negative_entry_truncated(self):
        out, k = project_point((-1.0, 2.0, 3.0))
        assert np.array_equal(out, [0.0, 2.0, 3.0]) and k == 1

    def test_tie_goes_to_smallest_index(self):
        out, k = project_point((2.0, 2.0, 3.0))
        assert np.array_equal(out, [0.0, 2.0, 3.0]) and k == 1

    def test_feasibility_always(self):
        rng = np.random.default_rng(1)
        for v in rng.uniform(-2.0, 2.0, size=(500, 3)):
            out, k = project_point(v)
            assert out[k - 1] == 0.0
            assert np.all(out >= 0.0)
            assert out[0] * out[1] * out[2] == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for v in rng.uniform(-1.0, 2.0, size=(200, 3)):
            once, k1 = project_point(v)
            twice, k2 = project_point(once)
            assert np.array_equal(once, twice) and k1 == k2

    def test_optimal_against_face_enumeration(self):
        ok, failures = projection_selftest(20000, seed=123)
        assert ok, failures[:3]

    def test_nonexpansive_on_shared_face(self):
        rng = np.random.default_rng(3)
        pairs = rng.uniform(-1.0, 2.0, size=(400, 2, 3))
        for v, w in pairs:
            pv, kv = project_point(v)
            pw, kw = project_point(w)
            if kv != kw:
                continue
            assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-14

    def test_hysteresis_keeps_previous_at_near_tie(self):
        v = (0.5, 0.5 + 1e-12, 1.0)
        out_plain, k_plain = project_point(v)
        assert k_plain == 1
        out_hyst, k_hyst = project_point(v, prev=2, tau=1e-10)
        assert k_hyst == 2
        assert out_hyst[1] == 0.0
        # feasibility never sacrificed
        assert np.all(out_hyst >= 0.0) and np.prod(out_hyst) == 0.0

    def test_hysteresis_ignored_far_from_tie(self):
        out, k = project_point((0.1, 5.0, 6.0), prev=3, tau=1e-10)
        assert k == 1 and out[0] == 0.0

    def test_face_projection_distances(self):
        v = np.array([-0.5, 1.0, 2.0])
        cands, d2 = face_projections(v)
        assert d2 == pytest.approx([0.25, 0.25 + 1.0, 0.25 + 4.0])
        assert np.array_equal(cands[0], [0.0, 1.0, 2.0])


class TestProjectField:
    def _trace(self, grid):
        phi = np.zeros((3, *grid.shape))
        b = grid.boundary_mask()
        phi[0][b] = 0.5
        return BoundaryTrace(grid, phi)

    def test_feasible_state_unchanged_interior(self):
        g = build_grid(7, 7, SQUARE)
        rng = np.random.default_rng(5)
        stack = rng.uniform(0.0, 1.0, (3, *g.shape))
        stack[2] = 0.0  # already on the third face
        state = SystemState.from_stack(g, stack)
        out, pa = project_field(state, self._trace(g))
        inner = slice(1, -1)
        assert np.array_equal(out.u1.values[inner, inner], stack[0][inner, inner])
        assert np.array_equal(out.u2.values[inner, inner], stack[1][inner, inner])
        assert np.all(pa.k[inner, inner] == 3)

    def test_uniform_tie_zeroes_first_component(self):
        g = build_grid(6, 6, SQUARE)
        state = SystemState.constant(g, 1.0, 1.0, 1.0)
        out, pa = project_field(state, self._trace(g))
        inner = slice(1, -1)
        assert np.all(out.u1.values[inner, inner] == 0.0)
        assert np.all(out.u2.values[inner, inner] == 1.0)
        assert np.all(out.u3.values[inner, inner] == 1.0)
        assert np.all(pa.k[inner, inner] == 1)

    def test_boundary_set_verbatim_and_interior_product_zero(self):
        g = build_grid(9, 9, SQUARE)
        rng = np.random.default_rng(6)
        state = SystemState.from_stack(g, rng.uniform(-1.0, 2.0, (3, *g.shape)))
        trace = self._trace(g)
        out, _ = project_field(state, trace)
        b = g.boundary_mask()
        for k in range(3):
            assert np.array_equal(out.components[k].values[b], trace.phi[k][b])
        assert interior_product_max(out) == 0.0

    def test_matches_pointwise_rule_on_random_block(self):
        g = build_grid(12, 10, SQUARE)
        rng = np.random.default_rng(7)
        stack = rng.uniform(-1.0, 2.0, (3, *g.shape))
        state = SystemState.from_stack(g, stack)
        out, pa = project_field(state, self._trace(g))
        for j in range(1, g.ny - 1):
            for i in range(1, g.nx - 1):
                expected, k = project_point(stack[:, j, i])
                got = np.array([out.components[m].values[j, i] for m in range(3)])
                assert np.array_equal(got, expected)
                assert pa.k[j, i] == k

    def test_distance_optimality_on_large_sample(self):
        g = build_grid(102, 102, SQUARE)  # 1e4 interior nodes
        rng = np.random.default_rng(8)
        stack = rng.uniform(-1.0, 2.0, (3, *g.shape))
        state = SystemState.from_stack(g, stack)
        out, _ = project_field(state, self._trace(g))
        inner = (slice(1, -1), slice(1, -1))
        diff = out.stack()[(slice(None), *inner)] - stack[(slice(None), *inner)]
        d2 = np.sum(diff * diff, axis=0)
        # face enumeration oracle, vectorized
        pos = np.maximum(stack[(slice(None), *inner)], 0.0)
        neg2 = np.sum((stack[(slice(None), *inner)] - pos) ** 2, axis=0)
        best = neg2 + np.min(pos, axis=0) ** 2
        assert np.abs(d2 - best).max() <= 1e-12

    def test_hysteresis_field_path(self):
        g = build_grid(6, 6, SQUARE)
        stack = np.full((3, *g.shape), 0.5)
        stack[1] += 1e-12  # component 2 barely above the tie
        state = SystemState.from_stack(g, stack)
        prev = PhaseAssignment(g, np.full(g.shape, 2, dtype=np.int8))
        out, pa = project_field(
            state, self._trace(g), prev=prev, controls=ProjectionControls(tau=1e-10)
        )
        inner = slice(1, -1)
        assert np.all(pa.k[inner, inner] == 2)
        assert np.all(out.u2.values[inner, inner] == 0.0)

    def test_csv_export(self, tmp_path):
        g = build_grid(4, 4, SQUARE)
        pa = PhaseAssignment(g, np.zeros(g.shape, dtype=np.int8))
        pa.k[1:-1, 1:-1] = [[1, 2], [3, 1]]
        path = tmp_path / "phase.csv"
        assignment_to_csv(pa, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,k"
        assert len(lines) == 1 + 4
        assert lines[1].endswith(",1") and lines[2].endswith(",2")


class TestProjectStackInterior:
    def _block(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 2.0, (3, 9, 11))
        values[:, :3] = 0.5  # exact three-way ties
        values[1, 3:5] += 1e-12  # near-ties inside the hysteresis band
        prev_k = rng.integers(0, 4, values.shape[1:]).astype(np.int8)
        return values, prev_k

    def test_hysteresis_matches_pointwise_rule(self):
        values, prev_k = self._block(21)
        out, k = project_stack_interior(values, prev_k, 1e-10)
        for j in range(values.shape[1]):
            for i in range(values.shape[2]):
                prev = int(prev_k[j, i]) or None
                expected, k_exp = project_point(values[:, j, i], prev=prev, tau=1e-10)
                assert np.array_equal(out[:, j, i], expected)
                assert k[j, i] == k_exp

    def test_in_place_output_matches_fresh_output(self):
        values, prev_k = self._block(22)
        for prev, tau in ((None, 0.0), (prev_k, 1e-10)):
            fresh, k_fresh = project_stack_interior(values, prev, tau)
            block = values.copy()
            out, k = project_stack_interior(block, prev, tau, out=block)
            assert out is block
            assert fresh.tobytes() == block.tobytes()
            assert np.array_equal(k, k_fresh) and k.dtype == np.int8

    def _tie_block(self, seed):
        # two- and three-way ties, exact zeros against -0.0, near-ties inside
        # and just outside the hysteresis band, and negative entries
        rng = np.random.default_rng(seed)
        shape = (3, 17, 13)
        values = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5, 1.0], size=shape)
        values[:, :4] += rng.uniform(-1.0, 2.0, (3, 4, 13))
        values[1, 4:6] = values[0, 4:6] + 1e-12
        values[2, 6:8] = values[0, 6:8] + 3e-10
        prev_k = rng.integers(0, 4, shape[1:]).astype(np.int8)
        return values, prev_k

    @pytest.mark.parametrize("tau", [0.0, 1e-10])
    @pytest.mark.parametrize("with_prev", [False, True])
    def test_values_and_indices_are_the_pointwise_bits(self, tau, with_prev):
        values, prev_k = self._tie_block(31 + int(with_prev))
        prev = prev_k if with_prev else None
        work = (np.empty(values.shape, bool), np.empty(values.shape, bool),
                np.empty(values.shape[1:]))
        out, k = project_stack_interior(values, prev, tau)
        block = values.copy()
        p, k_work = project_stack_interior(block, prev, tau, out=block, work=work)
        assert p.tobytes() == out.tobytes() and np.array_equal(k_work, k)
        for j in range(values.shape[1]):
            for i in range(values.shape[2]):
                pp = (int(prev_k[j, i]) or None) if with_prev else None
                expected, k_exp = project_point(values[:, j, i], prev=pp, tau=tau)
                assert out[:, j, i].tobytes() == expected.tobytes()
                assert k[j, i] == k_exp

    def test_without_indices_the_values_are_the_same_bytes(self):
        values, _ = self._tie_block(33)
        out, k = project_stack_interior(values)
        bare, none = project_stack_interior(values, indices=False)
        assert none is None and bare.tobytes() == out.tobytes()
        assert np.array_equal(k, np.argmin(np.maximum(values, 0.0), axis=0) + 1)


class TestControls:
    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            ProjectionControls(tau=-1e-3)

    def test_selftest_count_validation(self):
        with pytest.raises(ValueError):
            projection_selftest(0, seed=1)
