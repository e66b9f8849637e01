import numpy as np
import pytest

from segsolve.grid import build_grid
from segsolve.projection import (
    face_projections,
    project_and_pin,
    project_point,
    project_stack_interior,
    projection_selftest,
    projection_views,
)

SQUARE = (-1.0, 1.0, -1.0, 1.0)


def mask_of(k):
    """The (3, ...) zero mask of 1-based indices k; an index 0 gives an all-false column."""
    k = np.asarray(k)
    return k[None] == np.arange(1, 4).reshape(3, *(1,) * k.ndim)


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
    """`project_and_pin` on whole (3, ny, nx) fields; masks are read at interior nodes."""

    INNER = (slice(None), slice(1, -1), slice(1, -1))

    def _trace(self, grid):
        tr = np.zeros((3, *grid.shape))
        tr[0][grid.boundary_mask()] = 0.5
        return tr

    def test_feasible_state_unchanged_interior(self):
        g = build_grid(7, 7, SQUARE)
        rng = np.random.default_rng(5)
        stack = rng.uniform(0.0, 1.0, (3, *g.shape))
        stack[2] = 0.0  # already on the third face
        out = stack.copy()
        zero = project_and_pin(projection_views(out, self._trace(g)))
        assert np.array_equal(out[self.INNER], stack[self.INNER])
        assert np.array_equal(zero[self.INNER], mask_of(np.full((5, 5), 3)))

    def test_uniform_tie_zeroes_first_component(self):
        g = build_grid(6, 6, SQUARE)
        out = np.ones((3, *g.shape))
        zero = project_and_pin(projection_views(out, self._trace(g)))
        inner = out[self.INNER]
        assert np.all(inner[0] == 0.0) and np.all(inner[1:] == 1.0)
        assert np.array_equal(zero[self.INNER], mask_of(np.full((4, 4), 1)))

    @pytest.mark.parametrize("nx, ny", [(13, 9), (9, 13), (12, 9)], ids=["13x9", "9x13", "12x9"])
    def test_boundary_set_verbatim_and_interior_product_zero(self, nx, ny):
        # non-square grids and a ring trace that differs from node to node:
        # pinning rows with the column stride (or the reverse) shows
        g = build_grid(nx, ny, SQUARE)
        rng = np.random.default_rng(6)
        out = rng.uniform(-1.0, 2.0, (3, *g.shape))
        tr = rng.uniform(0.5, 1.0, (3, *g.shape))
        project_and_pin(projection_views(out, tr))
        b = g.boundary_mask()
        assert np.array_equal(out[:, b], tr[:, b])
        assert np.abs(np.prod(out[self.INNER], axis=0)).max() == 0.0

    def test_matches_pointwise_rule_on_random_block(self):
        g = build_grid(12, 10, SQUARE)
        rng = np.random.default_rng(7)
        stack = rng.uniform(-1.0, 2.0, (3, *g.shape))
        out = stack.copy()
        zero = project_and_pin(projection_views(out, self._trace(g)))
        for j in range(1, g.ny - 1):
            for i in range(1, g.nx - 1):
                expected, k_exp = project_point(stack[:, j, i])
                assert np.array_equal(out[:, j, i], expected)
                assert np.array_equal(zero[:, j, i], mask_of(k_exp))

    def test_distance_optimality_on_large_sample(self):
        g = build_grid(102, 102, SQUARE)  # 1e4 interior nodes
        rng = np.random.default_rng(8)
        stack = rng.uniform(-1.0, 2.0, (3, *g.shape))
        out = stack.copy()
        project_and_pin(projection_views(out, self._trace(g)))
        v = stack[self.INNER]
        diff = out[self.INNER] - v
        d2 = np.sum(diff * diff, axis=0)
        # face enumeration oracle, vectorized
        pos = np.maximum(v, 0.0)
        neg2 = np.sum((v - pos) ** 2, axis=0)
        best = neg2 + np.min(pos, axis=0) ** 2
        assert np.abs(d2 - best).max() <= 1e-12

    def test_hysteresis_field_path(self):
        g = build_grid(6, 6, SQUARE)
        out = np.full((3, *g.shape), 0.5)
        out[1] += 1e-12  # component 2 barely above the tie
        prev = mask_of(np.full(g.shape, 2))
        zero = project_and_pin(projection_views(out, self._trace(g)), prev, 1e-10)
        assert np.array_equal(zero[self.INNER], prev[self.INNER])
        assert np.all(out[1, 1:-1, 1:-1] == 0.0)


class TestProjectStackInterior:
    def _block(self, seed):
        # prev_k holds 1-based previous indices, 0 (no previous phase) included
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 2.0, (3, 9, 11))
        values[:, :3] = 0.5  # exact three-way ties
        values[1, 3:5] += 1e-12  # near-ties inside the hysteresis band
        prev_k = rng.integers(0, 4, values.shape[1:])
        return values, prev_k

    def test_hysteresis_matches_pointwise_rule(self):
        values, prev_k = self._block(21)
        assert not mask_of(prev_k).any(axis=0).all()  # some nodes have no previous phase
        out, zero = project_stack_interior(values, mask_of(prev_k), 1e-10)
        for j in range(values.shape[1]):
            for i in range(values.shape[2]):
                prev = int(prev_k[j, i])
                expected, k_exp = project_point(values[:, j, i], prev=prev, tau=1e-10)
                assert np.array_equal(out[:, j, i], expected)
                assert np.array_equal(zero[:, j, i], mask_of(k_exp))

    def test_in_place_output_matches_fresh_output(self):
        values, prev_k = self._block(22)
        for prev, tau in ((None, 0.0), (mask_of(prev_k), 1e-10)):
            fresh, zero_fresh = project_stack_interior(values, prev, tau)
            block = values.copy()
            out, zero = project_stack_interior(block, prev, tau, projection_views(block))
            assert out is block
            assert fresh.tobytes() == block.tobytes()
            assert np.array_equal(zero, zero_fresh) and zero.dtype == bool

    def _tie_block(self, seed):
        # two- and three-way ties, exact zeros against -0.0, near-ties inside
        # and just outside the hysteresis band, and negative entries
        rng = np.random.default_rng(seed)
        shape = (3, 17, 13)
        values = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.5, 1.0], size=shape)
        values[:, :4] += rng.uniform(-1.0, 2.0, (3, 4, 13))
        values[1, 4:6] = values[0, 4:6] + 1e-12
        values[2, 6:8] = values[0, 6:8] + 3e-10
        prev_k = rng.integers(0, 4, shape[1:])
        return values, prev_k

    @pytest.mark.parametrize("tau", [0.0, 1e-10])
    @pytest.mark.parametrize("with_prev", [False, True])
    def test_values_and_indices_are_the_pointwise_bits(self, tau, with_prev):
        # the zero mask is the one-hot form of project_point's index
        values, prev_k = self._tie_block(31 + int(with_prev))
        prev = mask_of(prev_k) if with_prev else None
        out, zero = project_stack_interior(values, prev, tau)
        block = values.copy()
        views = projection_views(block)
        p, zero_work = project_stack_interior(block, prev, tau, views)
        assert p.tobytes() == out.tobytes() and np.array_equal(zero_work, zero)
        assert zero_work is views.zero
        for j in range(values.shape[1]):
            for i in range(values.shape[2]):
                pp = int(prev_k[j, i]) if with_prev else None
                expected, k_exp = project_point(values[:, j, i], prev=pp, tau=tau)
                assert out[:, j, i].tobytes() == expected.tobytes()
                assert np.array_equal(zero[:, j, i], mask_of(k_exp))
        if not with_prev:
            # argmin's one-hot, and the positive parts with it zeroed, byte for byte
            pos = np.maximum(values, 0.0)
            assert np.array_equal(zero, mask_of(np.argmin(pos, axis=0) + 1))
            assert out.tobytes() == np.where(zero, 0.0, pos).tobytes()


class TestProjectionViews:
    """Records built once per stack give the bits of the plain path."""

    def _data(self, nx, ny, seed):
        # values with exact ties and near-ties, a ring trace that differs from
        # node to node, and a one-hot previous mask
        rng = np.random.default_rng(seed)
        values = rng.choice([-0.5, 0.0, 0.25, 0.5, 1.0], size=(3, ny, nx))
        values[:, : ny // 2] += rng.uniform(-1.0, 2.0, (3, ny // 2, nx))
        values[1, -3:] = values[0, -3:] + 1e-12
        tr = rng.uniform(0.5, 1.0, (3, ny, nx))
        prev = mask_of(rng.integers(1, 4, (ny, nx)))
        return values, tr, prev

    @pytest.mark.parametrize("tau", [0.0, 1e-10])
    @pytest.mark.parametrize("with_prev", [False, True])
    @pytest.mark.parametrize("nx, ny", [(13, 9), (9, 13), (12, 9)], ids=["13x9", "9x13", "12x9"])
    def test_views_give_the_plain_bits(self, nx, ny, with_prev, tau):
        values, tr, prev = self._data(nx, ny, 41 + nx)
        stack = np.empty_like(values)
        keep, thr = np.empty(values.shape, bool), np.empty((ny, nx))
        views = [projection_views(stack, tr, keep, thr) for _ in range(2)]
        for k, v in enumerate(views):
            for seed in range(2):  # the views see the stack's later values
                data = values + seed
                plain = data.copy()
                zero_plain = project_and_pin(projection_views(plain, tr),
                                             prev if with_prev else None, tau)
                stack[...] = data
                last = views[1 - k].zero  # the other record holds the last mask, as in the loops
                last[...] = prev
                zero = project_and_pin(v, last if with_prev else None, tau)
                assert zero is v.zero and zero is not last
                assert stack.tobytes() == plain.tobytes()
                assert np.array_equal(zero, zero_plain)

    def test_kernel_views_without_a_trace(self):
        values, _, prev = self._data(11, 9, 7)
        out = np.empty_like(values)
        p, zero = project_stack_interior(values, prev, 1e-10, projection_views(out))
        fresh, zero_fresh = project_stack_interior(values, prev, 1e-10)
        assert p is out and p.tobytes() == fresh.tobytes() and np.array_equal(zero, zero_fresh)

    @pytest.mark.parametrize(
        "project",
        [lambda v: project_stack_interior(v.stack, v.zero, 1e-10, v),
         lambda v: project_and_pin(v, v.zero, 1e-10)],
        ids=["project_stack_interior", "project_and_pin"],
    )
    def test_prev_that_is_the_written_mask_refused(self, project):
        # the mask is written before the hysteresis reads prev, so prev must be another mask
        values, tr, prev = self._data(11, 9, 8)
        stack = values.copy()
        views = projection_views(stack, tr)
        views.zero[...] = prev
        with pytest.raises(ValueError, match="prev is the zero mask"):
            project(views)
        assert stack.tobytes() == values.tobytes()  # refused before writing
        assert np.array_equal(views.zero, prev)


class TestControls:
    @pytest.mark.parametrize("prev", [-1, 4])
    def test_previous_index_outside_0_to_3_rejected(self, prev):
        with pytest.raises(ValueError, match="previous index"):
            project_point((0.5, 0.5, 1.0), prev=prev)

    def test_selftest_count_validation(self):
        with pytest.raises(ValueError):
            projection_selftest(0, seed=1)
