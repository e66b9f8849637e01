import subprocess
import sys

import numpy as np
import pytest

from segsolve import linear_solver, projected_gradient
from segsolve.boundary import BUILTIN_IDS, builtin_config, evaluate_bc
from segsolve.grid import ScalarField, build_grid, l2_norm
from segsolve.linear_solver import (
    HelmholtzProblem,
    LinearSolveError,
    REL_TOL,
    _galerkin_coefficients,
    _RedBlackPlan,
    dense_interior_system,
    dense_oracle_solve,
    harmonic_extension,
    interior_laplacian_matrix,
    solve_helmholtz,
    solve_helmholtz_with_info,
)

SQUARE = (-1.0, 1.0, -1.0, 1.0)


def boundary_only(grid, full):
    out = np.zeros(grid.shape)
    b = grid.boundary_mask()
    out[b] = full[b]
    return out


def random_problem(grid, rng, eps_range=(-4.0, 0.0), load=False):
    w = rng.uniform(0.0, 3.0, grid.shape)
    tr = boundary_only(grid, rng.uniform(0.0, 1.0, grid.shape))
    eps = 10.0 ** rng.uniform(*eps_range)
    f = rng.standard_normal(grid.shape) if load else None
    return HelmholtzProblem(grid, w, eps, tr, load=f)


def plain_system(p):
    """Diagonal, operator and right-hand side of the interior system, on
    (ny - 2, nx - 2) arrays with 2-D slices."""
    g = p.grid
    ax, ay = 1.0 / g.hx**2, 1.0 / g.hy**2
    diag = 2.0 * ax + 2.0 * ay + p.weight[1:-1, 1:-1] / p.epsilon

    def apply_op(v):
        y = diag * v
        y[:, 1:] -= ax * v[:, :-1]
        y[:, :-1] -= ax * v[:, 1:]
        y[1:, :] -= ay * v[:-1, :]
        y[:-1, :] -= ay * v[1:, :]
        return y

    tr = p.trace
    b = np.zeros(diag.shape) if p.load is None else p.load[1:-1, 1:-1].copy()
    b[:, 0] += ax * tr[1:-1, 0]
    b[:, -1] += ax * tr[1:-1, -1]
    b[0, :] += ay * tr[0, 1:-1]
    b[-1, :] += ay * tr[-1, 1:-1]
    return diag, apply_op, b


def plain_cg(apply_op, rhs, diag, scale, rel_tol):
    """Jacobi-PCG from zero, stopping at ||r||_{D^-1} <= rel_tol * scale."""
    x = np.zeros(diag.shape)
    r = rhs.copy()
    z = r / diag
    d = z.copy()
    rz = np.sum(r * z)
    iters = 0
    while np.sqrt(rz) / scale > rel_tol:
        ad = apply_op(d)
        alpha = rz / np.sum(d * ad)
        x += alpha * d
        r -= alpha * ad
        z = r / diag
        rz_new = np.sum(r * z)
        d = z + (rz_new / rz) * d
        rz = rz_new
        iters += 1
    return x, iters


def full_field(p, interior):
    full = boundary_only(p.grid, p.trace)
    full[1:-1, 1:-1] = interior
    return full


def plain_pcg(p, rel_tol):
    """Jacobi-PCG on the full interior system.

    The full-system reference: a solve of another CG path, and the iteration
    count the reduced solve is measured against (same stopping test, zero
    start).  Returns the full field and the iteration count.
    """
    diag, apply_op, b = plain_system(p)
    x, iters = plain_cg(apply_op, b, diag, np.sqrt(np.sum(b * b / diag)), rel_tol)
    return full_field(p, x), iters


def plain_reduced_pcg(p, rel_tol):
    """Jacobi-PCG on the red-black Schur complement, then red back-substitution.

    Red nodes have even i + j.  For v zero on red nodes, S v is A v + A t on
    black nodes with t = -(A v) / diag on red nodes; the reduced right-hand
    side is b - A (b / diag on red) on black nodes.  The reference for the
    reduced solver: the stopping scale is the full ||b||_{D^-1}, zero start.
    Returns the full field and the iteration count.
    """
    diag, apply_op, b = plain_system(p)
    jj, ii = np.indices(diag.shape)
    red = (jj + ii) % 2 == 0

    def schur(v):
        av = apply_op(v)
        return np.where(red, 0.0, av + apply_op(np.where(red, -av / diag, 0.0)))

    rhs = np.where(red, 0.0, b - apply_op(np.where(red, b / diag, 0.0)))
    x, iters = plain_cg(schur, rhs, diag, np.sqrt(np.sum(b * b / diag)), rel_tol)
    x += np.where(red, (b - apply_op(x)) / diag, 0.0)
    return full_field(p, x), iters


class TestClosedForms:
    def test_single_interior_node(self):
        # 3x3 grid with unit spacing: (4 + w0/eps) u = g_N + g_S + g_E + g_W
        g = build_grid(3, 3, SQUARE)
        tr = np.zeros(g.shape)
        tr[0, 1], tr[-1, 1], tr[1, 0], tr[1, -1] = 0.3, 0.7, 0.2, 0.4
        w = np.zeros(g.shape)
        w[1, 1] = 2.0
        eps = 0.5
        p = HelmholtzProblem(g, w, eps, tr)
        expected = (0.3 + 0.7 + 0.2 + 0.4) / (4.0 + 2.0 / eps)
        assert solve_helmholtz(p).values[1, 1] == pytest.approx(expected, abs=1e-12)
        assert dense_oracle_solve(p).values[1, 1] == pytest.approx(expected, abs=1e-12)

    def test_zero_weight_equals_harmonic_extension(self):
        g = build_grid(9, 9, SQUARE)
        rng = np.random.default_rng(4)
        tr = boundary_only(g, rng.uniform(0.0, 1.0, g.shape))
        u = solve_helmholtz(HelmholtzProblem(g, np.zeros(g.shape), 1e-3, tr))
        h = harmonic_extension(g, tr)
        assert np.abs(u.values - h.values).max() <= 1e-10

    def test_zero_trace_gives_zero_field(self):
        g = build_grid(9, 9, SQUARE)
        rng = np.random.default_rng(5)
        p = HelmholtzProblem(g, rng.uniform(0, 2, g.shape), 0.1, np.zeros(g.shape))
        out = solve_helmholtz(p)
        assert np.all(out.values == 0.0)


class TestHarmonicExtension:
    def test_constant_trace(self):
        g = build_grid(11, 7, SQUARE)
        tr = boundary_only(g, np.full(g.shape, 2.5))
        h = harmonic_extension(g, tr)
        assert h.values == pytest.approx(2.5, abs=1e-10)

    def test_linear_trace_reproduced_exactly(self):
        g = build_grid(9, 9, SQUARE)
        X, _ = g.meshgrid()
        h = harmonic_extension(g, boundary_only(g, X))
        assert np.abs(h.values - X).max() <= 1e-10

    def test_single_node_average(self):
        g = build_grid(3, 3, SQUARE)
        tr = np.zeros(g.shape)
        tr[0, 1] = 1.0  # one edge midpoint hot
        h = harmonic_extension(g, tr)
        assert h.values[1, 1] == pytest.approx(0.25, abs=1e-12)

    def test_boundary_equals_trace_exactly(self):
        g = build_grid(8, 9, SQUARE)
        rng = np.random.default_rng(6)
        tr = boundary_only(g, rng.uniform(0.0, 1.0, g.shape))
        h = harmonic_extension(g, tr)
        b = g.boundary_mask()
        assert np.array_equal(h.values[b], tr[b])


class TestDenseOracle:
    def test_linear_trace_with_zero_weight(self):
        g = build_grid(9, 9, SQUARE)
        X, _ = g.meshgrid()
        p = HelmholtzProblem(g, np.zeros(g.shape), 1.0, boundary_only(g, X))
        assert np.abs(dense_oracle_solve(p).values - X).max() <= 1e-10

    def test_cg_matches_oracle_on_random_problems(self):
        g = build_grid(9, 9, SQUARE)
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_problem(g, rng)
            a = solve_helmholtz(p)
            b = dense_oracle_solve(p)
            assert np.abs(a.values - b.values).max() <= 1e-8

    def test_with_interior_load(self):
        g = build_grid(7, 7, SQUARE)
        rng = np.random.default_rng(23)
        p = random_problem(g, rng, load=True)
        a = solve_helmholtz(p)
        b = dense_oracle_solve(p)
        assert np.abs(a.values - b.values).max() <= 1e-8

    @pytest.mark.parametrize(
        "shape",
        [(3, 3), (3, 9), (9, 3), (11, 7), (8, 9), (12, 5), (9, 8), (11, 10), (4, 6), (3, 4)],
    )
    @pytest.mark.parametrize("load", [False, True])
    def test_flat_cg_matches_oracle_on_rectangles(self, shape, load):
        ny, nx = shape
        g = build_grid(nx, ny, (-1.0, 1.0, 0.0, 0.7))  # hx != hy
        rng = np.random.default_rng(nx * 100 + ny)
        for _ in range(3):
            p = random_problem(g, rng, load=load)
            a = solve_helmholtz(p)
            b = dense_oracle_solve(p)
            assert np.abs(a.values - b.values).max() <= 1e-10

    def test_size_cap(self):
        g = build_grid(23, 23, SQUARE)  # 441 interior nodes
        p = HelmholtzProblem(g, np.zeros(g.shape), 1.0, np.zeros(g.shape))
        with pytest.raises(ValueError, match="dense oracle"):
            dense_oracle_solve(p)


class TestMaximumPrinciple:
    def test_solution_within_trace_bounds(self):
        g = build_grid(13, 13, SQUARE)
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = random_problem(g, rng)
            m = float(p.trace[g.boundary_mask()].max())
            u = solve_helmholtz(p).values
            assert u.min() >= -1e-10
            assert u.max() <= m + 1e-10


class TestComparisonPrinciple:
    def test_larger_coefficient_smaller_solution(self):
        g = build_grid(17, 17, SQUARE)
        rng = np.random.default_rng(41)
        for _ in range(10):
            c1 = rng.uniform(0.0, 2.0, g.shape)
            c2 = c1 + rng.uniform(0.0, 2.0, g.shape)
            tr = boundary_only(g, rng.uniform(0.0, 1.0, g.shape))
            u1 = solve_helmholtz(HelmholtzProblem(g, c1, 1.0, tr)).values
            u2 = solve_helmholtz(HelmholtzProblem(g, c2, 1.0, tr)).values
            assert np.all(u1 >= u2 - 1e-10)


class TestResolventBound:
    def test_l2_bound_by_smallest_eigenvalue(self):
        g = build_grid(11, 11, SQUARE)
        lam_min = float(np.linalg.eigvalsh(interior_laplacian_matrix(g))[0])
        rng = np.random.default_rng(51)
        for _ in range(5):
            f = np.zeros(g.shape)
            f[1:-1, 1:-1] = rng.standard_normal((g.ny - 2, g.nx - 2))
            w = rng.uniform(0.0, 2.0, g.shape)
            p = HelmholtzProblem(g, w, 0.05, np.zeros(g.shape), load=f)
            u = solve_helmholtz(p).values
            nf = l2_norm(g, f)
            assert l2_norm(g, u) <= nf / lam_min + 1e-10 * nf


class TestSolverBehavior:
    def test_negative_weight_rejected(self):
        g = build_grid(5, 5, SQUARE)
        w = np.zeros(g.shape)
        w[2, 2] = -1e-12
        with pytest.raises(ValueError, match="nonnegative"):
            HelmholtzProblem(g, w, 1.0, np.zeros(g.shape))

    def test_nonpositive_epsilon_rejected(self):
        g = build_grid(5, 5, SQUARE)
        with pytest.raises(ValueError, match="epsilon"):
            HelmholtzProblem(g, np.zeros(g.shape), 0.0, np.zeros(g.shape))

    def test_nonconvergence_reports_residual(self, monkeypatch):
        g = build_grid(17, 17, SQUARE)
        rng = np.random.default_rng(61)
        p = random_problem(g, rng)
        # CG's updated residual reaches any positive tolerance, down to an exact zero;
        # no residual passes a NaN one, so CG stops at once and the solve raises
        monkeypatch.setattr(linear_solver, "REL_TOL", float("nan"))
        with pytest.raises(LinearSolveError, match="did not reach") as exc_info:
            solve_helmholtz(p)
        assert exc_info.value.iterations == 0
        assert exc_info.value.rel_residual > 0.0

    def test_warm_start_converges_faster(self):
        g = build_grid(25, 25, SQUARE)
        rng = np.random.default_rng(81)
        p = random_problem(g, rng, eps_range=(0.0, 0.0))
        cold, info_cold = solve_helmholtz_with_info(p)
        _, info_warm = solve_helmholtz_with_info(p, x0=cold)
        assert info_warm.iterations <= 1
        assert info_warm.iterations < info_cold.iterations

    def test_warm_start_ring_is_replaced_by_trace(self):
        for nx, ny in [(13, 10), (12, 9)]:  # odd and even row width
            g = build_grid(nx, ny, SQUARE)
            rng = np.random.default_rng(83)
            p = random_problem(g, rng, load=True)
            x0 = rng.uniform(2.0, 3.0, g.shape)  # ring far from the trace
            warm, _ = solve_helmholtz_with_info(p, x0=x0)
            b = g.boundary_mask()
            assert np.array_equal(warm.values[b], p.trace[b])
            assert np.abs(warm.values - solve_helmholtz(p).values).max() <= 1e-10

    @staticmethod
    def plain_comparison_problems():
        g = build_grid(19, 25, SQUARE)  # shape (25, 19), hx != hy
        rng = np.random.default_rng(87)
        return [random_problem(g, rng, load=k % 2 == 1) for k in range(6)]

    @classmethod
    def zero_weight_problems(cls):
        """The same problems with zero interior weight."""
        return [HelmholtzProblem(p.grid, np.zeros(p.grid.shape), p.epsilon, p.trace, load=p.load)
                for p in cls.plain_comparison_problems()]

    def test_matches_plain_2d_pcg(self):
        # zero interior weight solves on the red-black plan like any other
        # weight, so it meets the reduced reference with the same bounds
        for p in self.zero_weight_problems():
            fld, info = solve_helmholtz_with_info(p)
            ref, ref_iters = plain_reduced_pcg(p, REL_TOL)
            assert abs(info.iterations - ref_iters) <= 1
            assert np.abs(fld.values - ref).max() <= 1e-12

    def test_matches_plain_reduced_pcg(self):
        for p in self.plain_comparison_problems():
            fld, info = solve_helmholtz_with_info(p)
            ref, ref_iters = plain_reduced_pcg(p, REL_TOL)
            assert abs(info.iterations - ref_iters) <= 1
            assert np.abs(fld.values - ref).max() <= 1e-12

    def test_reduced_solve_takes_at_most_six_tenths_of_full_iterations(self):
        for p in self.plain_comparison_problems() + self.zero_weight_problems():
            _, info = solve_helmholtz_with_info(p)
            _, full_iters = plain_pcg(p, REL_TOL)
            assert info.iterations <= 0.6 * full_iters

    # NaN passes the sign check, and non-finite data would end CG with a nan residual
    @pytest.mark.parametrize("name, node, value", [
        ("weight", (2, 2), np.nan), ("trace", (0, 2), np.inf), ("load", (2, 2), -np.inf),
    ])
    def test_non_finite_input_rejected(self, name, node, value):
        g = build_grid(5, 5, SQUARE)
        data = {"weight": np.ones(g.shape), "trace": np.zeros(g.shape), "load": np.zeros(g.shape)}
        data[name][node] = value
        with pytest.raises(ValueError, match="finite"):
            HelmholtzProblem(g, data["weight"], 1.0, data["trace"], load=data["load"])

    def test_dense_system_is_spd(self):
        g = build_grid(7, 7, SQUARE)
        rng = np.random.default_rng(91)
        p = random_problem(g, rng)
        A, _ = dense_interior_system(p)
        assert np.array_equal(A, A.T)
        assert np.linalg.eigvalsh(A)[0] > 0.0


def sweep_problems(grid, bc_id="ex41", seed=97):
    """Penalized problems of one component as the penalty sweeps pose them.

    Component 1 of bc_id's trace, with the Picard weight, a Gauss-Seidel
    weight, and the phase-field weight and load, at two values of eps, around
    a perturbed stack of harmonic extensions.  Returns (problems, iterate).
    """
    tr = evaluate_bc(builtin_config(bc_id), grid).phi
    rng = np.random.default_rng(seed)
    u = np.stack([harmonic_extension(grid, tr[k]).values for k in range(3)])
    u[:, 1:-1, 1:-1] *= rng.uniform(0.8, 1.2, (3, grid.ny - 2, grid.nx - 2))
    v1 = 0.9 * u[0]
    picard = (u[1] * u[2]) ** 2
    problems = []
    for eps in (1e-2, 1e-4):
        problems += [
            HelmholtzProblem(grid, picard, eps, tr[0]),
            HelmholtzProblem(grid, u[2] ** 2 * (u[0] ** 2 + v1**2) / 2.0, eps, tr[0]),
            HelmholtzProblem(grid, picard / 2.0, eps, tr[0], load=-(picard / (2.0 * eps)) * u[0]),
        ]
    return problems, u


class TestRedBlackPlan:
    @pytest.mark.parametrize("start", [False, True])
    def test_plan_solves_match_the_dense_oracle(self, start):
        g = build_grid(21, 21, SQUARE)  # 361 interior nodes
        problems, u = sweep_problems(g)
        plan = _RedBlackPlan(g, problems[0].trace)
        for p in problems:
            fld, _ = solve_helmholtz_with_info(p, x0=u[0] if start else None, plan=plan)
            # CG stops at a relative residual of 1e-10, the error may be a little larger
            assert np.abs(fld.values - dense_oracle_solve(p).values).max() <= 1e-9

    @pytest.mark.parametrize("shape", [(21, 21), (12, 9), (9, 12)])
    def test_reused_plan_gives_the_bits_of_a_fresh_one(self, shape):
        ny, nx = shape
        g = build_grid(nx, ny, SQUARE)  # hx != hy off the diagonal shape
        problems, u = sweep_problems(g, "bc7")
        shared = _RedBlackPlan(g, problems[0].trace)
        for k, p in enumerate(problems * 2):
            x0 = u[0] if k % 2 else None
            fld, info = solve_helmholtz_with_info(p, x0=x0, plan=shared)
            ref, ref_info = solve_helmholtz_with_info(p, x0=x0, plan=_RedBlackPlan(g, p.trace))
            assert fld.values.tobytes() == ref.values.tobytes()
            assert info == ref_info  # iterations, rel_residual, start_applies

    def test_sibling_plans_give_the_bits_of_separate_plans(self):
        g = build_grid(15, 12, SQUARE)
        tr = evaluate_bc(builtin_config("bc7"), g).phi
        u = np.stack([harmonic_extension(g, tr[k]).values for k in range(3)])
        rng = np.random.default_rng(5)
        first = _RedBlackPlan(g, tr[0])
        shared = [first, first.sibling(tr[1]), first.sibling(tr[2])]
        own = [_RedBlackPlan(g, tr[k]) for k in range(3)]
        for _ in range(4):  # from the third round on, the kept solutions start the solves
            for k in range(3):
                p = HelmholtzProblem(g, rng.uniform(0.0, 1.0, g.shape), 1e-3, tr[k])
                fld, info = solve_helmholtz_with_info(p, x0=u[k], plan=shared[k])
                ref, ref_info = solve_helmholtz_with_info(p, x0=u[k], plan=own[k])
                assert fld.values.tobytes() == ref.values.tobytes()
                assert info == ref_info  # iterations, rel_residual, start_applies
                shared[k].keep(fld.values)
                own[k].keep(ref.values)
        assert info.start_applies > 0
        with pytest.raises(ValueError, match="plan"):
            solve_helmholtz_with_info(HelmholtzProblem(g, np.ones(g.shape), 1e-3, tr[0]), plan=shared[1])

    def test_plan_of_another_trace_is_refused(self):
        g = build_grid(11, 11, SQUARE)
        problems, _ = sweep_problems(g)
        p = problems[0]
        plan = _RedBlackPlan(g, p.trace + 1.0)
        with pytest.raises(ValueError, match="plan"):
            solve_helmholtz_with_info(p, plan=plan)

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_plan_of_another_trace_is_refused_on_either_branch(self, weight):
        # refused before it solves, with or without interior weight: the solve
        # would leave its answer to the plan's kept history
        g = build_grid(11, 11, SQUARE)
        tr = evaluate_bc(builtin_config("bc7"), g).phi
        p = HelmholtzProblem(g, np.full(g.shape, weight), 1e-3, tr[1])
        with pytest.raises(ValueError, match="plan"):
            solve_helmholtz_with_info(p, plan=_RedBlackPlan(g, tr[0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_or_start_raises(self, value):
        g = build_grid(11, 11, SQUARE)
        problems, u = sweep_problems(g)
        p = problems[0]
        plan = _RedBlackPlan(g, p.trace)
        weight = p.weight.copy()
        weight[4, 5] = value
        with pytest.raises(ValueError, match="finite"):
            HelmholtzProblem(g, weight, p.epsilon, p.trace)
        x0 = u[0].copy()
        x0[4, 5] = value
        with pytest.raises(LinearSolveError), np.errstate(invalid="ignore"):
            solve_helmholtz_with_info(p, x0=x0, plan=plan)
        # the plan is still good for the next solve
        fld, _ = solve_helmholtz_with_info(p, plan=plan)
        ref, _ = solve_helmholtz_with_info(p)
        assert fld.values.tobytes() == ref.values.tobytes()


class TestGalerkinCoefficients:
    """The small solve of a Galerkin start, against numpy.linalg.solve."""

    @staticmethod
    def system(steps, seed):
        """gram = D W D^T and rhs = D r for the step rows D, a positive weight W."""
        rng = np.random.default_rng(seed)
        weight = rng.uniform(0.5, 2.0, steps.shape[1])
        return (steps * weight) @ steps.T, steps @ rng.standard_normal(steps.shape[1])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_spd_systems_match_a_direct_solve(self, k):
        rng = np.random.default_rng(k)
        for seed in range(5):
            gram, rhs = self.system(rng.standard_normal((k, 40)), seed)
            ref = np.linalg.solve(gram, rhs)
            c = _galerkin_coefficients(gram, rhs)
            assert np.abs(np.array(c) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_repeated_step_gets_zero_and_the_newest_is_kept(self):
        steps = np.random.default_rng(7).standard_normal((3, 40))
        steps[1] = steps[2]  # the newest step repeats the one before it
        gram, rhs = self.system(steps, 8)
        c = _galerkin_coefficients(gram, rhs)
        assert c[1] == 0.0 and c[2] != 0.0
        taken = np.ix_([0, 2], [0, 2])
        ref = np.linalg.solve(gram[taken], rhs[[0, 2]])
        assert np.abs(np.array([c[0], c[2]]) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zero_system_gives_zeros(self):
        assert _galerkin_coefficients(np.zeros((3, 3)), np.zeros(3)) == [0.0, 0.0, 0.0]

    def test_result_is_a_list_of_python_floats(self):
        gram, rhs = self.system(np.random.default_rng(9).standard_normal((3, 40)), 10)
        c = _galerkin_coefficients(gram, rhs)
        assert type(c) is list and len(c) == 3
        assert all(type(x) is float for x in c)


class TestInitialMasks:
    """The zero mask of the projected gradient start, the projected harmonic
    extensions, does not hinge on how CG computes the extensions: seven of the
    ten configs have symmetric ties that only rounding breaks."""

    @pytest.mark.parametrize("n", [51, 101])
    def test_masks_do_not_depend_on_the_cg_path(self, n, monkeypatch):
        g = build_grid(n, n, SQUARE)
        traces = [evaluate_bc(builtin_config(bc), g).phi for bc in BUILTIN_IDS]
        masks = [projected_gradient._initial_state(projected_gradient._Workspace(g, tr))[1]
                 for tr in traces]

        def full_system_extension(grid, trace):
            p = HelmholtzProblem(grid, np.zeros(grid.shape), 1.0, trace)
            return ScalarField(grid, plain_pcg(p, REL_TOL)[0])

        monkeypatch.setattr(projected_gradient, "harmonic_extension", full_system_extension)
        for tr, mask in zip(traces, masks):
            _, ref = projected_gradient._initial_state(projected_gradient._Workspace(g, tr))
            assert np.array_equal(mask[:, 1:-1, 1:-1], ref[:, 1:-1, 1:-1])

    def test_masks_do_not_depend_on_the_blas_thread_count(self, child_env):
        # at n=201 the CG vectors are longer than the 10,000 elements from
        # which OpenBLAS splits a dot product between threads
        child = (
            "import hashlib\n"
            "from segsolve.boundary import BUILTIN_IDS, builtin_config, evaluate_bc\n"
            "from segsolve.grid import build_grid\n"
            "from segsolve.projected_gradient import _Workspace, _initial_state\n"
            "g = build_grid(201, 201, (-1.0, 1.0, -1.0, 1.0))\n"
            "for bc in BUILTIN_IDS:\n"
            "    _, mask = _initial_state(_Workspace(g, evaluate_bc(builtin_config(bc), g).phi))\n"
            "    print(bc, hashlib.sha256(mask[:, 1:-1, 1:-1].tobytes()).hexdigest())\n"
        )
        out = [
            subprocess.run(
                [sys.executable, "-c", child], env=dict(child_env, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert len(out[0].splitlines()) == len(BUILTIN_IDS)
        assert out[0] == out[1]
