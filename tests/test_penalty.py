import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from segsolve import penalty
from segsolve.boundary import BoundaryTrace, builtin_config, evaluate_bc, sup_bound
from segsolve.grid import SystemState, build_grid, l2_diff, max_l2_step, node_weights
from segsolve.linear_solver import (
    HelmholtzProblem,
    _RedBlackPlan,
    harmonic_extension,
    solve_helmholtz_with_info,
)
from segsolve.penalty import (
    PenaltyConfig,
    _gauss_seidel_sweep,
    _picard_sweep,
    _plans,
    gauss_seidel_step,
    phase_field_step,
    picard_step,
    run_penalty,
    semi_implicit_step,
)

SQUARE = (-1.0, 1.0, -1.0, 1.0)


def segregated_trace(grid, v1=0.8, v2=0.6):
    """phi1 on the bottom edge, phi2 on the top edge, phi3 zero."""
    phi = np.zeros((3, *grid.shape))
    phi[0][0, :] = v1
    phi[1][-1, :] = v2
    return BoundaryTrace(grid, phi)


def unit_trace(grid):
    phi = np.zeros((3, *grid.shape))
    phi[:, grid.boundary_mask()] = 1.0
    return BoundaryTrace(grid, phi)


def single_node_setup():
    """3x3 grid with unit spacing: one interior unknown per component."""
    g = build_grid(3, 3, SQUARE)
    return g, unit_trace(g)


class TestPicardStep:
    def test_zero_second_component_gives_harmonic_extensions(self):
        g = build_grid(9, 9, SQUARE)
        tr = evaluate_bc(builtin_config("bc4"), g)
        state = SystemState.from_stack(g, np.stack([
            np.full(g.shape, 0.5), np.zeros(g.shape), np.full(g.shape, 0.5),
        ]))
        out = picard_step(state, tr, epsilon=1e-3, alpha=1.0)
        h1 = harmonic_extension(g, tr.phi[0])
        h3 = harmonic_extension(g, tr.phi[2])
        assert np.abs(out.u1.values - h1.values).max() <= 1e-10
        assert np.abs(out.u3.values - h3.values).max() <= 1e-10

    def test_alpha_zero_is_identity(self):
        g = build_grid(7, 7, SQUARE)
        tr = segregated_trace(g)
        rng = np.random.default_rng(1)
        state = SystemState.from_stack(g, rng.uniform(0, 1, (3, *g.shape)))
        out = picard_step(state, tr, epsilon=1e-2, alpha=0.0)
        assert np.array_equal(out.stack(), state.stack())

    def test_single_node_closed_form(self):
        g, tr = single_node_setup()
        state = SystemState.constant(g, 1.0, 1.0, 1.0)
        out = picard_step(state, tr, epsilon=1.0, alpha=1.0)
        # w0 = 1 for every component: u = (sum of 4 unit neighbors)/(4 + 1)
        for comp in out.components:
            assert comp.values[1, 1] == pytest.approx(4.0 / 5.0, abs=1e-12)

    def test_damping_interpolates_exactly(self):
        g = build_grid(9, 9, SQUARE)
        tr = segregated_trace(g)
        rng = np.random.default_rng(2)
        state = SystemState.from_stack(g, rng.uniform(0, 0.8, (3, *g.shape)))
        alpha = 0.3
        full = picard_step(state, tr, 1e-2, alpha=1.0)
        damped = picard_step(state, tr, 1e-2, alpha=alpha)
        expected = alpha * full.stack() + (1.0 - alpha) * state.stack()
        assert np.array_equal(damped.stack(), expected)

    def test_boundary_stays_on_trace(self):
        g = build_grid(9, 9, SQUARE)
        tr = evaluate_bc(builtin_config("ex41"), g)
        state = SystemState.from_stack(g, tr.phi.copy())
        out = picard_step(state, tr, 1e-3, alpha=0.5)
        b = g.boundary_mask()
        for k, comp in enumerate(out.components):
            assert np.array_equal(comp.values[b], tr.phi[k][b])


class TestGaussSeidelStep:
    def test_zero_tail_components(self):
        g = build_grid(9, 9, SQUARE)
        phi = np.zeros((3, *g.shape))
        phi[0][0, :] = 0.7  # phi2 = phi3 = 0
        tr = BoundaryTrace(g, phi)
        state = SystemState.from_stack(
            g, np.stack([np.full(g.shape, 0.3), np.zeros(g.shape), np.zeros(g.shape)])
        )
        out = gauss_seidel_step(state, tr, epsilon=1e-3)
        h1 = harmonic_extension(g, phi[0])
        assert np.abs(out.u1.values - h1.values).max() <= 1e-10
        assert np.abs(out.u2.values).max() == 0.0
        assert np.abs(out.u3.values).max() == 0.0

    def test_single_node_sequence_matches_hand_evaluation(self):
        g, tr = single_node_setup()
        a, b, c = 0.9, 0.8, 0.7
        state = SystemState.constant(g, a, b, c)
        eps = 0.25
        out = gauss_seidel_step(state, tr, eps)
        # three single-node solves applied in order, spreadsheet style
        v1 = 4.0 / (4.0 + (b * c) ** 2 / eps)
        v2 = 4.0 / (4.0 + c**2 * (a**2 + v1**2) / 2.0 / eps)
        v3 = 4.0 / (4.0 + ((a * b) ** 2 + (v1 * v2) ** 2) / 2.0 / eps)
        assert out.u1.values[1, 1] == pytest.approx(v1, abs=1e-12)
        assert out.u2.values[1, 1] == pytest.approx(v2, abs=1e-12)
        assert out.u3.values[1, 1] == pytest.approx(v3, abs=1e-12)

    def test_fixed_point_is_stationary(self):
        g = build_grid(17, 17, SQUARE)
        tr = evaluate_bc(builtin_config("bc4"), g)
        cfg = PenaltyConfig(
            epsilon_target=1e-2, epsilon_start=1e-2, scheme="gauss_seidel"
        )
        state, _, report = run_penalty(g, tr, cfg)
        assert report.converged
        again = gauss_seidel_step(state, tr, 1e-2)
        moved = max(
            l2_diff(a, b) for a, b in zip(again.components, state.components)
        )
        assert moved < 1e-7

    def test_output_nonnegative(self):
        g = build_grid(11, 11, SQUARE)
        tr = evaluate_bc(builtin_config("bc3"), g)
        rng = np.random.default_rng(3)
        state = SystemState.from_stack(g, rng.uniform(0, 1, (3, *g.shape)))
        out = gauss_seidel_step(state, tr, 1e-4)
        assert out.stack().min() >= -1e-10


    @pytest.mark.parametrize("bc_id", ["ex41", "bc7"])
    def test_damped_sweep_is_bitwise_the_convex_combination(self, bc_id):
        # one damped sweep from the harmonic extensions u0 equals
        # alpha * (undamped sweep) + (1 - alpha) * u0, bit for bit
        g = build_grid(21, 21, SQUARE)
        tr = evaluate_bc(builtin_config(bc_id), g)
        u0 = np.stack([harmonic_extension(g, tr.phi[k]).values for k in range(3)])
        alpha = 0.3
        runs = {}
        for damp in (False, True):
            cfg = PenaltyConfig(
                1e-2, scheme="gauss_seidel", alpha=alpha, damp_gauss_seidel=damp, max_outer=1
            )
            state, _, _ = run_penalty(g, tr, cfg, stages=[1e-2])
            runs[damp] = state.stack()
        expected = alpha * runs[False] + (1.0 - alpha) * u0
        assert runs[True].tobytes() == expected.tobytes()
        assert not np.array_equal(runs[True], runs[False])


class TestSemiImplicitStep:
    def test_all_zero_maps_to_zero(self):
        g = build_grid(7, 7, SQUARE)
        tr = BoundaryTrace(g, np.zeros((3, *g.shape)))
        state = SystemState.constant(g, 0.0, 0.0, 0.0)
        out = semi_implicit_step(state, tr, 1e-3)
        assert np.abs(out.stack()).max() == 0.0

    def test_symmetrized_coefficients_match_hand_evaluation(self):
        g, tr = single_node_setup()
        a, b, c = 0.5, 1.0, 0.9
        eps = 0.5
        state = SystemState.constant(g, a, b, c)
        out = semi_implicit_step(state, tr, eps)
        v1 = 4.0 / (4.0 + (b * c) ** 2 / eps)
        v2 = 4.0 / (4.0 + (a**2 + v1**2) / 2.0 * c**2 / eps)
        v3 = 4.0 / (4.0 + ((a * b) ** 2 + (v1 * v2) ** 2) / 2.0 / eps)
        assert out.u1.values[1, 1] == pytest.approx(v1, abs=1e-12)
        assert out.u2.values[1, 1] == pytest.approx(v2, abs=1e-12)
        assert out.u3.values[1, 1] == pytest.approx(v3, abs=1e-12)

    def test_degenerates_to_picard_coefficient_when_u1_stationary(self):
        # if the first solve reproduces u1, the averaged u2 coefficient
        # collapses to the decoupled u1^2 * u3^2 weight
        g, tr = single_node_setup()
        eps = 1.0
        # pick u1 so that solving with weight (u2*u3)^2 returns it unchanged
        b, c = 0.6, 0.5
        u1_fixed = 4.0 / (4.0 + (b * c) ** 2 / eps)
        state = SystemState.constant(g, u1_fixed, b, c)
        out = semi_implicit_step(state, tr, eps)
        assert out.u1.values[1, 1] == pytest.approx(u1_fixed, abs=1e-12)
        picard_v2 = 4.0 / (4.0 + (u1_fixed * c) ** 2 / eps)
        assert out.u2.values[1, 1] == pytest.approx(picard_v2, abs=1e-12)


    @pytest.mark.parametrize("bc_id", ["ex41", "bc4", "bc7"])
    def test_run_is_bitwise_the_undamped_gauss_seidel_run(self, bc_id):
        g = build_grid(21, 21, SQUARE)
        runs = {}
        for scheme in ("gauss_seidel", "semi_implicit"):
            state, history, _ = run_penalty(g, bc_id, PenaltyConfig(1e-4, scheme=scheme))
            rows = [{k: v for k, v in r.items() if k != "scheme"} for r in history]
            runs[scheme] = (state.stack(), rows)
        gs, semi = runs["gauss_seidel"], runs["semi_implicit"]
        assert np.array_equal(gs[0], semi[0])
        assert gs[1] == semi[1]


class TestPhaseFieldStep:
    def test_zero_coupling_gives_harmonic_extensions(self):
        g = build_grid(9, 9, SQUARE)
        tr = evaluate_bc(builtin_config("bc4"), g)
        state = SystemState.from_stack(g, np.stack([
            np.full(g.shape, 0.4), np.zeros(g.shape), np.full(g.shape, 0.4),
        ]))
        out = phase_field_step(state, tr, 1e-3)
        h1 = harmonic_extension(g, tr.phi[0])
        assert np.abs(out.u1.values - h1.values).max() <= 1e-10

    def test_zero_data_zero_output(self):
        g = build_grid(7, 7, SQUARE)
        tr = BoundaryTrace(g, np.zeros((3, *g.shape)))
        out = phase_field_step(SystemState.constant(g, 0, 0, 0), tr, 1e-2)
        assert np.abs(out.stack()).max() == 0.0

    def test_single_node_closed_form_with_clipping(self):
        g, tr = single_node_setup()
        a, b, c = 0.9, 0.8, 0.7
        eps = 0.01  # strong penalty drives the solve negative, then clipping
        state = SystemState.constant(g, a, b, c)
        out = phase_field_step(state, tr, eps)
        w1 = (b * c) ** 2
        raw = (4.0 - w1 / (2 * eps) * a) / (4.0 + w1 / (2 * eps))
        expected = max(raw, 0.0)
        assert raw < 0.0  # clipping is actually exercised
        assert out.u1.values[1, 1] == pytest.approx(expected, abs=1e-12)

    def test_mild_penalty_matches_unclipped_form(self):
        g, tr = single_node_setup()
        a, b, c = 0.5, 0.4, 0.3
        eps = 1.0
        out = phase_field_step(SystemState.constant(g, a, b, c), tr, eps)
        w1 = (b * c) ** 2
        expected = (4.0 - w1 / (2 * eps) * a) / (4.0 + w1 / (2 * eps))
        assert expected > 0.0
        assert out.u1.values[1, 1] == pytest.approx(expected, abs=1e-12)


class TestRunPenalty:
    def test_zero_phi3_converges_immediately(self):
        g = build_grid(13, 13, SQUARE)
        tr = segregated_trace(g)  # phi3 identically zero
        cfg = PenaltyConfig(epsilon_target=1e-4, scheme="picard", alpha=1.0)
        state, history, report = run_penalty(g, tr, cfg)
        assert report.converged
        assert np.abs(state.u3.values).max() == 0.0
        h1 = harmonic_extension(g, tr.phi[0])
        assert np.abs(state.u1.values - h1.values).max() <= 1e-9
        for stage in report.meta["stages"]:
            assert stage["iterations"] <= 2

    def test_continuation_ladder(self):
        cfg = PenaltyConfig(
            epsilon_target=1e-5, epsilon_start=1e-2, continuation_factor=0.1
        )
        ladder = cfg.stages()
        assert len(ladder) == 4
        assert ladder[0] == 1e-2 and ladder[-1] == 1e-5
        assert all(b < a for a, b in zip(ladder, ladder[1:]))

    def test_product_norm_nonincreasing_across_stages(self):
        g = build_grid(41, 41, SQUARE)
        cfg = PenaltyConfig(epsilon_target=1e-4, scheme="gauss_seidel")
        _, _, report = run_penalty(g, "ex41", cfg)
        norms = [s["product_l2"] for s in report.meta["stages"]]
        for a, b in zip(norms, norms[1:]):
            assert b <= a * 1.05

    def test_order_interval_preserved_all_schemes(self):
        g = build_grid(17, 17, SQUARE)
        tr = evaluate_bc(builtin_config("bc5"), g)
        m = sup_bound(tr)
        for scheme in ("picard", "gauss_seidel", "semi_implicit", "phase_field"):
            cfg = PenaltyConfig(
                epsilon_target=1e-3, scheme=scheme, max_outer=40
            )
            seen = []

            def check(eps, it, stack):
                seen.append(it)
                assert stack.min() >= -1e-10
                assert stack.max() <= m + 1e-10

            run_penalty(g, tr, cfg, iterate_hook=check)
            assert seen

    def test_deterministic_histories(self):
        g = build_grid(15, 15, SQUARE)
        cfg = PenaltyConfig(epsilon_target=1e-3, scheme="picard")
        _, h1, _ = run_penalty(g, "bc4", cfg)
        _, h2, _ = run_penalty(g, "bc4", cfg)
        assert h1 == h2

    def test_explicit_stage_ladder(self):
        g = build_grid(11, 11, SQUARE)
        cfg = PenaltyConfig(epsilon_target=1e-3, scheme="picard")
        _, _, report = run_penalty(g, "bc4", cfg, stages=[1e-2, 3e-3, 1e-3])
        assert [s["epsilon"] for s in report.meta["stages"]] == [1e-2, 3e-3, 1e-3]
        with pytest.raises(ValueError):
            run_penalty(g, "bc4", cfg, stages=[1e-3, 1e-2])

    @pytest.mark.parametrize("stages", [
        [], [np.inf, 1e-2], [1e-2, np.nan], [1e-2, 0.0], [-1e-3], [1e-2, 1e-2],
    ])
    def test_invalid_stage_ladder_rejected_before_any_solve(self, stages, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the ladder was checked")

        monkeypatch.setattr(penalty, "harmonic_extension", no_solve)
        cfg = PenaltyConfig(epsilon_target=1e-3, scheme="picard")
        with pytest.raises(ValueError, match="ladder"):
            run_penalty(build_grid(11, 11, SQUARE), "bc4", cfg, stages=stages)

    def test_history_row_schema(self):
        g = build_grid(9, 9, SQUARE)
        cfg = PenaltyConfig(epsilon_target=1e-2, scheme="semi_implicit")
        _, history, _ = run_penalty(g, "bc4", cfg)
        row = history[0]
        assert set(row) == {
            "stage_epsilon", "iter", "scheme", "energy",
            "penalty_energy", "step_norm", "cg_iters",
        }
        assert row["scheme"] == "semi_implicit"
        assert len(row["cg_iters"]) == 3

    def test_report_history_is_the_history_rows(self):
        g = build_grid(9, 9, SQUARE)
        _, history, report = run_penalty(g, "bc4", PenaltyConfig(epsilon_target=1e-3))
        assert report.history is history
        assert len(history) == report.iters

    def test_ex41_segregation_pattern_by_region_means(self):
        # the lobes segregate pairwise across y = 0, which already makes the
        # triple product vanish; the converged third component then stays
        # close to the harmonic extension of its constant data
        from segsolve.grid import RegionMask, product_violation, region_mean

        g = build_grid(41, 41, SQUARE)
        cfg = PenaltyConfig(epsilon_target=1e-6, scheme="gauss_seidel")
        state, _, report = run_penalty(g, "ex41", cfg)
        assert report.converged
        _, Y = g.meshgrid()
        lower = RegionMask(g, Y < -0.2)
        upper = RegionMask(g, Y > 0.2)
        assert region_mean(state.u1, lower) > 1e3 * region_mean(state.u1, upper)
        assert region_mean(state.u2, upper) > 1e3 * region_mean(state.u2, lower)
        # product norm obeys the sqrt(eps * energy) penalty bound
        l2, _ = product_violation(state)
        assert l2 <= np.sqrt(1e-6 * report.final_energy) * 1.05
        assert 0.0 <= state.u3.values.min() and state.u3.values.max() <= 0.25 + 1e-10

    def test_damped_phase_field_converges_on_ex41(self):
        g = build_grid(21, 21, SQUARE)
        _, _, report = run_penalty(g, "ex41", PenaltyConfig(1e-4, scheme="phase_field"))
        assert report.converged
        assert [s["epsilon"] for s in report.meta["stages"]] == [1e-2, 1e-3, 1e-4]

    def test_nonconvergent_stage_recorded_and_run_continues(self):
        g = build_grid(21, 21, SQUARE)
        cfg = PenaltyConfig(epsilon_target=1e-4, scheme="picard", max_outer=3)
        _, _, report = run_penalty(g, "bc1", cfg)
        assert not report.converged
        assert len(report.meta["stages"]) == 3
        assert any(not s["converged"] for s in report.meta["stages"])


def cold_start_run(grid, bc_id, cfg):
    """run_penalty's loop on fresh plans each sweep: every CG solve starts from the iterate.

    Returns (final stack, sweeps per stage, total CG iterations).
    """
    tr = evaluate_bc(builtin_config(bc_id), grid).phi
    u = np.stack([harmonic_extension(grid, tr[k]).values for k in range(3)])
    weights = node_weights(grid)
    sweeps, cg_total = [], 0
    for eps in cfg.stages():
        for it in range(1, cfg.max_outer + 1):
            if cfg.scheme == "picard":
                new, infos = _picard_sweep(u, eps, cfg.alpha, _plans(grid, tr))
            else:
                new, infos = _gauss_seidel_sweep(u, eps, 1.0, _plans(grid, tr))
            cg_total += sum(info.iterations for info in infos)
            step, u = max_l2_step(weights, new, u), new
            if step < cfg.outer_tol:
                break
        sweeps.append(it)
    return u, sweeps, cg_total


class TestSecantStart:
    """Runs whose CG solves start from the stage's earlier solutions, against
    cold starts from the iterate."""

    @pytest.mark.parametrize("scheme", ["picard", "gauss_seidel"])
    @pytest.mark.parametrize("bc_id", ["ex41", "bc7"])
    def test_same_answer_and_sweeps_as_cold_start(self, scheme, bc_id):
        g = build_grid(21, 21, SQUARE)
        cfg = PenaltyConfig(1e-4, scheme=scheme)
        cold, cold_sweeps, _ = cold_start_run(g, bc_id, cfg)
        state, _, report = run_penalty(g, bc_id, cfg)
        assert [s["iterations"] for s in report.meta["stages"]] == cold_sweeps
        assert np.abs(state.stack() - cold).max() <= cfg.outer_tol

    def test_halves_the_cg_work(self):
        g = build_grid(31, 31, SQUARE)
        cfg = PenaltyConfig(1e-4)
        _, _, cold_cg = cold_start_run(g, "ex41", cfg)
        _, history, _ = run_penalty(g, "ex41", cfg)
        assert sum(sum(r["cg_iters"]) for r in history) <= 0.6 * cold_cg

    def test_stage_cg_totals_and_maxima(self):
        g = build_grid(15, 15, SQUARE)
        _, history, report = run_penalty(g, "bc4", PenaltyConfig(1e-3))
        for stage in report.meta["stages"]:
            cg = [c for r in history if r["stage_epsilon"] == stage["epsilon"] for c in r["cg_iters"]]
            assert stage["cg_iterations"] == sum(cg)
            assert stage["cg_max"] == max(cg)

    def test_stage_start_applies(self):
        # every sweep from the third on starts all three solves from the plans;
        # each start costs one neighbour sum and at most one Schur application
        g = build_grid(15, 15, SQUARE)
        _, _, report = run_penalty(g, "bc4", PenaltyConfig(1e-3))
        for stage in report.meta["stages"]:
            starts = 3 * max(stage["iterations"] - 2, 0)
            assert starts <= stage["start_applies"] <= 2 * starts


def penalized_problem(grid, bc_id="ex41", eps=1e-3):
    """Component 1's Picard problem around the harmonic extensions."""
    tr = evaluate_bc(builtin_config(bc_id), grid).phi
    u = np.stack([harmonic_extension(grid, tr[k]).values for k in range(3)])
    return HelmholtzProblem(grid, (u[1] * u[2]) ** 2, eps, tr[0])


def interior_noise(grid, rng, scale):
    out = np.zeros(grid.shape)
    out[1:-1, 1:-1] = scale * rng.standard_normal((grid.ny - 2, grid.nx - 2))
    return out


# Runs in a child process: a short n=101 penalty run from the initial stack
# in argv[2] (harmonic extensions at n=101 change bits with the BLAS thread
# count, see ROADMAP; the sweeps and their starts must not).  Prints the
# SHA-256 of the final stack and the start applications per stage.
THREADED_RUN = """
import hashlib, sys
import numpy as np
from segsolve import penalty
from segsolve.grid import ScalarField, build_grid

grid = build_grid(101, 101, (-1.0, 1.0, -1.0, 1.0))
u0 = iter(np.load(sys.argv[1]))
penalty.harmonic_extension = lambda grid, trace, controls=None: ScalarField(grid, next(u0))
cfg = penalty.PenaltyConfig(1e-3, max_outer=8)
state, _, report = penalty.run_penalty(grid, "ex41", cfg, stages=[1e-2, 1e-3])
print(hashlib.sha256(state.stack().tobytes()).hexdigest(), [s["start_applies"] for s in report.meta["stages"]])
"""


class TestGalerkinStart:
    def test_answer_in_the_span_is_hit_with_no_cg_iterations(self):
        g = build_grid(21, 21, SQUARE)
        p = penalized_problem(g)
        answer, _ = solve_helmholtz_with_info(p)
        rng = np.random.default_rng(11)
        steps = [interior_noise(g, rng, 1e-2) for _ in range(3)]
        # kept solutions s0..s3 whose steps are the three above, with the
        # answer at s3 + 0.7 d1 - 1.5 d2 + 2.0 d3
        kept = [answer.values - 0.7 * steps[0] + 1.5 * steps[1] - 2.0 * steps[2]]
        for d in reversed(steps):
            kept.insert(0, kept[0] - d)
        plan = _RedBlackPlan(g, p.trace)
        for x in kept:
            plan.keep(x)
        fld, info = solve_helmholtz_with_info(p, plan=plan)
        assert info.iterations == 0
        assert info.start_applies == 4  # three neighbour sums and the residual update
        # hit up to the rounding of the projection, well inside the CG tolerance
        assert np.abs(fld.values - answer.values).max() <= 1e-10

    @pytest.mark.parametrize("repeats", [2, 4])
    def test_repeated_solution_falls_back_to_the_last_solution(self, repeats):
        g = build_grid(21, 21, SQUARE)
        p = penalized_problem(g)
        last = harmonic_extension(g, p.trace).values
        plan = _RedBlackPlan(g, p.trace)
        for _ in range(repeats):
            plan.keep(last)
        fld, info = solve_helmholtz_with_info(p, x0=np.zeros(g.shape), plan=plan)
        ref, ref_info = solve_helmholtz_with_info(p, x0=last)
        assert info.iterations == ref_info.iterations > 0
        assert fld.values.tobytes() == ref.values.tobytes()
        assert info.start_applies == min(repeats - 1, 3)  # neighbour sums, no update

    def test_run_bits_do_not_depend_on_blas_threads(self, tmp_path, child_env):
        g = build_grid(101, 101, SQUARE)
        tr = evaluate_bc(builtin_config("ex41"), g).phi
        u0 = tmp_path / "u0.npy"
        np.save(u0, np.stack([harmonic_extension(g, tr[k]).values for k in range(3)]))
        out = {
            threads: subprocess.run(
                [sys.executable, "-c", THREADED_RUN, str(u0)],
                env={**child_env, "OPENBLAS_NUM_THREADS": threads},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for threads in ("1", "2")
        }
        assert out["1"] and out["1"] == out["2"]
        assert "[0, 0]" not in out["1"]  # the starts ran


# Runs in a child process: bench/tracing.py wraps the module functions of
# segsolve in place.  Prints, per scheme, the outer iterations of the report,
# the penalty.sweep spans, those of them nested in another penalty.sweep
# span, and the linear_solver.solve spans.
TRACED_RUNS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from segsolve import penalty
from segsolve.grid import build_grid

rec = tracing.Recorder(sys.argv[2])
tracing.install(rec)
grid = build_grid(11, 11, (-1.0, 1.0, -1.0, 1.0))
out = {}
for scheme in penalty.SCHEMES:
    start = len(rec.names)
    cfg = penalty.PenaltyConfig(1e-3, scheme=scheme)
    _, _, report = penalty.run_penalty(grid, "ex41", cfg, stages=[1e-2, 1e-3])
    spans = range(start, len(rec.names))
    sweeps = [k for k in spans if rec.names[k] == "penalty.sweep"]
    out[scheme] = {
        "iters": report.iters,
        "sweeps": len(sweeps),
        "nested": sum(rec.parents[k] >= 0 and rec.names[rec.parents[k]] == "penalty.sweep"
                      for k in sweeps),
        "solves": sum(rec.names[k] == "linear_solver.solve" for k in spans),
    }
print(json.dumps(out))
"""


def test_tracer_records_one_span_per_sweep(tmp_path, child_env):
    bench = Path(__file__).resolve().parents[1] / "bench"
    res = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(bench), str(tmp_path)],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    counts = json.loads(res.stdout)
    assert sorted(counts) == sorted(("picard", "gauss_seidel", "semi_implicit", "phase_field"))
    for scheme, c in counts.items():
        assert c["sweeps"] == c["iters"] > 0, scheme
        assert c["nested"] == 0, scheme
        assert c["solves"] == 3 * c["sweeps"] + 3, scheme  # three harmonic extensions first


class TestConfigValidation:
    def test_target_above_start_rejected(self):
        with pytest.raises(ValueError):
            PenaltyConfig(epsilon_target=1.0, epsilon_start=1e-2)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            PenaltyConfig(epsilon_target=1e-3, continuation_factor=1.0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            PenaltyConfig(epsilon_target=1e-3, alpha=0.0)
        with pytest.raises(ValueError):
            PenaltyConfig(epsilon_target=1e-3, alpha=1.5)

    @pytest.mark.parametrize("field", ["epsilon_target", "epsilon_start", "outer_tol"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_value_rejected(self, field, value):
        # an infinite start made stages() grow its ladder without end
        kwargs = {"epsilon_target": 1e-3, field: value}
        with pytest.raises(ValueError):
            PenaltyConfig(**kwargs)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            PenaltyConfig(epsilon_target=1e-3, scheme="sor")
