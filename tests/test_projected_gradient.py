import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from segsolve.boundary import BoundaryTrace, builtin_config, evaluate_bc
from segsolve.grid import build_grid, energy_of_stack, node_weights
from segsolve.linear_solver import harmonic_extension
from segsolve.projected_gradient import (
    FistaConfig,
    PgdConfig,
    _backtrack,
    _Workspace,
    fista_run,
    next_t,
    pgd_run,
    stability_limit,
)
from segsolve.projection import project_stack_interior

SQUARE = (-1.0, 1.0, -1.0, 1.0)


def plain_max_l2_step(grid, a, b):
    """Largest per-component trapezoidal L2 norm of a - b, as a plain expression."""
    w = node_weights(grid)
    d = a - b
    return float(np.sqrt(np.max(np.sum(w * d * d, axis=(1, 2)))))


def rough_two_phase_state(grid, seed=42):
    """Feasible rough state: component 1 on the left half, 2 on the right."""
    rng = np.random.default_rng(seed)
    X, _ = grid.meshgrid()
    u = np.zeros((3, *grid.shape))
    u[0, 1:-1, 1:-1] = (
        np.where(X < 0, 0.5 + 0.3 * rng.standard_normal(grid.shape), 0.0)
        .clip(0)[1:-1, 1:-1]
    )
    u[1, 1:-1, 1:-1] = (
        np.where(X > 0, 0.5 + 0.3 * rng.standard_normal(grid.shape), 0.0)
        .clip(0)[1:-1, 1:-1]
    )
    return u


class TestPgdConfig:
    def test_default_step_size(self):
        g = build_grid(201, 201, SQUARE)
        assert PgdConfig().resolve_alpha(g) == pytest.approx(0.1 * 0.01**2)

    def test_default_always_stable(self):
        for n in (3, 11, 101, 401):
            g = build_grid(n, n, SQUARE)
            assert PgdConfig().resolve_alpha(g) < stability_limit(g)

    def test_rejects_unstable_alpha(self):
        g = build_grid(51, 51, SQUARE)
        limit = stability_limit(g)
        with pytest.raises(ValueError, match="stability"):
            PgdConfig(alpha=limit * (1.0 + 1e-8)).resolve_alpha(g)
        # just below the guard passes
        assert PgdConfig(alpha=limit * (1.0 - 1e-6)).resolve_alpha(g) > 0

    def test_rejects_nonpositive(self):
        g = build_grid(11, 11, SQUARE)
        with pytest.raises(ValueError):
            PgdConfig(alpha=0.0).resolve_alpha(g)

    @pytest.mark.parametrize("config, field", [
        (PgdConfig, "alpha"), (PgdConfig, "tol"), (FistaConfig, "alpha0"),
        (FistaConfig, "alpha_min"), (FistaConfig, "rho"), (FistaConfig, "eta"),
        (FistaConfig, "tau"), (FistaConfig, "tol"),
    ])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_values(self, config, field, value):
        # an infinite alpha0 made FISTA's backtracking shrink inf forever
        with pytest.raises(ValueError, match="finite"):
            config(**{field: value})


class TestMomentumSequence:
    def test_first_values(self):
        t1 = next_t(1.0)
        assert t1 == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0)
        beta0 = (1.0 - 1.0) / t1
        assert beta0 == 0.0

    def test_growth_bound(self):
        t = 1.0
        for k in range(1, 10001):
            t_new = next_t(t)
            assert t_new > t
            assert t_new >= (k + 2) / 2.0
            t = t_new


class TestPgdRun:
    def test_zero_boundary_data_trivial(self):
        g = build_grid(17, 17, SQUARE)
        tr = BoundaryTrace(g, np.zeros((3, *g.shape)))
        state, report = pgd_run(g, tr, PgdConfig())
        assert report.converged and report.iters == 1
        assert report.final_energy == 0.0
        assert np.abs(state.stack()).max() == 0.0

    def test_bc4_converges_with_monotone_energy(self):
        g = build_grid(41, 41, SQUARE)
        state, report = pgd_run(g, "bc4", PgdConfig())
        assert report.converged
        energies = [h["energy"] for h in report.history]
        assert all(b <= a + 1e-12 for a, b in zip(energies[10:], energies[11:]))
        assert all(h["violation_max"] <= 1e-12 for h in report.history)
        assert report.final_violation_max == 0.0

    def test_boundary_pinned_to_trace(self):
        g = build_grid(21, 21, SQUARE)
        tr = evaluate_bc(builtin_config("bc3"), g)
        state, _ = pgd_run(g, tr, PgdConfig(max_iters=50))
        b = g.boundary_mask()
        for k, comp in enumerate(state.components):
            assert np.array_equal(comp.values[b], tr.phi[k][b])

    def test_history_schema(self):
        g = build_grid(15, 15, SQUARE)
        _, report = pgd_run(g, "bc4", PgdConfig(max_iters=20))
        row = report.history[0]
        assert set(row) == {"iter", "energy", "step_norm", "violation_max", "pg_residual"}
        assert row["pg_residual"] == pytest.approx(
            row["step_norm"] / report.meta["alpha"]
        )

    def test_max_iters_exhaustion_returns_best_iterate(self):
        g = build_grid(41, 41, SQUARE)
        state, report = pgd_run(g, "bc1", PgdConfig(max_iters=10))
        assert not report.converged and report.iters == 10
        assert np.isfinite(report.final_energy)


class TestStoppingMeasure:
    @pytest.mark.parametrize("run, cfg", [(pgd_run, PgdConfig), (fista_run, FistaConfig)],
                             ids=["pgd", "fista"])
    def test_history_step_norm_is_max_l2_step_of_iterates(self, run, cfg):
        g = build_grid(25, 21, SQUARE)
        s1, _ = run(g, "bc7", cfg(max_iters=1))
        s2, report = run(g, "bc7", cfg(max_iters=2))
        expected = plain_max_l2_step(g, s2.stack(), s1.stack())
        assert report.history[1]["step_norm"] == expected


def run_backtrack(g, u, tr, alpha, current_energy, cfg):
    """`_backtrack` from u with no momentum and no previous assignment."""
    _, alpha_min = cfg.resolve_alphas(g)
    return _backtrack(_Workspace(g, tr), np.empty_like(u), u.copy(), u, alpha, current_energy,
                      cfg, alpha_min, None)


class TestBacktrack:
    def test_accepts_at_alpha0_when_energy_decreases(self):
        g = build_grid(17, 17, SQUARE)
        u = rough_two_phase_state(g)
        tr = np.zeros((3, *g.shape))
        cfg = FistaConfig(eta=0.0, tau=0.0)
        a0, _ = cfg.resolve_alphas(g)
        bt = run_backtrack(g, u, tr, a0, energy_of_stack(g, u), cfg)
        assert not bt.needs_restart and bt.shrinks == 0 and bt.alpha == a0

    def test_exactly_two_shrinks_on_unstable_start(self):
        # alpha0 and rho*alpha0 amplify the high modes; rho^2*alpha0 is stable
        g = build_grid(17, 17, SQUARE)
        h2 = g.hx**2
        u = rough_two_phase_state(g, seed=42)
        tr = np.zeros((3, *g.shape))
        cfg = FistaConfig(alpha0=0.9 * h2, alpha_min=1e-5 * h2, eta=0.0, tau=0.0)
        e_u = energy_of_stack(g, u)
        bt = run_backtrack(g, u, tr, 0.9 * h2, e_u, cfg)
        assert bt.shrinks == 2
        assert bt.alpha == pytest.approx(0.9 * h2 * 0.25)
        assert bt.energy <= e_u
        assert not bt.needs_restart

    def test_trial_sequence_is_geometric(self):
        cfg = FistaConfig()
        trials = [1.0]
        for _ in range(5):
            trials.append(max(cfg.rho * trials[-1], 1e-9))
        assert all(b <= a for a, b in zip(trials, trials[1:]))

    def test_restart_flag_when_floor_fails(self):
        # no shrink room and an energy-increasing candidate forces the flag
        g = build_grid(17, 17, SQUARE)
        h2 = g.hx**2
        u = rough_two_phase_state(g, seed=7)
        tr = np.zeros((3, *g.shape))
        cfg = FistaConfig(alpha0=0.9 * h2, alpha_min=0.9 * h2, eta=0.0, tau=0.0)
        bt = run_backtrack(g, u, tr, 0.9 * h2, energy_of_stack(g, u), cfg)
        assert bt.needs_restart
        assert bt.shrinks == 0


class TestFistaRun:
    def test_first_step_matches_plain_pgd_step(self):
        # with t0 = 1 the momentum weight is zero: step 1 is a pure
        # gradient-project step at alpha0 (eta = tau = 0 to strip safeguards)
        g = build_grid(21, 21, SQUARE)
        tr = evaluate_bc(builtin_config("bc4"), g)
        cfg = FistaConfig(eta=0.0, tau=0.0, max_iters=1)
        state, report = fista_run(g, tr, cfg)
        a0, _ = cfg.resolve_alphas(g)

        u0 = np.stack(
            [harmonic_extension(g, tr.phi[k]).values for k in range(3)]
        )
        inner, _ = project_stack_interior(u0[:, 1:-1, 1:-1])
        u0 = tr.phi.copy()
        u0[:, 1:-1, 1:-1] = inner
        inner, _ = project_stack_interior(plain_gradient_step(g, u0, a0))
        expected = tr.phi.copy()
        expected[:, 1:-1, 1:-1] = inner
        assert np.array_equal(state.stack(), expected)

    def test_first_step_with_bias_and_hysteresis_matches_plain_expressions(self):
        # the default safeguards (eta = 0.2, tau = 1e-10) on the same first
        # step, written out with plain array expressions: bitwise equal
        g = build_grid(23, 19, SQUARE)
        tr = evaluate_bc(builtin_config("bc7"), g)
        cfg = FistaConfig(max_iters=1)
        state, report = fista_run(g, tr, cfg)
        a0, _ = cfg.resolve_alphas(g)

        u0 = np.stack(
            [harmonic_extension(g, tr.phi[k]).values for k in range(3)]
        )
        inner, k0 = project_stack_interior(u0[:, 1:-1, 1:-1])
        u0 = tr.phi.copy()
        u0[:, 1:-1, 1:-1] = inner
        cand = plain_gradient_step(g, u0, a0, u0, cfg.eta)
        inner, _ = project_stack_interior(cand, k0, cfg.tau)
        expected = tr.phi.copy()
        expected[:, 1:-1, 1:-1] = inner
        assert state.stack().tobytes() == expected.tobytes()
        assert report.history[0]["energy"] == plain_energy(g, expected)
        assert report.history[0]["step_norm"] == plain_max_l2_step(g, expected, u0)

    def test_bc4_converges_with_enforced_monotonicity(self):
        g = build_grid(41, 41, SQUARE)
        state, report = fista_run(g, "bc4", FistaConfig())
        assert report.converged
        energies = [h["energy"] for h in report.history]
        assert all(b <= a + 1e-15 for a, b in zip(energies, energies[1:]))
        assert report.final_violation_max == 0.0
        assert all(h["violation_max"] == 0.0 for h in report.history)

    def test_faster_than_plain_pgd(self):
        g = build_grid(41, 41, SQUARE)
        _, rep_pgd = pgd_run(g, "bc4", PgdConfig())
        _, rep_fista = fista_run(g, "bc4", FistaConfig())
        assert rep_fista.converged and rep_pgd.converged
        assert rep_fista.iters < rep_pgd.iters

    def test_restart_loop_does_not_falsely_converge(self):
        # alpha pinned at an unstable value: every iteration restarts, the
        # iterate never moves, and the run must not report convergence
        g = build_grid(17, 17, SQUARE)
        h2 = g.hx**2
        tr = evaluate_bc(builtin_config("bc8"), g)
        cfg = FistaConfig(alpha0=0.9 * h2, alpha_min=0.9 * h2, max_iters=30)
        state, report = fista_run(g, tr, cfg)
        assert not report.converged
        assert report.meta["restarts"] == 30
        energies = [h["energy"] for h in report.history]
        assert all(b <= a for a, b in zip(energies, energies[1:]))
        assert all(h["step_norm"] is None for h in report.history if h["restarted"])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FistaConfig(rho=1.0)
        with pytest.raises(ValueError):
            FistaConfig(eta=-0.1)
        with pytest.raises(ValueError):
            FistaConfig(tau=-1e-3)
        with pytest.raises(ValueError):
            FistaConfig(alpha0=1e-9, alpha_min=1e-8).resolve_alphas(
                build_grid(11, 11, SQUARE)
            )

    def test_boundary_pinned_every_component(self):
        g = build_grid(21, 21, SQUARE)
        tr = evaluate_bc(builtin_config("bc5"), g)
        state, _ = fista_run(g, tr, FistaConfig(max_iters=60))
        b = g.boundary_mask()
        for k, comp in enumerate(state.components):
            assert np.array_equal(comp.values[b], tr.phi[k][b])


def plain_project(v, prev=None, tau=0.0):
    """Projection of a (3, m, n) block by argmin, with project_point's hysteresis rule."""
    p = np.maximum(v, 0.0)
    k = np.argmin(p, axis=0)  # ties to the smallest index
    if prev is not None:
        at_prev = np.take_along_axis(p, np.maximum(prev - 1, 0)[None].astype(np.intp), 0)[0]
        k = np.where((prev > 0) & (at_prev <= p.min(axis=0) + tau), prev - 1, k)
    np.put_along_axis(p, k[None], 0.0, 0)
    return p, k + 1


def plain_energy(grid, u):
    """Squared cell differences summed by einsum over the cell view of (3, ny, nx) arrays."""
    sums = []
    for d in (u[:, :-1, 1:] - u[:, :-1, :-1], u[:, 1:, :-1] - u[:, :-1, :-1]):
        full = np.zeros_like(u)
        full[:, :-1, :-1] = d
        v = full[:, :-1, :-1]
        sums.append(float(np.einsum("kij,kij->", v, v)))
    return 0.5 * (sums[0] / grid.hx**2 + sums[1] / grid.hy**2) * grid.hx * grid.hy


def plain_violation(u):
    return float(np.max(np.abs(u[0] * u[1] * u[2])))


def plain_gradient_step(grid, y, alpha, u=None, eta=0.0):
    """Interior of y + alpha * lap_h(y), then (. + eta*u)/(1 + eta) if eta > 0.

    The three-coefficient stencil: k1 = alpha/hx^2, k2 = alpha/hy^2,
    k0 = 1 - 2*k1 - 2*k2, each scaled by 1/(1 + eta) with the bias.
    """
    k1 = alpha / grid.hx**2
    k2 = alpha / grid.hy**2
    k0 = 1.0 - 2.0 * k1 - 2.0 * k2
    if eta > 0.0:
        s = 1.0 / (1.0 + eta)
        k0, k1, k2 = k0 * s, k1 * s, k2 * s
    out = (
        (y[:, 2:, 1:-1] + y[:, :-2, 1:-1]) * k2
        + (y[:, 1:-1, :-2] + y[:, 1:-1, 2:]) * k1
        + y[:, 1:-1, 1:-1] * k0
    )
    if eta > 0.0:
        out = out + u[:, 1:-1, 1:-1] * (eta * s)
    return out


def pinned(tr, inner):
    u = tr.copy()
    u[:, 1:-1, 1:-1] = inner
    return u


def plain_start(grid, tr):
    """Projected harmonic extensions and their interior indices."""
    u = np.stack([harmonic_extension(grid, tr[k]).values for k in range(3)])
    inner, k = plain_project(u[:, 1:-1, 1:-1])
    return pinned(tr, inner), k


class TestReferenceLoops:
    """pgd_run and fista_run against their iterations written out with plain
    array expressions, at a benchmark grid size: every history row and the
    final stack are bitwise equal."""

    def test_pgd_on_ex41_at_n61(self):
        g = build_grid(61, 61, SQUARE)
        tr = evaluate_bc(builtin_config("ex41"), g).phi
        cfg = PgdConfig(max_iters=300)
        state, report = pgd_run(g, "ex41", cfg)
        alpha = cfg.resolve_alpha(g)

        u, _ = plain_start(g, tr)
        history = []
        for it in range(cfg.max_iters):
            new = pinned(tr, plain_project(plain_gradient_step(g, u, alpha))[0])
            step = plain_max_l2_step(g, new, u)
            u = new
            history.append({"iter": it + 1, "energy": plain_energy(g, u), "step_norm": step,
                            "violation_max": plain_violation(u), "pg_residual": step / alpha})
        assert len(report.history) == len(history) == 300
        for got, expected in zip(report.history, history):
            assert got == expected
        assert state.stack().tobytes() == u.tobytes()
        assert report.final_energy == plain_energy(g, u)

    @pytest.mark.parametrize(
        "a0, amin, tau",
        [(None, None, 1e-10), (0.3, None, 1e-3), (0.2, 0.2, 1e-10)],
        ids=["defaults", "shrinks-and-hysteresis", "restarts"],
    )
    def test_fista_on_bc7_at_n31(self, a0, amin, tau):
        g = build_grid(31, 31, SQUARE)
        tr = evaluate_bc(builtin_config("bc7"), g).phi
        h2 = g.hx**2
        cfg = FistaConfig(
            alpha0=a0 and a0 * h2, alpha_min=amin and amin * h2, tau=tau, max_iters=200
        )
        state, report = fista_run(g, "bc7", cfg)
        alpha0, alpha_min = cfg.resolve_alphas(g)

        u, k_prev = plain_start(g, tr)
        energy_u = plain_energy(g, u)
        t, y, alpha = 1.0, u.copy(), alpha0
        history = []
        for it in range(cfg.max_iters):
            a = alpha
            while True:  # backtracking
                inner = plain_gradient_step(g, y, a, u, cfg.eta)
                inner, k = plain_project(inner, k_prev, cfg.tau)
                cand = pinned(tr, inner)
                energy = plain_energy(g, cand)
                restart = energy > energy_u and a <= alpha_min * (1.0 + 1e-12)
                if energy <= energy_u or restart:
                    break
                a = max(cfg.rho * a, alpha_min)
            if restart:
                t, y, alpha = 1.0, u.copy(), alpha0
                history.append({"iter": it + 1, "energy": energy_u, "step_norm": None,
                                "violation_max": plain_violation(u), "alpha": a,
                                "restarted": True})
                continue
            step = plain_max_l2_step(g, cand, u)
            t_new = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
            y = cand + (t - 1.0) / t_new * (cand - u)
            t, u, k_prev, energy_u, alpha = t_new, cand, k, energy, a
            history.append({"iter": it + 1, "energy": energy_u, "step_norm": step,
                            "violation_max": plain_violation(u), "alpha": alpha,
                            "restarted": False})
            if step < cfg.tol:
                break
        assert len(report.history) == len(history) == 200
        for got, expected in zip(report.history, history):
            assert got == expected
        assert state.stack().tobytes() == u.tobytes()
        assert report.final_energy == plain_energy(g, u)


class TestStepNormWeighting:
    def test_step_norm_uses_domain_quadrature(self):
        # one unit change at a single interior node: step = sqrt(hx*hy)
        g = build_grid(11, 11, SQUARE)
        w = node_weights(g)
        d = np.zeros((3, *g.shape))
        d[0, 5, 5] = 1.0
        norm = np.sqrt(np.max(np.sum(w * d * d, axis=(1, 2))))
        assert norm == pytest.approx(np.sqrt(g.hx * g.hy))


# Runs in a child process: bench/tracing.py wraps the module functions of
# segsolve in place.  Prints, per algorithm, the iterations of the report,
# the traced backtracking trials (FISTA), the step_into spans, the
# grid.energy_of_stack and projection.project_stack_interior spans, and
# those of them nested in a span of either name.
TRACED_RUNS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from segsolve import projected_gradient as pg
from segsolve.grid import build_grid

rec = tracing.Recorder(sys.argv[2])
tracing.install(rec)
grid = build_grid(21, 21, (-1.0, 1.0, -1.0, 1.0))
layers = ("grid.energy_of_stack", "projection.project_stack_interior")
out = {}
for name, run in (("pgd", pg.pgd_run), ("fista", pg.fista_run)):
    start = len(rec.names)
    trials = rec.counts.get("projected_gradient.backtrack_trials", 0)
    _, report = run(grid, "ex41")
    spans = range(start, len(rec.names))
    out[name] = {
        "iters": report.iters,
        "trials": rec.counts.get("projected_gradient.backtrack_trials", 0) - trials,
        "steps": sum(rec.names[k].endswith("step_into") for k in spans),
        "energy": sum(rec.names[k] == layers[0] for k in spans),
        "project": sum(rec.names[k] == layers[1] for k in spans),
        "nested": sum(rec.names[k] in layers and rec.parents[k] >= 0
                      and rec.names[rec.parents[k]] in layers for k in spans),
    }
print(json.dumps(out))
"""


def test_tracer_records_one_span_per_kernel_call(tmp_path, child_env):
    # the spans behind grid.energy_ms and projection.project_ms: one per
    # iteration (PGD) or backtracking trial (FISTA), plus the projection of
    # the initial state, the final energy and FISTA's initial energy
    bench = Path(__file__).resolve().parents[1] / "bench"
    res = subprocess.run(
        [sys.executable, "-c", TRACED_RUNS, str(bench), str(tmp_path)],
        env=child_env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    counts = json.loads(res.stdout)
    pgd, fista = counts["pgd"], counts["fista"]
    assert pgd["iters"] > 0 and pgd["steps"] == pgd["iters"]
    assert pgd["energy"] == pgd["iters"] + 1
    assert pgd["project"] == pgd["iters"] + 1
    assert fista["trials"] >= fista["iters"] > 0 and fista["steps"] == fista["trials"]
    assert fista["energy"] == fista["trials"] + 2
    assert fista["project"] == fista["trials"] + 1
    assert pgd["nested"] == fista["nested"] == 0
