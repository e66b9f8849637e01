"""Each benchmark check accepts a valid output and rejects a broken one made for it.

    PYTHONPATH=src python -m pytest -q bench
"""

import numpy as np
import pytest

import checks


def _grid(n):
    xs = np.linspace(-1.0, 1.0, n)
    return xs, xs.copy(), xs[1] - xs[0]


def test_segregated_rejects_a_node_with_three_positive_components():
    u = np.zeros((3, 5, 5))
    u[0, 1:4, 1:3] = 1.0
    u[1, 1:4, 3] = 2.0
    u[2] = 0.5
    u[2, 1:4, 1:4] = 0.0
    checks.check_segregated(u)
    u[1:, 2, 2] = 1e-200  # u1*u2*u3 underflows to 0, yet all three are positive
    assert u[0, 2, 2] * u[1, 2, 2] * u[2, 2, 2] == 0.0
    with pytest.raises(checks.CheckFailed, match="all three"):
        checks.check_segregated(u)


def test_segregated_rejects_a_negative_interior_value():
    u = np.zeros((3, 5, 5))
    u[1, 2, 2] = -1e-12
    with pytest.raises(checks.CheckFailed, match="negative"):
        checks.check_segregated(u)


def test_nonincreasing_rejects_a_rising_energy_history():
    checks.check_nonincreasing([3.0, 2.0, 2.0, 1.0])
    checks.check_nonincreasing([3.0, 4.0, 2.0, 1.0], start=1)
    with pytest.raises(checks.CheckFailed, match="rises"):
        checks.check_nonincreasing([3.0, 2.0, 2.0 + 4e-16, 1.0])


def test_sqrt_eps_rate_rejects_norms_that_do_not_fall_like_sqrt_eps():
    eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    slope = checks.check_sqrt_eps_rate(eps, 0.7 * eps**0.5 * (1.0 + 0.05 * np.array([1, -1, 1, -1])))
    assert slope == pytest.approx(0.5, abs=0.05)
    for broken in (0.7 * eps, np.full(4, 0.3), 0.7 * eps**0.25):
        with pytest.raises(checks.CheckFailed, match="slope"):
            checks.check_sqrt_eps_rate(eps, broken)


def test_contour_levels_reject_a_vertex_off_its_level():
    xs, ys, _ = _grid(11)
    f = np.tile(xs, (len(ys), 1)) ** 2  # f = x^2, level 0.3 crosses each row twice
    cross = np.sqrt(0.3)
    on_rows = []
    for y in ys:
        for x in (-cross, cross):
            i = np.searchsorted(xs, x) - 1
            fa, fb = xs[i] ** 2 - 0.3, xs[i + 1] ** 2 - 0.3
            on_rows.append((xs[i] + fa / (fa - fb) * (xs[i + 1] - xs[i]), y))
    verts = np.array(on_rows)
    checks.check_contour_levels(f, xs, ys, 0.3, verts)

    shifted = verts.copy()
    shifted[3, 0] += 1e-3
    with pytest.raises(checks.CheckFailed, match="off its level"):
        checks.check_contour_levels(f, xs, ys, 0.3, shifted)
    off_edge = verts.copy()
    off_edge[3, 1] += 1e-3
    with pytest.raises(checks.CheckFailed, match="off every grid edge"):
        checks.check_contour_levels(f, xs, ys, 0.3, off_edge)


def test_contour_levels_on_vertical_edges():
    xs, ys, _ = _grid(9)
    f = np.tile(ys[:, None], (1, len(xs)))  # f = y, level 0.1 crosses each column
    j = np.searchsorted(ys, 0.1) - 1
    t = (0.1 - ys[j]) / (ys[j + 1] - ys[j])
    verts = np.array([(x, ys[j] + t * (ys[j + 1] - ys[j])) for x in xs])
    checks.check_contour_levels(f, xs, ys, 0.1, verts)
    with pytest.raises(checks.CheckFailed, match="off its level"):
        checks.check_contour_levels(f, xs, ys, 0.12, verts)


def test_stationary_rejects_a_state_one_step_still_moves():
    n = 9
    xs, _, h = _grid(n)
    alpha = 0.1 * h * h
    # a harmonic (linear) first component with the others zero is a fixed point
    fixed = np.zeros((3, n, n))
    fixed[0] = 2.0 + np.tile(xs, (n, 1))
    trace = fixed.copy()
    trace[:, 1:-1, 1:-1] = 0.0
    assert checks.check_stationary(fixed, trace, alpha, h, h, 1e-8) == 0.0

    moving = checks.ex41_trace(n)  # zero interior under nonzero boundary data
    with pytest.raises(checks.CheckFailed, match="still moves"):
        checks.check_stationary(moving, checks.ex41_trace(n), alpha, h, h, 1e-8)


def test_project_zeroes_the_smallest_positive_part_with_ties_to_the_first():
    v = np.array([[0.5, 0.2, -1.0], [0.2, 0.2, 3.0], [0.3, 0.9, 2.0]])[:, :, None]
    p = checks.project(v)[:, :, 0]
    np.testing.assert_array_equal(p, [[0.5, 0.0, 0.0], [0.0, 0.2, 3.0], [0.3, 0.9, 2.0]])


def test_within_rejects_values_above_the_boundary_maximum():
    checks.check_within(0.0, 1.0, 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_within(0.0, 1.0 + 1e-8, 1.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_within(-1e-8, 0.5, 1.0)


def test_boundary_rejects_a_changed_ring_value():
    u = checks.ex41_trace(7)
    checks.check_boundary(u, checks.ex41_trace(7))
    u[2, 0, 3] = 0.25 + 1e-16
    with pytest.raises(checks.CheckFailed, match="boundary"):
        checks.check_boundary(u, checks.ex41_trace(7))


def test_own_references_agree_with_segsolve():
    segsolve = pytest.importorskip("segsolve")
    from segsolve.grid import energy_of_stack

    grid = segsolve.build_grid(21, 21, (-1.0, 1.0, -1.0, 1.0))
    phi = segsolve.evaluate_bc(segsolve.builtin_config("ex41"), grid).phi
    np.testing.assert_array_equal(checks.ex41_trace(21), phi)

    u = np.random.default_rng(3).uniform(0.0, 1.0, (3, 21, 21))
    assert checks.cell_energy(u, grid.hx, grid.hy) == pytest.approx(
        energy_of_stack(grid, u), rel=1e-13
    )
    checks.check_energy_matches(u, grid.hx, grid.hy, energy_of_stack(grid, u))
    with pytest.raises(checks.CheckFailed, match="energy"):
        checks.check_energy_matches(u, grid.hx, grid.hy, energy_of_stack(grid, u) * (1 + 1e-9))
