"""Correctness checks on solver outputs, computed from first principles.

Each check takes plain arrays, recomputes what it needs with its own code
(stencil, projection rule, energy, quadrature, interpolation) rather than
calling segsolve, and raises `CheckFailed` with the reason when the output
lacks a property the method must have.
"""

from __future__ import annotations

import numpy as np


class CheckFailed(AssertionError):
    pass


def ex41_trace(n: int) -> np.ndarray:
    """Example 4.1 boundary data on [-1,1]^2 with n nodes per axis; zero inside.

    phi1 = |y| where y < 0, phi2 = |y| where y > 0, phi3 = 1/4.
    """
    y = np.linspace(-1.0, 1.0, n)[:, None] + np.zeros((1, n))
    tr = np.stack([np.where(y < 0.0, -y, 0.0), np.where(y > 0.0, y, 0.0), np.full((n, n), 0.25)])
    tr[:, 1:-1, 1:-1] = 0.0
    return tr


def ring(u: np.ndarray) -> np.ndarray:
    """Boolean mask of the boundary ring of a (..., ny, nx) array."""
    mask = np.ones(u.shape[-2:], dtype=bool)
    mask[1:-1, 1:-1] = False
    return mask


def cell_energy(u: np.ndarray, hx: float, hy: float) -> float:
    """1/2 sum over components and cells of the forward-difference |grad u|^2 times hx*hy."""
    gx = np.diff(u, axis=2)[:, :-1, :] / hx
    gy = np.diff(u, axis=1)[:, :, :-1] / hy
    return 0.5 * float(np.sum(gx * gx) + np.sum(gy * gy)) * hx * hy


def check_segregated(u: np.ndarray) -> None:
    """Every interior node is nonnegative with one component exactly 0, so u1*u2*u3 == 0.

    Testing the zero component rather than the product also catches three
    tiny positive parts whose product underflows to 0.
    """
    inner = u[:, 1:-1, 1:-1]
    if np.any(inner < 0.0):
        raise CheckFailed(f"negative interior value {float(inner.min())!r}")
    bad = np.count_nonzero(np.min(inner, axis=0) != 0.0)
    if bad:
        raise CheckFailed(f"{bad} interior node(s) with all three components positive")


def check_nonnegative(u: np.ndarray) -> None:
    if np.any(u < 0.0):
        raise CheckFailed(f"negative value {float(u.min())!r}")


def check_boundary(u: np.ndarray, trace: np.ndarray) -> None:
    """The boundary ring equals the trace exactly."""
    m = ring(u)
    diff = np.count_nonzero(u[:, m] != trace[:, m])
    if diff:
        raise CheckFailed(f"{diff} boundary value(s) differ from the boundary data")


def check_energy_matches(u: np.ndarray, hx: float, hy: float, reported: float, rtol=1e-12) -> None:
    mine = cell_energy(u, hx, hy)
    if not abs(mine - reported) <= rtol * abs(mine):
        raise CheckFailed(f"recomputed energy {mine!r} differs from reported {reported!r}")


def check_nonincreasing(energies, start: int = 0) -> None:
    """energies[k+1] <= energies[k] for every k >= start, with no slack."""
    e = np.asarray(energies, dtype=float)[start:]
    rises = np.nonzero(e[1:] > e[:-1])[0]
    if rises.size:
        k = int(rises[0])
        raise CheckFailed(f"energy rises after entry {k + start}: {float(e[k])!r} -> {float(e[k + 1])!r}")


def check_within(values_min: float, values_max: float, upper: float, slack: float = 1e-10) -> None:
    """Every value lies in [0, upper], up to `slack` (the maximum principle)."""
    if values_min < -slack or values_max > upper + slack:
        raise CheckFailed(f"values span [{values_min!r}, {values_max!r}], outside [0, {upper!r}]")


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float))
    lx = lx - lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


def check_sqrt_eps_rate(eps, norms, lo: float = 0.35, hi: float = 0.65) -> float:
    """The product norms fall like eps**(1/2): fitted log-log slope in [lo, hi]."""
    slope = loglog_slope(eps, norms)
    if not lo <= slope <= hi:
        raise CheckFailed(f"log-log slope of product norm against eps is {slope:.4f}, not in [{lo}, {hi}]")
    return slope


def project(v: np.ndarray) -> np.ndarray:
    """Nearest segregated triple per node: clip negatives, zero the smallest positive part.

    Ties go to the lowest component index.
    """
    p = np.maximum(v, 0.0)
    k = np.argmin(p, axis=0)
    for i in range(3):
        p[i][k == i] = 0.0
    return p


def pg_step(u: np.ndarray, trace: np.ndarray, alpha: float, hx: float, hy: float) -> np.ndarray:
    """u + alpha * five-point Laplacian, projected inside, boundary set to the trace."""
    c = u[:, 1:-1, 1:-1]
    lap = (u[:, 1:-1, 2:] - 2.0 * c + u[:, 1:-1, :-2]) / hx**2 + (
        u[:, 2:, 1:-1] - 2.0 * c + u[:, :-2, 1:-1]
    ) / hy**2
    out = trace.copy()
    out[:, 1:-1, 1:-1] = project(c + alpha * lap)
    return out


def step_norm(a: np.ndarray, b: np.ndarray, hx: float, hy: float) -> float:
    """Max over components of the trapezoidal-rule L2 norm of a - b."""
    wy = np.full(a.shape[1], hy)
    wx = np.full(a.shape[2], hx)
    wy[[0, -1]] /= 2.0
    wx[[0, -1]] /= 2.0
    d = a - b
    return float(np.sqrt(np.max(np.sum(np.outer(wy, wx) * d * d, axis=(1, 2)))))


def check_stationary(u, trace, alpha, hx, hy, tol) -> float:
    """One projected-gradient step from u moves it by less than tol."""
    moved = step_norm(pg_step(u, trace, alpha, hx, hy), u, hx, hy)
    if not moved < tol:
        raise CheckFailed(f"one projected-gradient step still moves the state by {moved:.3e} >= {tol:g}")
    return moved


def check_contour_levels(f: np.ndarray, xs, ys, delta: float, vertices: np.ndarray, rtol=1e-9) -> None:
    """Every vertex lies on a grid edge where the linear interpolant of f equals delta.

    f is the (ny, nx) field, vertices a (k, 2) array of (x, y).
    """
    xs, ys = np.asarray(xs), np.asarray(ys)
    x, y = vertices[:, 0], vertices[:, 1]
    tol = rtol * max(float(np.max(np.abs(f))), delta)
    on_row = np.isin(y, ys)
    on_col = np.isin(x, xs) & ~on_row
    off = ~(on_row | on_col)
    if np.any(off):
        raise CheckFailed(f"{int(off.sum())} contour vertex(es) off every grid edge")

    def along(coord, nodes, fixed_idx, values_at):
        i = np.clip(np.searchsorted(nodes, coord, side="right") - 1, 0, len(nodes) - 2)
        if np.any((coord < nodes[0]) | (coord > nodes[-1])):
            raise CheckFailed("contour vertex outside the domain")
        t = (coord - nodes[i]) / (nodes[i + 1] - nodes[i])
        fa, fb = values_at(fixed_idx, i), values_at(fixed_idx, i + 1)
        return fa + t * (fb - fa)

    j_row = np.searchsorted(ys, y[on_row])
    level_h = along(x[on_row], xs, j_row, lambda j, i: f[j, i])
    i_col = np.searchsorted(xs, x[on_col])
    level_v = along(y[on_col], ys, i_col, lambda i, j: f[j, i])
    err = np.abs(np.concatenate([level_h, level_v]) - delta)
    if err.size and float(err.max()) > tol:
        raise CheckFailed(f"contour vertex off its level by {float(err.max()):.3e} (delta {delta:g})")
