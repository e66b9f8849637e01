"""Region means and the penalty-parameter scaling study.

Regions follow the benchmark square: the inner square max(|x|,|y|) <= a, the
boundary layer max(|x|,|y|) >= 1 - w, and the annular remainder.  The scaling
study runs the penalty solver down a ladder of epsilons and fits the log-log
slope of the converged product norm, which the penalty bound predicts to be
about one half.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, RegionMask, check_fields
from .penalty import PenaltyConfig, run_penalty

__all__ = [
    "RegionSpec",
    "ScalingStudy",
    "build_region_mask",
    "fit_power_law",
    "run_scaling_study",
    "study_to_csv",
    "study_fit_json",
]

REGION_NAMES = ("inner_square", "boundary_layer", "outer")


@dataclass
class RegionSpec:
    name: str
    a: float = 0.3  # inner half-width
    w: float = 0.05  # layer width

    def __post_init__(self):
        check_fields(self)
        if self.name not in REGION_NAMES:
            raise ValueError(f"region name must be one of {REGION_NAMES}")
        if not 0.0 < self.a < 1.0:
            raise ValueError("inner half-width a must lie in (0, 1)")
        if not 0.0 < self.w < 1.0 - self.a:
            raise ValueError("layer width w must lie in (0, 1 - a)")


GEOM_TOL = 1e-12  # absorbs float noise in node coordinates at region edges


def build_region_mask(grid: Grid, spec: RegionSpec) -> RegionMask:
    X, Y = grid.meshgrid()
    r = np.maximum(np.abs(X), np.abs(Y))
    inner = r <= spec.a + GEOM_TOL
    layer = r >= 1.0 - spec.w - GEOM_TOL
    if spec.name == "inner_square":
        mask = inner
    elif spec.name == "boundary_layer":
        mask = layer
    else:
        mask = ~inner & ~layer
    if not mask.any():
        raise ValueError(f"region {spec.name!r} is empty on this grid")
    return RegionMask(grid, mask)


def fit_power_law(epsilons, norms) -> tuple[float, float, float]:
    """Least-squares fit log(norm) = slope * log(eps) + intercept; returns R^2 too."""
    le = np.log(np.asarray(epsilons, dtype=float))
    ln = np.log(np.asarray(norms, dtype=float))
    slope, intercept = np.polyfit(le, ln, 1)
    fitted = slope * le + intercept
    ss_res = float(np.sum((ln - fitted) ** 2))
    ss_tot = float(np.sum((ln - ln.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), r2


@dataclass
class ScalingStudy:
    epsilons: list[float]
    product_l2: list[float]
    energies: list[float]
    converged: list[bool]
    slope: float
    intercept: float
    r2: float
    inconclusive: bool
    excluded: list[float] = field(default_factory=list)


def run_scaling_study(
    grid: Grid, bc, ladder: list[float], cfg: PenaltyConfig
) -> ScalingStudy:
    """Continuation run over the ladder, recording per-stage product norms.

    Stages that fail to converge are recorded but excluded from the fit; the
    fit is flagged inconclusive when R^2 < 0.9.
    """
    ladder = [float(e) for e in ladder]
    if len(ladder) < 3:
        raise ValueError("epsilon ladder needs at least 3 entries")
    # run_penalty checks the rest of the ladder before any solve
    _, _, report = run_penalty(grid, bc, cfg, stages=ladder)
    stages = report.meta["stages"]
    eps_ok = [s["epsilon"] for s in stages if s["converged"]]
    norms_ok = [s["product_l2"] for s in stages if s["converged"]]
    excluded = [s["epsilon"] for s in stages if not s["converged"]]
    if len(eps_ok) < 2:
        slope, intercept, r2 = float("nan"), float("nan"), 0.0
    else:
        slope, intercept, r2 = fit_power_law(eps_ok, norms_ok)
    return ScalingStudy(
        epsilons=[s["epsilon"] for s in stages],
        product_l2=[s["product_l2"] for s in stages],
        energies=[s["energy"] for s in stages],
        converged=[s["converged"] for s in stages],
        slope=slope,
        intercept=intercept,
        r2=r2,
        inconclusive=r2 < 0.9,
        excluded=excluded,
    )


def study_to_csv(study: ScalingStudy, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("epsilon,product_l2,energy\n")
        for eps, norm, en in zip(study.epsilons, study.product_l2, study.energies):
            fh.write(f"{eps:.17g},{norm:.17g},{en:.17g}\n")


def study_fit_json(study: ScalingStudy, path) -> None:
    with open(path, "w") as fh:
        json.dump(
            {
                "slope": study.slope,
                "intercept": study.intercept,
                "r2": study.r2,
                "inconclusive": study.inconclusive,
                "n_used": len(study.epsilons) - len(study.excluded),
                "excluded_epsilons": study.excluded,
            },
            fh,
            indent=1,
        )
        fh.write("\n")
