"""Gate-count thresholds n*(n_q, eps) and scaling-law fits.

From each convergence curve we extract the smallest gate count at which the
distance first drops to eps (linearly interpolated between checkpoints and
rounded up), guarded against the finite-sample saturation floor. The
resulting n*(n_q) data are fitted by closed-form least squares to three
two-parameter models:

    f1 = a * n_q + b
    f2 = a * n_q * ln(n_q / eps) + b
    f3 = a * n_q * (n_q + ln(1 / eps)) + b

with chi^2 the raw sum of squared residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble_stats import ConvergenceCurve

MODELS = ("f1", "f2", "f3")


@dataclass(frozen=True)
class NStarPoint:
    """One gate-count threshold; n_star is float to admit synthetic model
    values, the curve extractor always produces integers."""

    n_q: int
    ln_eps: float
    n_star: float

    def __post_init__(self):
        if self.n_star < 1:
            raise ValueError("n_star must be >= 1")


@dataclass(frozen=True)
class FitResult:
    model: str
    a: float
    b: float
    chi2: float
    ln_eps: float


def n_star(curve: ConvergenceCurve, eps: float, guard_factor: float = 2.0) -> int | None:
    """Smallest gate count with D <= eps, or None when unreachable.

    None signals eps < guard_factor * d_min (too close to the saturation
    floor; increase n_r or eps) or that the curve never crosses eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if guard_factor <= 1:
        raise ValueError("guard_factor must exceed 1")
    if math.isfinite(curve.d_min) and eps < guard_factor * curve.d_min:
        return None
    prev = None
    for ng, d in curve.points:
        if d <= eps:
            if prev is None:
                return max(1, int(ng))
            ng0, d0 = prev
            x = ng0 + (d0 - eps) * (ng - ng0) / (d0 - d)
            return max(1, math.ceil(x))
        prev = (ng, d)
    return None


def _regressor(model: str, n_q: np.ndarray, ln_eps: float) -> np.ndarray:
    if model == "f1":
        return n_q.astype(float)
    if model == "f2":
        return n_q * (np.log(n_q) - ln_eps)
    if model == "f3":
        return n_q * (n_q - ln_eps)
    raise ValueError(f"unknown model {model!r}")


def fit_model(points, model: str) -> FitResult:
    """Least-squares fit of one model to n*(n_q) data at fixed ln_eps."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit")
    ln_eps_values = {p.ln_eps for p in pts}
    if len(ln_eps_values) != 1:
        raise ValueError("all points must share ln_eps")
    ln_eps = pts[0].ln_eps
    nq = np.array([p.n_q for p in pts], dtype=float)
    y = np.array([p.n_star for p in pts], dtype=float)
    x = _regressor(model, nq, ln_eps)
    if np.ptp(x) == 0:
        raise ValueError("degenerate regressor: all x values equal")
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return FitResult(model=model, a=float(coef[0]), b=float(coef[1]),
                     chi2=float(np.sum(resid ** 2)), ln_eps=ln_eps)

