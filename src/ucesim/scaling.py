"""Gate-count thresholds n*(n_q, eps) and scaling-law fits.

A convergence curve is its list of (n_g, D) points. From each we extract the
smallest gate count at which the distance first drops to eps (linearly
interpolated in ln D between checkpoints and rounded up), guarded against the
finite-sample saturation floor. The resulting (n_q, n*) pairs are fitted by
closed-form least squares to three two-parameter models:

    f1 = a * n_q + b
    f2 = a * n_q * ln(n_q / eps) + b
    f3 = a * n_q * (n_q + ln(1 / eps)) + b

with chi^2 the raw sum of squared residuals.
"""

from __future__ import annotations

import math

import numpy as np

MODELS = ("f1", "f2", "f3")
# n_star gives None for eps below this multiple of the saturation floor.
GUARD_FACTOR = 2.0


def saturation_floor(points) -> float:
    """Median D over the last quartile of checkpoints (>= 4 points)."""
    pts = list(points)
    if len(pts) < 4:
        raise ValueError("need at least 4 points to estimate the floor")
    tail = sorted(d for _, d in pts[-max(1, math.ceil(len(pts) / 4)):])
    mid = len(tail) // 2
    # np.median's value, without the numpy.ma import its first call makes.
    return float(tail[mid] if len(tail) % 2 else (tail[mid - 1] + tail[mid]) / 2)


def n_star(points, eps: float) -> int | None:
    """Smallest gate count with D <= eps on a curve of (n_g, D) points, or
    None when unreachable.

    None signals eps < GUARD_FACTOR * saturation_floor(points), which is
    only checked on curves of 4 or more points (too close to the floor;
    increase n_r or eps), or that the curve never crosses eps.
    The crossing is interpolated in ln D, as D decays about exponentially
    (a chord in D crosses late), or in D where it lands on D = 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if len(points) >= 4 and eps < GUARD_FACTOR * saturation_floor(points):
        return None
    prev = None
    for ng, d in points:
        if d <= eps:
            if prev is None:
                return max(1, int(ng))
            ng0, d0 = prev
            if d > 0:
                x = ng0 + math.log(d0 / eps) * (ng - ng0) / math.log(d0 / d)
            else:
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


def fit_model(points, ln_eps: float, model: str) -> tuple[float, float, float]:
    """Least-squares fit of one model to (n_q, n*) pairs at ln_eps; returns
    (a, b, chi2). n* may be any real >= 1, to admit synthetic model values."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("need at least 3 points to fit")
    nq, y = np.array(list(zip(*pts)), dtype=float)
    if not (y >= 1).all():
        raise ValueError("n_star must be >= 1")
    x = _regressor(model, nq, ln_eps)
    if np.ptp(x) == 0:
        raise ValueError("degenerate regressor: all x values equal")
    design = np.column_stack([x, np.ones_like(x)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[0]), float(coef[1]), float(np.sum(resid ** 2))
