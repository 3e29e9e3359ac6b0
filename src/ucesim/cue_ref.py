"""Closed-form CUE reference statistics and an exact Haar unitary sampler.

For a Haar-distributed N x N unitary, the log-intensity l = ln(N |U_ij|^2)
has density P(l) = ((N-1)/N) e^l (1 - e^l/N)^(N-2) on (-inf, ln N], with CDF
F(l) = 1 - (1 - e^l/N)^(N-1). Moments of y = N|U_ij|^2 are
mu_k = k! prod_{j=1}^{k-1} N/(N+j), and same-column k-point intensity
correlators are c_k = mu_k / k!.
"""

from __future__ import annotations

import math

import numpy as np


def cue_log_density(l, N: int):
    """Density of the log-intensity l; zero above ln N.

    The (N-2) power is evaluated via log1p for stability at large N.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    l = np.asarray(l, dtype=float)
    ln_n = math.log(N)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = np.exp(np.minimum(l, ln_n)) / N  # e^l / N in [0, 1]
        if N == 2:
            log_tail = 0.0  # avoid 0 * log1p(-1) = nan at l = ln N
        else:
            log_tail = (N - 2) * np.log1p(-np.minimum(u, 1.0))
        dens = ((N - 1) / N) * np.exp(np.minimum(l, ln_n) + log_tail)
    dens = np.where(l > ln_n, 0.0, dens)
    dens = np.where(np.isnan(dens), 0.0, dens)  # l = -inf
    if dens.ndim == 0:
        return float(dens)
    return dens


def _survival(l, N: int):
    """P(L > l) = (1 - e^l/N)^(N-1), with e^l/N clamped to [0, 1]."""
    l = np.asarray(l, dtype=float)
    ln_n = math.log(N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = np.minimum(np.exp(np.minimum(l, ln_n)) / N, 1.0)
        s = np.exp((N - 1) * np.log1p(-u))
    s = np.where(np.isinf(l) & (l < 0), 1.0, s)
    s = np.where(np.isnan(s), 0.0, s)  # log1p(-1) path: zero survival
    return s


def cue_bin_mass(l_lo, l_hi, N: int):
    """Probability of the log-intensity falling in (l_lo, l_hi]."""
    if N < 2:
        raise ValueError("N must be >= 2")
    lo = np.asarray(l_lo, dtype=float)
    hi = np.asarray(l_hi, dtype=float)
    if np.any(lo >= hi):
        raise ValueError("need l_lo < l_hi")
    mass = _survival(lo, N) - _survival(hi, N)
    if mass.ndim == 0:
        return float(mass)
    return mass


def cue_moment(k: int, N: int) -> float:
    """k-th moment of y = N|U_ij|^2: k! prod_{j=1}^{k-1} N/(N+j).

    The telescoping product avoids factorials of N entirely.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    value = float(math.factorial(k))
    for j in range(1, k):
        value *= N / (N + j)
    return value


def cue_correlator(k: int, N: int) -> float:
    """CUE value of the k-element same-column intensity product: mu_k / k!."""
    return cue_moment(k, N) / math.factorial(k)


def sample_haar_unitary(N: int, rng: np.random.Generator) -> np.ndarray:
    """Exact Haar-distributed N x N unitary (oracle scale, N <= 64).

    QR of a complex Gaussian matrix with the R-diagonal phase correction;
    equivalent in distribution to composing elementary two-dimensional
    rotations.
    """
    if N > 64:
        raise ValueError("Haar oracle limited to N <= 64")
    if N < 1:
        raise ValueError("N must be >= 1")
    z = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample_haar_first_columns(rows: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """First columns of ``rows`` Haar unitaries: uniformly random unit
    vectors, shape (rows, N).

    Each row takes N real then N imaginary normals from one draw. Its norm is
    the root of the summed squares of the real and imaginary parts, each sum
    a (1, N) @ (N, 1) product on the strided views, which rounds as the norm
    of the one complex vector (``np.linalg.norm(z[i])``) does.
    """
    g = rng.standard_normal((rows, 2, N))
    z = g[:, 0] + 1j * g[:, 1]
    re, im = z.real[:, None, :], z.imag[:, None, :]
    sq = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    return z / np.sqrt(sq[:, 0])
