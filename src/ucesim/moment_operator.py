"""Two-copy moment operator of the gate set and its spectral gap.

The gate set draws, each with weight 1/4: a Haar U(2) on either qubit of a
two-qubit pair, or a CNOT in either orientation. With gates W represented as
4x4 matrices, the moment operator is

    G = E[W (x) W (x) conj(W) (x) conj(W)],

a 256x256 matrix. The single-qubit Haar averages are either estimated by
Monte Carlo (default) or evaluated exactly via the known second-order
Weingarten weights for U(2). A gapped gate set has exactly two modulus-1
eigenvalues; the gap is 1 minus the next eigenvalue magnitude.
"""

from __future__ import annotations

import math

import numpy as np

from .gateset import TAPE_COLUMNS, haar_angles, su2_entries

# 4x4 CNOTs on a qubit pair |hi, lo> (index = 2*hi + lo).
CNOT_HI_CTRL = np.eye(4)[[0, 1, 3, 2]]
CNOT_LO_CTRL = np.eye(4)[[0, 3, 2, 1]]

# Fewest Haar samples the Monte Carlo path accepts.
MIN_MC_SAMPLES = 10_000
# Haar samples per batch of mc_two_copy_average.
MC_CHUNK = 4096

# Qubit slots (most significant first) carrying the single-qubit unitary in
# the 8-qubit tensor space of the four 4-dim copies.
_HI_POSITIONS = (0, 2, 4, 6)
_LO_POSITIONS = (1, 3, 5, 7)


def exact_two_copy_average() -> np.ndarray:
    """E[u (x) u (x) conj(u) (x) conj(u)] over Haar U(2), exactly.

    Second-order Weingarten weights for dimension 2: 1/3 for matching
    pairings, -1/6 for crossed ones.
    """
    eye = np.eye(2)
    same = np.einsum("ac,bd->abcd", eye, eye).reshape(16)   # a == c and b == d
    cross = np.einsum("ad,bc->abcd", eye, eye).reshape(16)  # a == d and b == c
    m = (np.outer(same, same) + np.outer(cross, cross)) / 3.0 \
        - (np.outer(same, cross) + np.outer(cross, same)) / 6.0
    return m.astype(complex)


def mc_two_copy_average(sample_count: int, rng: np.random.Generator):
    """Monte Carlo estimate of the U(2) two-copy average over Haar U(2)s
    drawn as a one-qubit gate tape draws them, at most ``MC_CHUNK`` per
    batch: ``haar_angles`` of the last four of each row's seven uniforms.

    The phase e^{i alpha} of each u cancels, so only the entries v of
    e^{-i alpha} u are built (``su2_entries``). v (x) v has 10 distinct
    entries v_A v_C, A <= C over flat indices A = 2a + b; their Gram sums
    are expanded to the 16 entries of u (x) u once, at the end.

    Returns (M, sigma) with sigma the largest per-entry standard error of
    the mean.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    # Row k of x holds v_A v_C for the k-th pair (A, C) = (ka[k], kc[k]).
    ka, kc = np.triu_indices(4)
    acc = np.zeros((10, 10), dtype=complex)
    acc2 = np.zeros((10, 10))
    # One batch's work arrays, allocated once: arrays this large, allocated
    # afresh, would fault in new pages on every batch.
    xb, xcb = np.empty((2, 10, MC_CHUNK), dtype=complex)
    pb, qb = np.empty((2, 10, MC_CHUNK))
    for start in range(0, sample_count, MC_CHUNK):
        n = min(MC_CHUNK, sample_count - start)
        angles = haar_angles(rng.random((n, TAPE_COLUMNS))[:, 3:])
        v = su2_entries(*angles[:, 1:].T).reshape(4, n)
        x, xc, p, q = xb[:, :n], xcb[:, :n], pb[:, :n], qb[:, :n]
        for i, r in enumerate((0, 4, 7, 9)):  # rows (i, i), ..., (i, 3)
            np.multiply(v[i], v[i:], out=x[r:r + 4 - i])
        np.square(x.real, out=p)
        p += np.square(x.imag, out=q)
        acc += x @ np.conjugate(x, out=xc).T
        acc2 += p @ p.T
    # Entry (a, c, b, d) of u (x) u is row pair[2a + b, 2c + d] of x. The
    # sums, indexed ((A, B), (C, D)), are reordered to ((A, C), (B, D)).
    pair = np.empty((4, 4), dtype=np.intp)
    pair[ka, kc] = pair[kc, ka] = np.arange(10)
    a, c, b, d = np.indices((2,) * 4).reshape(4, 16)
    rows = pair[2 * a + b, 2 * c + d]
    acc, acc2 = (s[np.ix_(rows, rows)].reshape((4,) * 4).transpose(0, 2, 1, 3)
                 .reshape(16, 16) for s in (acc, acc2))
    mean = acc / sample_count
    var = np.maximum(acc2 / sample_count - np.abs(mean) ** 2, 0.0)
    sigma = math.sqrt(float(var.max()) / sample_count)
    return mean, sigma


def embed_four_qubit_operator(m16: np.ndarray, positions) -> np.ndarray:
    """Place a 4-qubit operator at the given slots of an 8-qubit space,
    identity elsewhere; returns the 256x256 matrix."""
    full = np.kron(m16, np.eye(16, dtype=m16.dtype))
    # Slot j of the result reads axis perm[j] of the kron: the operator's
    # qubits in ``positions`` order, then the identity's in slot order.
    order = [*positions, *(j for j in range(8) if j not in positions)]
    perm = [order.index(j) for j in range(8)]
    axes = perm + [p + 8 for p in perm]
    return full.reshape((2,) * 16).transpose(axes).reshape(256, 256)


def _kron4(m: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(m, m), np.kron(m, m))


def build_moment_operator(sample_count: int = 100_000,
                          rng: np.random.Generator | None = None,
                          exact: bool = False):
    """Assemble the 256x256 moment operator of the gate set.

    Returns (G, sigma); sigma is a per-entry noise scale of the two 16x16
    Haar averages (0 on the exact path), not a standard error of the gap.
    CNOT terms are always exact.
    """
    if exact:
        m_hi = m_lo = exact_two_copy_average()
        sigma = 0.0
    else:
        if sample_count < MIN_MC_SAMPLES:
            raise ValueError(f"sample_count must be >= {MIN_MC_SAMPLES} for the MC path")
        m_hi, s_hi = mc_two_copy_average(sample_count, rng)
        m_lo, s_lo = mc_two_copy_average(sample_count, rng)
        sigma = 0.25 * math.hypot(s_hi, s_lo)
    t_hi = embed_four_qubit_operator(m_hi, _HI_POSITIONS)
    t_lo = embed_four_qubit_operator(m_lo, _LO_POSITIONS)
    c_hi = _kron4(CNOT_HI_CTRL).astype(complex)
    c_lo = _kron4(CNOT_LO_CTRL).astype(complex)
    g = 0.25 * (t_hi + t_lo + c_hi + c_lo)
    return g, sigma


def spectral_gap(g: np.ndarray) -> tuple[float, int]:
    """(gap, multiplicity) of the symmetrized operator: the number of
    modulus-1 eigenvalues and 1 minus the largest magnitude below them.

    Eigenvalues with magnitude above 1 - 1e-9 count as modulus-1, also for
    a Monte Carlo G, whose unit eigenvectors every W (x) W (x) conj(W) (x)
    conj(W) fixes; the leading one always counts. The gap is 0.0 when every
    eigenvalue counts.
    """
    if g.shape[0] != g.shape[1]:
        raise ValueError("G must be square")
    gs = 0.5 * (g + g.conj().T)
    w = np.linalg.eigvalsh(gs)
    mags = np.sort(np.abs(w))[::-1]
    multiplicity = max(1, int(np.count_nonzero(mags > 1.0 - 1e-9)))
    if multiplicity >= mags.size:
        return 0.0, multiplicity
    return 1.0 - float(mags[multiplicity]), multiplicity
