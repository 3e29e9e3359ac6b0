"""Random circuit ensemble gate sampling.

Circuits mix Haar-random U(2) single-qubit gates (probability ``p_g``) with
CNOTs on uniformly chosen ordered qubit pairs (probability ``1 - p_g``).
All randomness flows through numpy Generators derived deterministically from
a 64-bit master seed and a realization index, so ensembles are reproducible
independent of execution order.

A realization's gates are drawn as one ``GateTape`` row (``draw_tape``);
``sample_gate``, ``sample_circuit`` and the runner all read the same draws,
and every U(2) matrix comes from the one vectorized formula ``u2_matrices``.
``STREAM_VERSION`` names this draw layout in run manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

TWO_PI = 2.0 * math.pi

# Version of the random-draw layout; any change to it changes output bits.
STREAM_VERSION = 2
# Uniforms per tape row: kind, qubit/control, target, alpha, psi, chi, xi.
TAPE_COLUMNS = 7


@dataclass(frozen=True)
class GateAngles:
    """Angles of the four-parameter U(2) parametrization.

    ``alpha``, ``psi``, ``chi`` lie in [0, 2*pi); ``phi`` in [0, pi/2],
    with phi = arcsin(sqrt(xi)) for xi uniform in [0, 1].
    """

    alpha: float
    psi: float
    chi: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.alpha < TWO_PI and 0.0 <= self.psi < TWO_PI
                and 0.0 <= self.chi < TWO_PI and 0.0 <= self.phi <= math.pi / 2):
            raise ValueError("alpha, psi, chi must be in [0, 2*pi) and phi in "
                             f"[0, pi/2], got {self}")


@dataclass(frozen=True)
class SingleQubitGate:
    qubit: int
    angles: GateAngles


@dataclass(frozen=True)
class CnotGate:
    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise ValueError("CNOT control and target must differ")


Gate = Union[SingleQubitGate, CnotGate]


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list together with its seed lineage."""

    n_q: int
    gates: tuple
    master_seed: int
    realization_index: int

    def __post_init__(self):
        if self.n_q < 1:
            raise ValueError("n_q must be >= 1")
        for g in self.gates:
            if isinstance(g, SingleQubitGate):
                if not 0 <= g.qubit < self.n_q:
                    raise ValueError(f"qubit index {g.qubit} out of range")
            else:
                if not (0 <= g.control < self.n_q and 0 <= g.target < self.n_q):
                    raise ValueError("CNOT qubit index out of range")

    @property
    def n_g(self) -> int:
        return len(self.gates)


@dataclass(frozen=True)
class EnsembleConfig:
    """Parameters of one convergence run at fixed qubit count.

    The realization count is either explicit (``n_r``) or derived from the
    sizing rule n_r = a * 2**(b - n_q), whichever is given.
    """

    n_q: int
    checkpoints: tuple
    master_seed: int
    p_g: float = 0.5
    n_r: int | None = None
    sizing: tuple | None = (10, 20)

    def __post_init__(self):
        if not 0.0 <= self.p_g <= 1.0:
            raise ValueError("p_g must be in [0, 1]")
        cps = tuple(self.checkpoints)
        if not cps:
            raise ValueError("need at least one checkpoint")
        if any(b <= a for a, b in zip((-1, *cps), cps)):
            raise ValueError("checkpoints must be strictly increasing and >= 0")
        if self.n_r is None and self.sizing is None:
            raise ValueError("need n_r or a sizing rule (a, b)")
        if self.n_r is not None and self.n_r < 1:
            raise ValueError("n_r must be >= 1")

    def resolved_n_r(self) -> int:
        if self.n_r is not None:
            return self.n_r
        a, b = self.sizing
        return max(1, int(a) * 2 ** max(0, int(b) - self.n_q))

    @property
    def max_gates(self) -> int:
        return max(self.checkpoints)


def realization_rng(master_seed: int, realization_index: int) -> np.random.Generator:
    """Deterministic per-realization random stream.

    SeedSequence spawn keys mix (master_seed, realization_index) so streams
    are independent and reproducible regardless of scheduling.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(realization_index,))
    return np.random.default_rng(ss)


def u2_matrices(alpha, psi, chi, phi) -> np.ndarray:
    """Matrices e^{i alpha} [[c e^{i psi}, s e^{i chi}], [-s e^{-i chi}, c e^{-i psi}]],
    c = cos phi and s = sin phi, for arrays of angles: shape (..., 2, 2)."""
    alpha, psi, chi, phi = np.broadcast_arrays(alpha, psi, chi, phi)
    c, s = np.cos(phi), np.sin(phi)
    e_psi, e_chi = np.exp(1j * psi), np.exp(1j * chi)
    u = np.empty(phi.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c * e_psi
    u[..., 0, 1] = s * e_chi
    u[..., 1, 0] = -s * e_chi.conj()
    u[..., 1, 1] = c * e_psi.conj()
    u *= np.exp(1j * alpha)[..., None, None]
    return u


def u2_matrix(angles: GateAngles) -> np.ndarray:
    """The 2x2 unitary of one gate's angles, by the ``u2_matrices`` formula."""
    return u2_matrices(angles.alpha, angles.psi, angles.chi, angles.phi)


@dataclass(frozen=True)
class GateTape:
    """The gates of R realizations as (R, n_g) arrays, one row per realization.

    ``is_u2`` marks Haar U(2) gates (the rest are CNOTs). ``qubit`` is the
    U(2) qubit or the CNOT control; ``target`` is the CNOT target and equals
    ``qubit`` on U(2) rows. ``angles`` (R, n_g, 4) holds alpha, psi, chi,
    phi; only U(2) rows use them.
    """

    n_q: int
    is_u2: np.ndarray
    qubit: np.ndarray
    target: np.ndarray
    angles: np.ndarray

    @property
    def n_g(self) -> int:
        return self.is_u2.shape[1]

    def matrices(self) -> np.ndarray:
        """(R, n_g, 2, 2) U(2) matrices; zero on CNOT rows."""
        m = np.zeros(self.is_u2.shape + (2, 2), dtype=complex)
        m[self.is_u2] = u2_matrices(*self.angles[self.is_u2].T)
        return m

    def gates(self, r: int = 0) -> tuple:
        """Realization r as gate objects."""
        rows = zip(self.is_u2[r].tolist(), self.qubit[r].tolist(),
                   self.target[r].tolist(), self.angles[r].tolist())
        return tuple(SingleQubitGate(q, GateAngles(*a)) if u2 else CnotGate(q, t)
                     for u2, q, t, a in rows)

    @classmethod
    def from_gates(cls, n_q: int, gates) -> "GateTape":
        """One-realization tape of a gate sequence."""
        gates = list(gates)
        is_u2 = [isinstance(g, SingleQubitGate) for g in gates]
        qubit = [g.qubit if u2 else g.control for u2, g in zip(is_u2, gates)]
        target = [g.qubit if u2 else g.target for u2, g in zip(is_u2, gates)]
        angles = [(g.angles.alpha, g.angles.psi, g.angles.chi, g.angles.phi) if u2
                  else (0.0, 0.0, 0.0, 0.0) for u2, g in zip(is_u2, gates)]
        return cls(n_q=n_q, is_u2=np.array([is_u2], dtype=bool),
                   qubit=np.array([qubit], dtype=np.intp),
                   target=np.array([target], dtype=np.intp),
                   angles=np.array(angles, dtype=float).reshape(1, len(gates), 4))


def draw_tape(rngs, n_q: int, n_g: int, p_g: float = 0.5) -> GateTape:
    """Tape of n_g gates for each generator in ``rngs``, one realization each.

    Each realization takes one ``rng.random((n_g, 7))`` call; row g holds
    the uniforms of gate g: kind (U(2) if < p_g, always for n_q = 1),
    qubit or control, target (a uniform pick among the other n_q - 1
    qubits), alpha, psi, chi (times 2*pi) and xi, with phi = arcsin(sqrt(xi)).
    Drawing more gates extends the tape without changing its prefix.
    """
    if n_g < 0:
        raise ValueError("n_g must be >= 0")
    u = np.stack([rng.random((n_g, TAPE_COLUMNS)) for rng in rngs])
    is_u2 = u[..., 0] < p_g if n_q > 1 else np.ones(u.shape[:2], dtype=bool)
    qubit = (u[..., 1] * n_q).astype(np.intp)
    target = (u[..., 2] * (n_q - 1)).astype(np.intp)
    target += target >= qubit
    angles = np.empty(u.shape[:2] + (4,))
    angles[..., :3] = u[..., 3:6] * TWO_PI
    angles[..., 3] = np.arcsin(np.sqrt(u[..., 6]))
    return GateTape(n_q=n_q, is_u2=is_u2, qubit=qubit,
                    target=np.where(is_u2, qubit, target), angles=angles)


def sample_gate(rng: np.random.Generator, n_q: int, p_g: float) -> Gate:
    """Draw one gate, one tape row: U(2) with probability p_g, else CNOT on
    an ordered pair. For n_q = 1 a single-qubit gate is forced."""
    return draw_tape([rng], n_q, 1, p_g).gates()[0]


def sample_u2_angles(rng: np.random.Generator) -> GateAngles:
    """Draw the angles of a Haar-distributed U(2) matrix (one tape row)."""
    return sample_gate(rng, 1, 1.0).angles


def sample_circuit(master_seed: int, realization_index: int, n_q: int, n_g: int,
                   p_g: float = 0.5) -> Circuit:
    """Deterministic circuit draw; extending n_g preserves the gate prefix."""
    tape = draw_tape([realization_rng(master_seed, realization_index)], n_q, n_g, p_g)
    return Circuit(n_q=n_q, gates=tape.gates(), master_seed=master_seed,
                   realization_index=realization_index)


def circuit_to_text(circuit: Circuit) -> str:
    """Line-oriented serialization; floats carry 17 significant digits."""
    lines = [f"nq={circuit.n_q} seed={circuit.master_seed} idx={circuit.realization_index}"]
    for g in circuit.gates:
        if isinstance(g, SingleQubitGate):
            a = g.angles
            lines.append(
                "U2 q=%d alpha=%.17g psi=%.17g chi=%.17g phi=%.17g"
                % (g.qubit, a.alpha, a.psi, a.chi, a.phi)
            )
        else:
            lines.append(f"CNOT c={g.control} t={g.target}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str) -> Circuit:
    """Inverse of circuit_to_text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty circuit text")
    header = dict(kv.split("=") for kv in lines[0].split())
    n_q = int(header["nq"])
    gates = []
    for ln in lines[1:]:
        parts = ln.split()
        kv = dict(p.split("=") for p in parts[1:])
        if parts[0] == "U2":
            angles = GateAngles(alpha=float(kv["alpha"]), psi=float(kv["psi"]),
                                chi=float(kv["chi"]), phi=float(kv["phi"]))
            gates.append(SingleQubitGate(qubit=int(kv["q"]), angles=angles))
        elif parts[0] == "CNOT":
            gates.append(CnotGate(control=int(kv["c"]), target=int(kv["t"])))
        else:
            raise ValueError(f"unknown gate line: {ln!r}")
    return Circuit(n_q=n_q, gates=tuple(gates), master_seed=int(header["seed"]),
                   realization_index=int(header["idx"]))
