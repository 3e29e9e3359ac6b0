"""Random circuit ensemble gate sampling.

Circuits mix Haar-random U(2) single-qubit gates (probability ``p_g``) with
CNOTs on uniformly chosen ordered qubit pairs (probability ``1 - p_g``).
All randomness flows through numpy Generators derived deterministically from
a 64-bit master seed and a realization index, so ensembles are reproducible
independent of execution order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

TWO_PI = 2.0 * math.pi


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


def sample_u2_angles(rng: np.random.Generator) -> GateAngles:
    """Draw the angles of a Haar-distributed U(2) matrix."""
    alpha, psi, chi = (rng.random(3) * TWO_PI).tolist()
    xi = rng.random()
    return GateAngles(alpha=alpha, psi=psi, chi=chi, phi=math.asin(math.sqrt(xi)))


def u2_matrix(angles: GateAngles) -> np.ndarray:
    """2x2 unitary e^{i alpha} [[c e^{i psi}, s e^{i chi}], [-s e^{-i chi}, c e^{-i psi}]]."""
    c = math.cos(angles.phi)
    s = math.sin(angles.phi)
    phase = cmath.exp(1j * angles.alpha)
    e_psi = cmath.exp(1j * angles.psi)
    e_chi = cmath.exp(1j * angles.chi)
    return np.array(
        [
            [phase * (c * e_psi), phase * (s * e_chi)],
            [phase * (-s * e_chi.conjugate()), phase * (c * e_psi.conjugate())],
        ],
        dtype=complex,
    )


def sample_gate(rng: np.random.Generator, n_q: int, p_g: float) -> Gate:
    """Draw one gate: U(2) with probability p_g, else CNOT on an ordered pair.

    For n_q = 1 a CNOT is impossible and a single-qubit gate is forced.
    """
    if n_q == 1:
        return SingleQubitGate(qubit=0, angles=sample_u2_angles(rng))
    if rng.random() < p_g:
        q = int(rng.integers(n_q))
        return SingleQubitGate(qubit=q, angles=sample_u2_angles(rng))
    c = int(rng.integers(n_q))
    t = int(rng.integers(n_q - 1))
    if t >= c:
        t += 1
    return CnotGate(control=c, target=t)


def sample_circuit(master_seed: int, realization_index: int, n_q: int, n_g: int,
                   p_g: float = 0.5) -> Circuit:
    """Deterministic circuit draw; extending n_g preserves the gate prefix."""
    if n_g < 0:
        raise ValueError("n_g must be >= 0")
    rng = realization_rng(master_seed, realization_index)
    gates = tuple(sample_gate(rng, n_q, p_g) for _ in range(n_g))
    return Circuit(n_q=n_q, gates=gates, master_seed=master_seed,
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
