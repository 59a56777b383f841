"""Dense statevector core for up to four qubits.

Qubit 0 is the leftmost (most significant) position: basis index
z = z_0 z_1 ... z_{n-1} read MSB-first, matching the bit-string
conventions used on the wire.  Everything here is immutable and pure.

The protocol needs three things from this module: the sign-twisted
triple-controlled-phase target states, exact measurement distributions
under per-qubit basis choices, and the certification operators (the
twisted stabilizers, the three commuting binary observables whose
projector product pins the target state, and fidelity/trace-distance).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError

N_MAX = 4
ATOL_EXACT = 1e-12   # single algebraic steps in double precision
ATOL_PSD = 1e-10

_SQRT2 = np.sqrt(2.0)

H_GATE = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2
X_GATE = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Z_GATE = np.array([[1, 0], [0, -1]], dtype=np.complex128)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
T_GATE = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)
TDAG_GATE = T_GATE.conj().T

_EYE = np.eye(2, dtype=np.complex128)

_SINGLE_QUBIT = {"H": H_GATE, "X": X_GATE, "Z": Z_GATE, "T": T_GATE, "TDAG": TDAG_GATE}
# qubits each named gate acts on, by name
_ARITY = {**dict.fromkeys(_SINGLE_QUBIT, 1), "CZ": 2, "CCZ": 3}


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _check_size(size: int, what: str) -> None:
    """ParameterError naming what unless size is 2^n with n in [1, N_MAX]."""
    n = int(size).bit_length() - 1
    if not 1 <= n <= N_MAX or size != 1 << n:
        raise ParameterError(f"{what} {size} is not 2^n with n in [1,{N_MAX}]")


def _kron(factors) -> np.ndarray:
    """The tensor product of one-qubit factors (2x2 matrices or amplitude pairs), qubit
    0's leftmost."""
    m = np.ones((1, 1), dtype=np.complex128)
    for factor in factors:
        m = np.kron(m, factor)
    return m


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit vector of 2^n complex amplitudes."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128).reshape(-1)
        _check_size(amps.size, "amplitude count")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > ATOL_EXACT:
            raise ParameterError(f"state norm {norm} deviates from 1 beyond {ATOL_EXACT}")
        object.__setattr__(self, "amps", _freeze(amps))

    @property
    def n(self) -> int:
        return self.amps.size.bit_length() - 1


@dataclass(frozen=True, eq=False)
class _Hermitian:
    """Hermitian 2^n x 2^n matrix on n qubits; what names it in errors."""

    matrix: np.ndarray
    what = "matrix"

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParameterError(f"{self.what} must be a square matrix")
        _check_size(m.shape[0], "dimension")
        if np.max(np.abs(m - m.conj().T)) > ATOL_EXACT:
            raise ParameterError(f"{self.what} is not Hermitian within tolerance")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


class Observable(_Hermitian):
    """Hermitian operator on n qubits."""

    what = "observable"


class DensityState(_Hermitian):
    """Positive unit-trace operator on n qubits."""

    what = "density matrix"

    def __post_init__(self) -> None:
        super().__post_init__()
        if abs(np.trace(self.matrix).real - 1.0) > ATOL_EXACT:
            raise ParameterError("density matrix trace deviates from 1")
        if np.linalg.eigvalsh(self.matrix).min() < -ATOL_PSD:
            raise ParameterError("density matrix is not positive semidefinite within tolerance")

    @classmethod
    def from_statevector(cls, sv: StateVector) -> "DensityState":
        return cls(np.outer(sv.amps, sv.amps.conj()))


# ------------------------------------------------------------------- states


def plus_state(n: int) -> StateVector:
    return StateVector(np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=np.complex128))


def target_state(s1: int, s2: int, s3: int) -> StateVector:
    """Sign-twisted entangled magic state: Z^s twists of CCZ|+++>."""
    state = apply_gate(plus_state(3), "CCZ")
    for i, s in enumerate((s1, s2, s3)):
        if s not in (0, 1):
            raise ParameterError("twist bits must be 0 or 1")
        state = apply_gate(state, "Z", i) if s else state
    return state


# -------------------------------------------------------------------- gates


def _apply_single(amps: np.ndarray, n: int, i: int, m: np.ndarray) -> np.ndarray:
    t = amps.reshape((2,) * n)
    t = np.moveaxis(t, i, 0)
    t = np.tensordot(m, t, axes=([1], [0]))
    return np.ascontiguousarray(np.moveaxis(t, 0, i)).reshape(-1)


@lru_cache(maxsize=None)
def _controlled_phase_mask(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    # -1 exactly where all listed qubits read 1
    signs = np.ones(1 << n, dtype=np.complex128)
    for z in range(1 << n):
        if all((z >> (n - 1 - q)) & 1 for q in qubits):
            signs[z] = -1.0
    return _freeze(signs)


def apply_gate(state: StateVector, gate: str, *qubits: int) -> StateVector:
    """Apply one named gate; CZ takes two indices, CCZ three (default 0,1,2)."""
    n = state.n
    name = gate.upper()
    if name == "CCZ" and not qubits:
        qubits = (0, 1, 2)
    for q in qubits:
        if not 0 <= q < n:
            raise ParameterError(f"qubit index {q} out of range for n={n}")
    if len(set(qubits)) != len(qubits):
        raise ParameterError("qubit indices must be distinct")
    if name not in _ARITY:
        raise ParameterError(f"unknown gate {gate!r}")
    if len(qubits) != _ARITY[name]:
        raise ParameterError(f"{name} acts on exactly {_ARITY[name]} qubit(s)")
    if name in _SINGLE_QUBIT:
        return StateVector(_apply_single(state.amps, n, qubits[0], _SINGLE_QUBIT[name]))
    return StateVector(state.amps * _controlled_phase_mask(n, tuple(sorted(qubits))))


# ------------------------------------------------------------- measurements


@lru_cache(maxsize=None)
def _basis_rotation(n: int, q: tuple[int, ...]) -> np.ndarray:
    """Tensor product with H at every position where q is 1."""
    return _freeze(_kron(H_GATE if bit else _EYE for bit in q))


def _check_bases(n: int, q) -> tuple[int, ...]:
    q = tuple(int(b) for b in q)
    if len(q) != n or any(b not in (0, 1) for b in q):
        raise ParameterError(f"basis pattern {q!r} is not {n} bits")
    return q


def outcome_distribution(state: StateVector, q) -> np.ndarray:
    """Exact joint outcome distribution for per-qubit basis choices q."""
    q = _check_bases(state.n, q)
    rotated = _basis_rotation(state.n, q) @ state.amps
    return np.abs(rotated) ** 2


def outcome_distribution_density(rho: DensityState, q) -> np.ndarray:
    q = _check_bases(rho.n, q)
    r = _basis_rotation(rho.n, q)
    return np.einsum("ij,jk,ik->i", r, rho.matrix, r.conj()).real


# -------------------------------------------------------------- observables


def _pauli_on(n: int, i: int, gate: np.ndarray) -> np.ndarray:
    return _kron(gate if pos == i else _EYE for pos in range(n))


def _cz_matrix(n: int, i: int, j: int) -> np.ndarray:
    return np.diag(_controlled_phase_mask(n, tuple(sorted((i, j)))))


def generalized_stabilizers(s1: int, s2: int, s3: int) -> tuple[Observable, Observable, Observable]:
    """Three commuting involutions fixing the twisted target state.

    Untwisted they read X_i CZ_jk; conjugating by the Z^s that twists the
    state flips the sign of the i-th exactly when s_i is 1.
    """
    out = []
    for i, s in enumerate((s1, s2, s3)):
        if s not in (0, 1):
            raise ParameterError("twist bits must be 0 or 1")
        j, k = (q for q in range(3) if q != i)
        plain = _pauli_on(3, i, X_GATE) @ _cz_matrix(3, j, k)
        out.append(Observable(-plain if s else plain))
    return tuple(out)


def theorem_observables() -> tuple[Observable, Observable, Observable]:
    """The three commuting binary observables whose projectors pin the target.

    o1 = CZ(0,1) X(2),  o2 = CZ(0,2) X(1),  o3 = CZ(1,2) X(0): the untwisted
    stabilizers in reverse order. The product of the b-eigenspace projectors
    of (o3, o2, o1) at bits (s1, s2, s3) projects onto the twisted target.
    """
    return generalized_stabilizers(0, 0, 0)[::-1]


def eigenspace_projector(obs: Observable, bit: int) -> np.ndarray:
    """(I + (-1)^bit O) / 2 for a binary observable."""
    if bit not in (0, 1):
        raise ParameterError("eigenvalue selector must be 0 or 1")
    eye = np.eye(obs.matrix.shape[0], dtype=np.complex128)
    return (eye + ((-1.0) ** bit) * obs.matrix) / 2.0


def expectation(state: StateVector, obs: Observable) -> float:
    val = np.vdot(state.amps, obs.matrix @ state.amps)
    return float(val.real)


# -------------------------------------------------------- distance measures


def fidelity(a: StateVector | DensityState, b: StateVector) -> float:
    if a.n != b.n:
        raise ParameterError("fidelity: qubit counts differ")
    if isinstance(a, StateVector):
        return float(np.abs(np.vdot(a.amps, b.amps)) ** 2)
    return float(np.vdot(b.amps, a.matrix @ b.amps).real)


def _as_density_matrix(a: StateVector | DensityState) -> np.ndarray:
    if isinstance(a, StateVector):
        return np.outer(a.amps, a.amps.conj())
    return a.matrix


def trace_distance(a: StateVector | DensityState, b: StateVector | DensityState) -> float:
    ma, mb = _as_density_matrix(a), _as_density_matrix(b)
    if ma.shape != mb.shape:
        raise ParameterError("trace_distance: dimensions differ")
    # difference is Hermitian, so singular values are |eigenvalues|
    eigs = np.linalg.eigvalsh(ma - mb)
    return float(np.abs(eigs).sum() / 2.0)


# ------------------------------------------------- stabilizer-state census


def canonical_form(amps: np.ndarray) -> np.ndarray:
    """Fix global phase: first nonzero amplitude made real-positive."""
    idx = int(np.argmax(np.abs(amps) > 1e-8))
    phase = amps[idx] / abs(amps[idx])
    return amps * phase.conj()


def _state_key(amps: np.ndarray) -> bytes:
    c = canonical_form(amps)
    # +0.0 collapses -0.0 so byte keys are stable
    return (np.round(c.real, 9) + 0.0).tobytes() + (np.round(c.imag, 9) + 0.0).tobytes()


def enumerate_stabilizer_states(n: int) -> list[StateVector]:
    """All pure stabilizer states on n <= 3 qubits, one per global-phase class.

    Breadth-first closure from |0...0> under {H_i, S_i, CZ_ij}; counts are
    2^n * prod_{k=1..n} (2^k + 1).
    """
    if not 1 <= n <= 3:
        raise ParameterError("stabilizer enumeration supports 1 <= n <= 3")
    gens: list[np.ndarray] = []
    for i in range(n):
        gens.append(_pauli_on(n, i, H_GATE))
        gens.append(_pauli_on(n, i, S_GATE))
    for i in range(n):
        for j in range(i + 1, n):
            gens.append(_cz_matrix(n, i, j))

    start = np.zeros(1 << n, dtype=np.complex128)
    start[0] = 1.0
    seen: dict[bytes, np.ndarray] = {_state_key(start): canonical_form(start)}
    frontier = [start]
    while frontier:
        nxt = []
        for amps in frontier:
            for g in gens:
                out = g @ amps
                key = _state_key(out)
                if key not in seen:
                    canon = canonical_form(out)
                    seen[key] = canon
                    nxt.append(out)
        frontier = nxt
    return [StateVector(a) for a in seen.values()]


# --------------------------------------------------------------- mixed ops


def depolarize(rho: DensityState, qubit: int, eps: float) -> DensityState:
    """Replace one qubit by the maximally mixed state with probability eps.

    The Pauli twirl (m + XmX + YmY + ZmZ) / 4 on one qubit equals
    I/2 on that qubit tensored with the partial trace over it.
    """
    if not 0.0 <= eps <= 1.0:
        raise ParameterError("depolarizing strength must lie in [0,1]")
    if not 0 <= qubit < rho.n:
        raise ParameterError(f"qubit index {qubit} out of range")
    n = rho.n
    m = rho.matrix
    reduced = np.trace(m.reshape((2,) * (2 * n)), axis1=qubit, axis2=n + qubit)
    mixed = np.moveaxis(np.multiply.outer(reduced, np.eye(2) / 2.0),
                        (2 * n - 2, 2 * n - 1), (qubit, n + qubit))
    return DensityState((1.0 - eps) * m + eps * mixed.reshape(m.shape))


# -------------------------------------------------------------- magic demo


@dataclass(frozen=True)
class MagicImpossibilityReport:
    """Measurement statistics of the two phase-kicked plus states."""

    z_dist_a: tuple[float, float]
    z_dist_b: tuple[float, float]
    x_dist_a: tuple[float, float]
    x_dist_b: tuple[float, float]
    z_gap: float
    x_gap: float
    fidelity: float


def magic_impossibility_demo() -> MagicImpossibilityReport:
    """Two distinct single-qubit states with identical Z and X statistics.

    Both Z and X basis readings cannot tell T|+> from Tdag|+> even though
    the states differ, so no experiment restricted to these two bases can
    pin down which one was prepared.
    """
    state_a = apply_gate(plus_state(1), "T", 0)
    state_b = apply_gate(plus_state(1), "TDAG", 0)
    z_a = outcome_distribution(state_a, (0,))
    z_b = outcome_distribution(state_b, (0,))
    x_a = outcome_distribution(state_a, (1,))
    x_b = outcome_distribution(state_b, (1,))
    z_gap = float(np.max(np.abs(z_a - z_b)))
    x_gap = float(np.max(np.abs(x_a - x_b)))
    return MagicImpossibilityReport(
        z_dist_a=tuple(z_a), z_dist_b=tuple(z_b),
        x_dist_a=tuple(x_a), x_dist_b=tuple(x_b),
        z_gap=z_gap, x_gap=x_gap, fidelity=fidelity(state_a, state_b),
    )


# ------------------------------------------------------------------ reports


def distribution_table(dist: np.ndarray, n: int) -> str:
    """Plain-text table: outcome bits and probability to 12 decimals."""
    lines = [f"{'outcome':>{max(7, n)}}  {'probability':>14}"]
    for z, p in enumerate(dist):
        lines.append(f"{format(z, f'0{n}b'):>{max(7, n)}}  {p:14.12f}")
    return "\n".join(lines)
