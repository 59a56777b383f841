"""Checks of the statevector core against independent matrix-built oracles.

The oracle construction here deliberately avoids the module's own code
paths: states are assembled from explicit numpy matrices (kron chains,
diagonal phase matrices) and expected values were computed from those
matrices first, then frozen into the assertions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magicert import qsim
from magicert.errors import ParameterError
from magicert.qsim import (
    DensityState,
    Observable,
    StateVector,
    apply_gate,
    canonical_form,
    depolarize,
    distribution_table,
    eigenspace_projector,
    enumerate_stabilizer_states,
    expectation,
    fidelity,
    generalized_stabilizers,
    magic_impossibility_demo,
    outcome_distribution,
    outcome_distribution_density,
    plus_state,
    target_state,
    theorem_observables,
    trace_distance,
)
from magicert.util import int_to_tuple, rng_from, sample_index

I2 = np.eye(2, dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1, -1]).astype(complex)

# triple-controlled phase: -1 on |111> only
CCZ_MATRIX = np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)


def basis_state(n: int, index: int) -> StateVector:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def measure_pauli(state: StateVector, q, rng) -> tuple[int, ...]:
    """Sample outcomes: qubit i read in the X basis when q_i = 1, else Z."""
    return int_to_tuple(sample_index(outcome_distribution(state, q), rng), state.n)


def kron3(a, b, c):
    return np.kron(np.kron(a, b), c)


def is_binary(obs: Observable) -> bool:
    """Eigenvalues confined to {-1, 0, +1}: O^3 = O."""
    m = obs.matrix
    return bool(np.max(np.abs(m @ m @ m - m)) <= 1e-9)


def trace_norm(m: np.ndarray) -> float:
    return float(np.linalg.svd(m, compute_uv=False).sum())


def distribution_csv(dist: np.ndarray, n: int) -> str:
    lines = ["outcome,probability"]
    for z, p in enumerate(dist):
        lines.append(f"{format(z, f'0{n}b')},{p:.12f}")
    return "\n".join(lines)


def oracle_target(s1, s2, s3):
    """Independent construction: explicit matrices acting on |+++>."""
    plus = np.ones(8, dtype=complex) / math.sqrt(8)
    twist = kron3(Z if s1 else I2, Z if s2 else I2, Z if s3 else I2)
    return twist @ (CCZ_MATRIX @ plus)


def oracle_distribution(amps, q):
    rot = kron3(H if q[0] else I2, H if q[1] else I2, H if q[2] else I2)
    return np.abs(rot @ amps) ** 2


# ------------------------------------------------------------------- states


def test_target_state_000_signs():
    sv = target_state(0, 0, 0)
    expected = np.full(8, 1 / math.sqrt(8))
    expected[7] = -1 / math.sqrt(8)
    np.testing.assert_allclose(sv.amps, expected, atol=1e-12)


def test_target_state_100_flips_first_bit_block():
    base = target_state(0, 0, 0).amps
    flipped = target_state(1, 0, 0).amps
    for z in range(8):
        sign = -1.0 if (z >> 2) & 1 else 1.0
        assert flipped[z] == pytest.approx(sign * base[z], abs=1e-12)


@pytest.mark.parametrize("s", [(0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)])
def test_target_state_matches_matrix_oracle(s):
    np.testing.assert_allclose(target_state(*s).amps, oracle_target(*s), atol=1e-12)


def test_distinct_twists_are_orthogonal():
    # frozen from the matrix oracle: <target(000)|target(100)> = 0
    assert np.vdot(oracle_target(0, 0, 0), oracle_target(1, 0, 0)) == pytest.approx(0, abs=1e-12)
    a = target_state(0, 0, 0)
    b = target_state(1, 0, 0)
    assert abs(np.vdot(a.amps, b.amps)) <= 1e-12


def test_statevector_rejects_bad_norm_and_size():
    with pytest.raises(ParameterError):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(ParameterError):
        StateVector(np.ones(3) / math.sqrt(3))
    with pytest.raises(ParameterError):
        StateVector(np.ones(32) / math.sqrt(32))  # n=5 beyond cap


# -------------------------------------------------------------------- gates


def test_ccz_twice_is_identity():
    sv = target_state(0, 1, 1)
    back = apply_gate(apply_gate(sv, "CCZ"), "CCZ")
    np.testing.assert_allclose(back.amps, sv.amps, atol=1e-12)


def test_h_on_zero_gives_plus():
    sv = apply_gate(basis_state(1, 0), "H", 0)
    np.testing.assert_allclose(sv.amps, np.ones(2) / math.sqrt(2), atol=1e-12)


def test_ccz_on_plus_matches_target():
    sv = apply_gate(plus_state(3), "CCZ")
    np.testing.assert_allclose(sv.amps, target_state(0, 0, 0).amps, atol=1e-12)


def test_gate_index_validation():
    sv = plus_state(2)
    with pytest.raises(ParameterError):
        apply_gate(sv, "H", 2)
    with pytest.raises(ParameterError):
        apply_gate(sv, "CZ", 0, 0)
    with pytest.raises(ParameterError):
        apply_gate(sv, "CCZ")  # needs three qubits, n=2
    with pytest.raises(ParameterError):
        apply_gate(sv, "FOO", 0)


def test_single_qubit_gates_match_matrices():
    rng = rng_from(17)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    raw /= np.linalg.norm(raw)
    sv = StateVector(raw)
    for name, mat in (("H", H), ("X", X), ("Z", Z)):
        for i in range(3):
            mats = [I2, I2, I2]
            mats[i] = mat
            expect = kron3(*mats) @ raw
            np.testing.assert_allclose(apply_gate(sv, name, i).amps, expect, atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_gates_preserve_norm(seed):
    rng = rng_from(seed)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    raw /= np.linalg.norm(raw)
    sv = StateVector(raw)
    for gate, qubits in (("H", (0,)), ("T", (1,)), ("TDAG", (2,)), ("X", (1,)),
                         ("Z", (0,)), ("CZ", (0, 2)), ("CCZ", (0, 1, 2))):
        sv = apply_gate(sv, gate, *qubits)
        assert abs(np.sum(np.abs(sv.amps) ** 2) - 1.0) <= 1e-12


# ------------------------------------------------------------- measurements


def test_distribution_q001_uniform_on_multiplicative_support():
    # frozen from the matrix oracle: uniform 1/4 on {000, 010, 100, 111}
    expected = np.zeros(8)
    for z in (0b000, 0b010, 0b100, 0b111):
        expected[z] = 0.25
    np.testing.assert_allclose(oracle_distribution(oracle_target(0, 0, 0), (0, 0, 1)), expected, atol=1e-12)
    got = outcome_distribution(target_state(0, 0, 0), (0, 0, 1))
    np.testing.assert_allclose(got, expected, atol=1e-12)
    # the support relation: last bit equals the product of the first two
    for z in range(8):
        v1, v2, v3 = int_to_tuple(z, 3)
        if got[z] > 1e-12:
            assert v3 == v1 & v2


def test_distribution_q100_product_relation():
    got = outcome_distribution(target_state(0, 0, 0), (1, 0, 0))
    np.testing.assert_allclose(got, oracle_distribution(oracle_target(0, 0, 0), (1, 0, 0)), atol=1e-12)
    for z in range(8):
        v1, v2, v3 = int_to_tuple(z, 3)
        if got[z] > 1e-12:
            assert v1 == v2 & v3


def test_measure_all_z_on_basis_state():
    rng = rng_from(0)
    for _ in range(5):
        assert measure_pauli(basis_state(3, 0), (0, 0, 0), rng) == (0, 0, 0)


def test_plus_state_x_reading_is_deterministic():
    rng = rng_from(1)
    assert measure_pauli(plus_state(3), (1, 1, 1), rng) == (0, 0, 0)


def test_distribution_sums_to_one_random_states():
    rng = rng_from(23)
    for n in (1, 2, 3, 4):
        raw = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        raw /= np.linalg.norm(raw)
        sv = StateVector(raw)
        for qi in range(1 << n):
            q = int_to_tuple(qi, n)
            dist = outcome_distribution(sv, q)
            assert dist.min() >= -1e-15
            assert abs(dist.sum() - 1.0) <= 1e-12


def test_empirical_frequencies_match_distribution():
    sv = target_state(0, 1, 0)
    q = (1, 0, 1)
    dist = outcome_distribution(sv, q)
    rng = rng_from(99)
    n_samples = 20_000
    counts = np.zeros(8)
    for _ in range(n_samples):
        v = measure_pauli(sv, q, rng)
        counts[(v[0] << 2) | (v[1] << 1) | v[2]] += 1
    bound = 3 * math.sqrt(math.log(2 * 8) / (2 * n_samples))
    assert np.max(np.abs(counts / n_samples - dist)) <= bound


# -------------------------------------------------------------- observables


def test_generalized_stabilizers_fix_targets():
    for si in range(8):
        s = int_to_tuple(si, 3)
        sv = target_state(*s)
        for obs in generalized_stabilizers(*s):
            assert expectation(sv, obs) == pytest.approx(1.0, abs=1e-12)


def test_untwisted_first_stabilizer_on_twisted_state():
    s_plain = generalized_stabilizers(0, 0, 0)[0]
    assert expectation(target_state(1, 0, 0), s_plain) == pytest.approx(-1.0, abs=1e-12)


def test_stabilizers_square_to_identity():
    for obs in generalized_stabilizers(1, 0, 1):
        m = obs.matrix
        np.testing.assert_allclose(m @ m, np.eye(8), atol=1e-12)
        assert is_binary(obs)


def test_theorem_observables_algebra():
    o1, o2, o3 = theorem_observables()
    for o in (o1, o2, o3):
        np.testing.assert_allclose(o.matrix @ o.matrix, np.eye(8), atol=1e-12)
    for a, b in ((o1, o2), (o1, o3), (o2, o3)):
        comm = a.matrix @ b.matrix - b.matrix @ a.matrix
        assert np.max(np.abs(comm)) <= 1e-12


def test_theorem_observables_match_stabilizers():
    # the i-th untwisted stabilizer equals the (4-i)-th theorem observable
    o1, o2, o3 = theorem_observables()
    s1, s2, s3 = generalized_stabilizers(0, 0, 0)
    np.testing.assert_allclose(s1.matrix, o3.matrix, atol=1e-12)
    np.testing.assert_allclose(s2.matrix, o2.matrix, atol=1e-12)
    np.testing.assert_allclose(s3.matrix, o1.matrix, atol=1e-12)


def test_projector_product_pins_target():
    o1, o2, o3 = theorem_observables()
    for si in range(8):
        s1, s2, s3 = int_to_tuple(si, 3)
        product = (
            eigenspace_projector(o3, s1)
            @ eigenspace_projector(o2, s2)
            @ eigenspace_projector(o1, s3)
        )
        sv = target_state(s1, s2, s3)
        np.testing.assert_allclose(product, np.outer(sv.amps, sv.amps.conj()), atol=1e-12)


def test_observable_rejects_non_hermitian():
    with pytest.raises(ParameterError):
        Observable(np.array([[0, 1], [0, 0]], dtype=complex))


# -------------------------------------------------------- distance measures


def test_fidelity_plus_with_target():
    # frozen from the matrix oracle: <+++|CCZ|+++> = 6/8, squared = 9/16
    overlap = np.vdot(np.ones(8) / math.sqrt(8), oracle_target(0, 0, 0))
    assert overlap.real == pytest.approx(6 / 8, abs=1e-12)
    assert fidelity(plus_state(3), target_state(0, 0, 0)) == pytest.approx(9 / 16, abs=1e-12)


def test_fidelity_self_and_basis():
    sv = target_state(0, 0, 0)
    assert fidelity(sv, sv) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(basis_state(3, 0), sv) == pytest.approx(1 / 8, abs=1e-12)


def test_fidelity_density_path():
    sv = target_state(0, 1, 0)
    rho = DensityState.from_statevector(sv)
    assert fidelity(rho, sv) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(rho, plus_state(3)) == pytest.approx(fidelity(plus_state(3), sv), abs=1e-10)


def test_trace_distance_pure_equals_sqrt_one_minus_f():
    a = plus_state(3)
    b = target_state(0, 0, 0)
    td = trace_distance(a, b)
    assert td == pytest.approx(math.sqrt(1 - 9 / 16), abs=1e-10)
    assert td == pytest.approx(math.sqrt(7 / 16), abs=1e-10)
    assert td >= 0.5
    assert trace_distance(b, b) == pytest.approx(0.0, abs=1e-12)


def test_trace_norm_matches_svd():
    rng = rng_from(5)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    assert trace_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False).sum(), abs=1e-10)
    # for density matrices, half the trace norm of the difference is the trace distance
    a, b = plus_state(2), basis_state(2, 1)
    diff = np.outer(a.amps, a.amps.conj()) - np.outer(b.amps, b.amps.conj())
    assert trace_distance(a, b) == pytest.approx(trace_norm(diff) / 2, abs=1e-10)


def test_dimension_mismatch_errors():
    with pytest.raises(ParameterError):
        fidelity(plus_state(2), plus_state(3))
    with pytest.raises(ParameterError):
        trace_distance(plus_state(2), plus_state(3))


# ------------------------------------------------- stabilizer-state census


def census_formula(n):
    out = 1 << n
    for k in range(1, n + 1):
        out *= (1 << k) + 1
    return out


@pytest.mark.parametrize("n,count", [(1, 6), (2, 60), (3, 1080)])
def test_stabilizer_counts(n, count):
    assert census_formula(n) == count  # 2^n * prod(2^k + 1)
    states = enumerate_stabilizer_states(n)
    assert len(states) == count


def test_stabilizer_enumeration_canonical_and_distinct():
    states = enumerate_stabilizer_states(2)
    keys = set()
    for sv in states:
        canon = canonical_form(sv.amps)
        np.testing.assert_allclose(canon, sv.amps, atol=1e-9)
        first = canon[np.argmax(np.abs(canon) > 1e-8)]
        assert abs(first.imag) <= 1e-9 and first.real > 0
        keys.add(tuple(np.round(canon, 6)))
    assert len(keys) == 60


def test_stabilizer_enumeration_rejects_large_n():
    with pytest.raises(ParameterError):
        enumerate_stabilizer_states(4)


def test_max_stabilizer_fidelity_single_twist():
    states = enumerate_stabilizer_states(3)
    target = target_state(0, 0, 0)
    best = max(fidelity(sv, target) for sv in states)
    assert best == pytest.approx(9 / 16, abs=1e-9)


# --------------------------------------------------------------- mixed ops


def test_depolarize_full_strength_gives_maximally_mixed():
    rho = DensityState.from_statevector(target_state(0, 0, 0))
    for i in range(3):
        rho = depolarize(rho, i, 1.0)
    np.testing.assert_allclose(rho.matrix, np.eye(8) / 8, atol=1e-10)


Y_GATE = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


@st.composite
def _depolarize_cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    d = 1 << n
    parts = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    re = np.array(draw(st.lists(parts, min_size=d * d, max_size=d * d))).reshape(d, d)
    im = np.array(draw(st.lists(parts, min_size=d * d, max_size=d * d))).reshape(d, d)
    a = re + 1j * im
    m = a @ a.conj().T
    tr = np.trace(m).real
    assume(tr > 1e-6)
    qubit = draw(st.integers(min_value=0, max_value=n - 1))
    eps = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    return DensityState(m / tr), qubit, eps


@given(_depolarize_cases())
@settings(max_examples=200, deadline=None)
def test_depolarize_matches_pauli_twirl(case):
    rho, qubit, eps = case
    m = rho.matrix
    twirl = m.copy()
    for gate in (qsim.X_GATE, Y_GATE, qsim.Z_GATE):
        p = np.ones((1, 1), dtype=np.complex128)
        for pos in range(rho.n):
            p = np.kron(p, gate if pos == qubit else np.eye(2))
        twirl = twirl + p @ m @ p.conj().T
    expected = (1.0 - eps) * m + (eps / 4.0) * twirl
    np.testing.assert_allclose(depolarize(rho, qubit, eps).matrix, expected, rtol=0, atol=1e-14)


def test_depolarize_zero_is_identity():
    rho = DensityState.from_statevector(target_state(1, 1, 1))
    out = depolarize(rho, 0, 0.0)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=0)


def test_density_distribution_matches_pure():
    sv = target_state(0, 1, 1)
    rho = DensityState.from_statevector(sv)
    for q in ((0, 0, 0), (1, 0, 1), (1, 1, 1)):
        np.testing.assert_allclose(
            outcome_distribution_density(rho, q), outcome_distribution(sv, q), atol=1e-12
        )


def test_density_validation():
    with pytest.raises(ParameterError):
        DensityState(np.diag([0.6, 0.6]).astype(complex))  # trace 1.2
    with pytest.raises(ParameterError):
        DensityState(np.array([[1.5, 0], [0, -0.5]], dtype=complex))  # negative eigenvalue


# -------------------------------------------------------------- magic demo


def test_magic_impossibility_statistics():
    report = magic_impossibility_demo()
    assert report.z_dist_a == pytest.approx((0.5, 0.5), abs=1e-12)
    assert report.z_dist_b == pytest.approx((0.5, 0.5), abs=1e-12)
    x_expected = ((2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4)
    assert report.x_dist_a == pytest.approx(x_expected, abs=1e-12)
    assert report.x_dist_b == pytest.approx(x_expected, abs=1e-12)
    assert report.z_gap <= 1e-12 and report.x_gap <= 1e-12


def test_magic_demo_states_are_distinct():
    # frozen from the inner-product oracle: |(1 + e^{-i pi/2}) / 2|^2 = 1/2
    overlap_sq = abs((1 + np.exp(-1j * np.pi / 2)) / 2) ** 2
    assert overlap_sq == pytest.approx(0.5, abs=1e-12)
    report = magic_impossibility_demo()
    assert report.fidelity == pytest.approx(0.5, abs=1e-12)
    assert report.fidelity < 1.0


# ------------------------------------------------------------------ reports


def test_distribution_table_formats():
    dist = outcome_distribution(plus_state(1), (0,))
    text = distribution_table(dist, 1)
    assert "0.500000000000" in text
    assert text.splitlines()[0].strip().startswith("outcome")
    csv = distribution_csv(dist, 1)
    assert csv.splitlines()[0] == "outcome,probability"
    assert csv.splitlines()[1] == "0,0.500000000000"
