"""Prover tests: honest pipeline states, noise wrappers, magicless device, scripts.

Oracles here are built from first principles: expected post-gate states are
assembled with raw kron products, the depolarizing channel is re-derived via
an explicit partial trace, and answer-support identities are checked per
trial against trapdoor decodings the test performs itself.
"""

import dataclasses
import enum
import itertools
import json

import numpy as np
import pytest

from magicert import entcf, provers, qsim, verifier
from magicert.entcf import Family, OracleRegistry, SecurityParam
from magicert.errors import ParameterError, ProtocolOrderError, ScriptError
from magicert.provers import (
    HonestProver,
    NoiseSpec,
    NoisyProver,
    ScriptedProver,
    StabilizerProver,
    parse_prover_spec,
    script_record,
)
from magicert.util import derive_seed, int_to_tuple, parity, rng_from, sample_index
from magicert.verifier import Flag, RoundType

SP4 = SecurityParam(4)
W = SP4.w

KET0 = np.array([1, 0], dtype=np.complex128)
KET1 = np.array([0, 1], dtype=np.complex128)


def minus_to(u):
    return np.array([1, -1 if u else 1], dtype=np.complex128) / np.sqrt(2)


def hoeffding(n, delta=1e-6):
    return float(np.sqrt(np.log(2 / delta) / (2 * n)))


# --------------------------------------------------------------------------
# fixtures: shared key sets (built once, reused across trials)
# --------------------------------------------------------------------------

def make_keys(theta, seed):
    registry = OracleRegistry()
    rng = rng_from(derive_seed(seed, 0x5E7))
    handles, trapdoors = [], []
    for t in theta:
        family = Family.CLAW if t else Family.INJECTIVE
        h, td = registry.gen(family, SP4, int(rng.integers(1 << 60)))
        handles.append(h)
        trapdoors.append(td)
    return registry, handles, trapdoors


def play_session(theta, factory, seed, round=None, q=None):
    """One full protocol run against a real verifier session."""
    registry = OracleRegistry()
    sess = verifier.begin(SP4, rng_from(derive_seed(seed, 0)), registry=registry, theta=theta)
    prover = factory(registry, rng_from(derive_seed(seed, 1)))
    ys = prover.commit(sess.handles)
    round_type = sess.receive_commit(ys, round=round)
    if round_type is RoundType.PREIMAGE:
        flag = sess.check_preimage(prover.answer_preimage())
    else:
        ds = prover.answer_hadamard()
        sess.send_questions()
        if q is not None:
            sess.q = q
        flag = sess.check_hadamard(ds, prover.answer_questions(sess.q))
    return sess, prover, flag


HONEST = lambda registry, rng: HonestProver(registry, rng)
STAB = lambda registry, rng: StabilizerProver(registry, rng)


# --------------------------------------------------------------------------
# honest prover: commitments and preimage round
# --------------------------------------------------------------------------

class TestHonestCommit:
    def test_injective_commitments_are_definite(self):
        registry, handles, _ = make_keys((0, 0, 0), seed=1)
        prover = HonestProver(registry, rng_from(11))
        prover.commit(handles)
        assert all(isinstance(c.held, entcf.DefinitePreimage) for c in prover.commitments)

    def test_claw_commitments_hold_both_branches(self):
        registry, handles, trapdoors = make_keys((1, 1, 1), seed=2)
        prover = HonestProver(registry, rng_from(12))
        ys = prover.commit(handles)
        for c, td, y in zip(prover.commitments, trapdoors, ys):
            assert isinstance(c.held, entcf.ClawPair)
            assert c.held.x0 ^ c.held.x1 == td.shift
            assert c.held.y == y

    def test_both_claw_branches_satisfy_chk(self):
        registry, handles, _ = make_keys((1, 1, 1), seed=3)
        for trial in range(50):
            prover = HonestProver(registry, rng_from(derive_seed(3, trial)))
            ys = prover.commit(handles)
            for handle, c, y in zip(handles, prover.commitments, ys):
                assert registry.chk(handle, 0, c.held.x0, y)
                assert registry.chk(handle, 1, c.held.x1, y)

    def test_preimage_round_always_accepts(self):
        seed = 0
        for theta in verifier.BASIS_CHOICES:
            for k in range(40):
                seed += 1
                _, _, flag = play_session(theta, HONEST, seed, round=RoundType.PREIMAGE)
                assert flag is Flag.NONE

    def test_branch_coin_is_fair(self):
        registry, handles, _ = make_keys((1, 1, 1), seed=4)
        rng = rng_from(41)
        n = 10_000
        ones = 0
        for _ in range(n):
            prover = HonestProver(registry, rng)
            prover.commit(handles)
            ones += prover.answer_preimage()[0][0]
        assert abs(ones / n - 0.5) <= hoeffding(n)

    def test_determinism_under_fixed_seed(self):
        def run(seed):
            registry, handles, _ = make_keys((1, 0, 1), seed=77)
            prover = HonestProver(registry, rng_from(seed))
            ys = prover.commit(handles)
            ds = prover.answer_hadamard()
            vs = prover.answer_questions((1, 1, 0))
            return ys, ds, vs

        assert run(123) == run(123)


# --------------------------------------------------------------------------
# honest prover: post-gate states (statevector oracles built by hand)
# --------------------------------------------------------------------------

def opened_state(theta, seed, factory=HONEST):
    """Run commit + Hadamard opening; return decoded values and the state."""
    registry, handles, trapdoors = make_keys(theta, seed)
    prover = factory(registry, rng_from(derive_seed(seed, 0xD0)))
    ys = prover.commit(handles)
    ds = prover.answer_hadamard()
    decoded = []
    for t, y, d in zip(trapdoors, ys, ds):
        if t.family is Family.INJECTIVE:
            decoded.append(entcf.decode_b(t, y))
        else:
            decoded.append(entcf.decode_u(t, y, d))
    return decoded, prover


class TestHonestStates:
    def test_all_claw_state_is_twisted_magic_state(self):
        for seed in range(8):
            (u1, u2, u3), prover = opened_state((1, 1, 1), seed=100 + seed)
            target = qsim.target_state(u1, u2, u3)
            assert qsim.fidelity(prover.state, target) == pytest.approx(1.0, abs=1e-12)

    def test_all_injective_state_is_basis_state(self):
        for seed in range(8):
            (b1, b2, b3), prover = opened_state((0, 0, 0), seed=200 + seed)
            expected = qsim.StateVector(np.eye(8, dtype=np.complex128)[(b1 << 2) | (b2 << 1) | b3])
            assert qsim.fidelity(prover.state, expected) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_state_matches_controlled_phase_rule(self):
        """One conjugate-basis qubit picks up Z^(product of the basis bits)."""
        for seed in range(8):
            (b1, u2, b3), prover = opened_state((0, 1, 0), seed=300 + seed)
            middle = minus_to(u2 ^ (b1 & b3))
            expected = np.kron(np.kron(KET1 if b1 else KET0, middle), KET1 if b3 else KET0)
            got = prover.state.amps
            overlap = abs(np.vdot(expected, got)) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------------
# honest prover: answer support identities
# --------------------------------------------------------------------------

class TestHonestAnswers:
    def test_hypergraph_identity_never_violated(self):
        """theta=111, q=100: v1 xor v2*v3 always equals the opened parity u1."""
        registry, handles, trapdoors = make_keys((1, 1, 1), seed=5)
        rng = rng_from(51)
        for _ in range(10_000):
            prover = HonestProver(registry, rng)
            ys = prover.commit(handles)
            ds = prover.answer_hadamard()
            vs = prover.answer_questions((1, 0, 0))
            u1 = entcf.decode_u(trapdoors[0], ys[0], ds[0])
            assert vs[0] ^ (vs[1] & vs[2]) == u1

    def test_all_injective_computational_answers_match_committed_bits(self):
        registry, handles, trapdoors = make_keys((0, 0, 0), seed=6)
        rng = rng_from(61)
        for _ in range(1000):
            prover = HonestProver(registry, rng)
            ys = prover.commit(handles)
            prover.answer_hadamard()
            vs = prover.answer_questions((0, 1, 0))
            assert vs[0] == entcf.decode_b(trapdoors[0], ys[0])
            assert vs[2] == entcf.decode_b(trapdoors[2], ys[2])

    def test_single_claw_conjugate_answer_carries_product_correction(self):
        registry, handles, trapdoors = make_keys((1, 0, 0), seed=7)
        rng = rng_from(71)
        for _ in range(1000):
            prover = HonestProver(registry, rng)
            ys = prover.commit(handles)
            ds = prover.answer_hadamard()
            vs = prover.answer_questions((1, 0, 0))
            u1 = entcf.decode_u(trapdoors[0], ys[0], ds[0])
            b2 = entcf.decode_b(trapdoors[1], ys[1])
            b3 = entcf.decode_b(trapdoors[2], ys[2])
            assert vs[0] == u1 ^ (b2 & b3)

    def test_hypergraph_answer_distribution_matches_state(self):
        """Per opened parity triple, empirical outcomes track the exact law."""
        registry, handles, trapdoors = make_keys((1, 1, 1), seed=8)
        rng = rng_from(81)
        for q in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            buckets = {}
            n_trials = 8000
            for _ in range(n_trials):
                prover = HonestProver(registry, rng)
                ys = prover.commit(handles)
                ds = prover.answer_hadamard()
                vs = tuple(prover.answer_questions(q))
                us = tuple(
                    entcf.decode_u(t, y, d) for t, y, d in zip(trapdoors, ys, ds)
                )
                counts = buckets.setdefault(us, np.zeros(8))
                counts[(vs[0] << 2) | (vs[1] << 1) | vs[2]] += 1
            for us, counts in buckets.items():
                n = counts.sum()
                law = qsim.outcome_distribution(qsim.target_state(*us), q)
                for z in range(8):
                    sigma = np.sqrt(max(law[z] * (1 - law[z]), 1e-12) / n)
                    assert abs(counts[z] / n - law[z]) <= 3 * sigma + 1e-9


# --------------------------------------------------------------------------
# prover state machine
# --------------------------------------------------------------------------

class TestProverOrdering:
    def test_calls_out_of_order_raise(self):
        registry, handles, _ = make_keys((0, 0, 1), seed=9)
        prover = HonestProver(registry, rng_from(91))
        with pytest.raises(ProtocolOrderError):
            prover.answer_preimage()
        with pytest.raises(ProtocolOrderError):
            prover.answer_hadamard()
        with pytest.raises(ProtocolOrderError):
            prover.answer_questions((0, 0, 0))
        prover.commit(handles)
        with pytest.raises(ProtocolOrderError):
            prover.commit(handles)
        with pytest.raises(ProtocolOrderError):
            prover.answer_questions((0, 0, 0))
        prover.answer_preimage()
        with pytest.raises(ProtocolOrderError):
            prover.answer_preimage()

    def test_holds_no_trapdoor_values(self):
        """Structural: prover state contains no trapdoor objects anywhere."""

        def scan(obj, seen):
            if id(obj) in seen:
                return
            seen.add(id(obj))
            assert not isinstance(obj, entcf.Trapdoor)
            if isinstance(obj, (OracleRegistry, np.random.Generator, np.ndarray,
                                str, bytes, int, float, bool, complex, enum.Enum,
                                type(None))):
                return
            if dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    scan(getattr(obj, f.name), seen)
            elif isinstance(obj, dict):
                for k, v in obj.items():
                    scan(k, seen)
                    scan(v, seen)
            elif isinstance(obj, (list, tuple, set)):
                for v in obj:
                    scan(v, seen)
            elif hasattr(obj, "__dict__"):
                for v in vars(obj).values():
                    scan(v, seen)

        for theta in ((0, 0, 0), (1, 0, 0), (1, 1, 1)):
            registry, handles, _ = make_keys(theta, seed=10)
            prover = HonestProver(registry, rng_from(101))
            prover.commit(handles)
            prover.answer_hadamard()
            prover.answer_questions((1, 0, 1))
            scan(prover, set())


# --------------------------------------------------------------------------
# noise wrappers
# --------------------------------------------------------------------------

def transcript(theta, factory, seed, round, q=(1, 0, 0)):
    registry, handles, _ = make_keys(theta, seed)
    prover = factory(registry, rng_from(derive_seed(seed, 0xA)))
    ys = prover.commit(handles)
    if round is RoundType.PREIMAGE:
        return ys, prover.answer_preimage()
    ds = prover.answer_hadamard()
    return ys, ds, prover.answer_questions(q)


class TestNoisyProver:
    def test_zero_epsilon_bitflip_is_bit_identical(self):
        spec = NoiseSpec("bitflip", 0.0)
        wrap = lambda reg, rng: NoisyProver(HonestProver(reg, rng), spec)
        for round in (RoundType.PREIMAGE, RoundType.HADAMARD):
            assert transcript((1, 1, 1), HONEST, 20, round) == transcript((1, 1, 1), wrap, 20, round)

    def test_zero_epsilon_depolarizing_is_bit_identical(self):
        spec = NoiseSpec("depolarizing", 0.0)
        wrap = lambda reg, rng: NoisyProver(HonestProver(reg, rng), spec)
        for round in (RoundType.PREIMAGE, RoundType.HADAMARD):
            assert transcript((1, 0, 0), HONEST, 21, round) == transcript((1, 0, 0), wrap, 21, round)

    def test_full_bitflip_inverts_every_answer(self):
        spec = NoiseSpec("bitflip", 1.0)
        wrap = lambda reg, rng: NoisyProver(HonestProver(reg, rng), spec)
        ys_h, ds_h, vs_h = transcript((1, 1, 1), HONEST, 22, RoundType.HADAMARD)
        ys_n, ds_n, vs_n = transcript((1, 1, 1), wrap, 22, RoundType.HADAMARD)
        assert (ys_h, ds_h) == (ys_n, ds_n)
        assert vs_n == [v ^ 1 for v in vs_h]

    def test_bitflip_leaves_preimage_round_untouched(self):
        spec = NoiseSpec("bitflip", 1.0)
        wrap = lambda reg, rng: NoisyProver(HonestProver(reg, rng), spec)
        assert transcript((0, 0, 0), HONEST, 23, RoundType.PREIMAGE) == transcript(
            (0, 0, 0), wrap, 23, RoundType.PREIMAGE
        )

    def test_depolarizing_hypergraph_violation_rate_matches_channel_oracle(self):
        """Empirical violation rate tracks an independently built channel.

        The oracle replaces each qubit by the maximally mixed state with
        probability eps via an explicit partial trace, never touching the
        implementation's channel code.
        """

        def replace_with_mixed(m, i, eps):
            t = m.reshape([2] * 6)
            f = np.moveaxis(t, (i, i + 3), (0, 3)).reshape(8, 8)
            traced = f[:4, :4] + f[4:, 4:]
            repl = np.kron(np.eye(2) / 2, traced)
            out = (1 - eps) * f + eps * repl
            return np.moveaxis(out.reshape([2] * 6), (0, 3), (i, i + 3)).reshape(8, 8)

        def oracle_violation(eps, q):
            m = np.outer(qsim.target_state(0, 0, 0).amps, qsim.target_state(0, 0, 0).amps.conj())
            for i in range(3):
                m = replace_with_mixed(m, i, eps)
            dist = qsim.outcome_distribution_density(qsim.DensityState(m), q)
            j = q.index(1)
            rest = [l for l in range(3) if l != j]
            total = 0.0
            for z in range(8):
                v = ((z >> 2) & 1, (z >> 1) & 1, z & 1)
                if v[j] ^ (v[rest[0]] & v[rest[1]]) != 0:
                    total += dist[z]
            return total

        # exact rates strictly increase with the noise level
        grid = [0.0, 0.05, 0.1, 0.2]
        rates = [oracle_violation(eps, (1, 0, 0)) for eps in grid]
        assert rates[0] == pytest.approx(0.0, abs=1e-12)
        assert all(a < b for a, b in zip(rates, rates[1:]))

        # empirical agreement at eps = 0.2
        eps = 0.2
        spec = NoiseSpec("depolarizing", eps)
        registry, handles, trapdoors = make_keys((1, 1, 1), seed=24)
        rng = rng_from(241)
        n, viol = 4000, 0
        for _ in range(n):
            prover = NoisyProver(HonestProver(registry, rng), spec)
            ys = prover.commit(handles)
            ds = prover.answer_hadamard()
            vs = prover.answer_questions((1, 0, 0))
            u1 = entcf.decode_u(trapdoors[0], ys[0], ds[0])
            viol += int(vs[0] ^ (vs[1] & vs[2]) != u1)
        assert abs(viol / n - oracle_violation(eps, (1, 0, 0))) <= hoeffding(n)

    def test_noise_spec_validation(self):
        with pytest.raises(ParameterError):
            NoiseSpec("gauss", 0.1)
        with pytest.raises(ParameterError):
            NoiseSpec("bitflip", -0.01)
        with pytest.raises(ParameterError):
            NoiseSpec("bitflip", 1.01)


# --------------------------------------------------------------------------
# stabilizer-limited prover
# --------------------------------------------------------------------------

class TestStabilizerProver:
    def test_preimage_round_unchanged(self):
        for seed in range(40):
            _, _, flag = play_session((1, 1, 1), STAB, 400 + seed, round=RoundType.PREIMAGE)
            assert flag is Flag.NONE

    def test_no_flags_outside_all_claw_basis(self):
        seed = 500
        for theta in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)):
            for k in range(60):
                seed += 1
                for round in (RoundType.PREIMAGE, RoundType.HADAMARD):
                    _, _, flag = play_session(theta, STAB, seed, round=round)
                    assert flag is Flag.NONE, (theta, round)

    def test_all_claw_state_is_untwisted_product(self):
        for seed in range(6):
            (u1, u2, u3), prover = opened_state((1, 1, 1), 600 + seed, factory=STAB)
            expected = np.kron(np.kron(minus_to(u1), minus_to(u2)), minus_to(u3))
            assert abs(np.vdot(expected, prover.state.amps)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_hypergraph_flag_rate_near_three_thirty_seconds(self):
        """Conditioned on the all-claw basis and a Hadamard round: 3/32."""
        registry, handles, trapdoors = make_keys((1, 1, 1), seed=61)
        rng = rng_from(611)
        qrng = rng_from(612)
        n, flags = 20_000, 0
        for _ in range(n):
            prover = StabilizerProver(registry, rng)
            ys = prover.commit(handles)
            ds = prover.answer_hadamard()
            q = tuple(int(b) for b in qrng.integers(0, 2, size=3))
            vs = prover.answer_questions(q)
            if sum(q) == 1:
                j = q.index(1)
                rest = [l for l in range(3) if l != j]
                u = entcf.decode_u(trapdoors[j], ys[j], ds[j])
                flags += int(u != vs[j] ^ (vs[rest[0]] & vs[rest[1]]))
        assert abs(flags / n - 3 / 32) <= hoeffding(n)


# --------------------------------------------------------------------------
# register and outcome tables
# --------------------------------------------------------------------------

OPENED = [entcf.CollapsedQubit(basis, bit) for basis in "ZX" for bit in (0, 1)]
PATTERNS = list(itertools.product(OPENED, repeat=3))
QUESTIONS = list(itertools.product((0, 1), repeat=3))


class GateFreeProver(HonestProver):
    def _gate(self, qubits) -> bool:
        return False


def per_session_register(qubits, gate):
    """The register built afresh for one session, as before the tables."""
    amps = qubits[0].amplitudes()
    for qubit in qubits[1:]:
        amps = np.multiply.outer(amps, qubit.amplitudes()).ravel()
    state = qsim.StateVector(amps)
    return qsim.apply_gate(state, "CCZ") if gate else state


def opened_prover(cls, qubits, rng):
    prover = cls(OracleRegistry(), rng)
    prover.qubits, prover._stage = tuple(qubits), "opened"
    return prover


class TestRegisterTables:
    @pytest.mark.parametrize("gate", [True, False])
    def test_cached_register_equals_a_per_session_build(self, gate):
        for qubits in PATTERNS:
            cached = provers._register(qubits, gate)
            assert np.array_equal(cached.amps, per_session_register(qubits, gate).amps)

    @pytest.mark.parametrize("cls, gate", [(HonestProver, True), (GateFreeProver, False)])
    def test_table_draws_equal_measure_pauli(self, cls, gate):
        """Every pattern and question, the same uniform on both sides, 200 seeds."""

        def measure_pauli(state, q, rng):
            return int_to_tuple(sample_index(qsim.outcome_distribution(state, q), rng), 3)

        states = {qubits: per_session_register(qubits, gate) for qubits in PATTERNS}
        for seed in range(200):
            table_rng, measure_rng = rng_from(seed), rng_from(seed)
            for qubits, q in itertools.product(PATTERNS, QUESTIONS):
                got = opened_prover(cls, qubits, table_rng).answer_questions(q)
                assert got == list(measure_pauli(states[qubits], q, measure_rng))

    @pytest.mark.parametrize("q", [(2, 0, 0), (0, 0), (0, 1, 0, 1), (-1, 1, 1)])
    def test_bad_question_raises(self, q):
        with pytest.raises(ParameterError):
            opened_prover(HonestProver, PATTERNS[0], rng_from(0)).answer_questions(q)


# --------------------------------------------------------------------------
# scripted prover and the selection-string factory
# --------------------------------------------------------------------------

class TestScriptedProver:
    def test_wrong_preimage_script_flags(self):
        registry = OracleRegistry()
        sess = verifier.begin(SP4, rng_from(622), registry=registry, theta=(0, 0, 0))
        helper = HonestProver(registry, rng_from(623))
        ys = helper.commit(sess.handles)
        good = helper.answer_preimage()
        bad = [list(good[0]), list(good[1]), [good[2][0], good[2][1] ^ 1]]
        prover = ScriptedProver({"ys": ys, "preimages": bad})
        sess.receive_commit(prover.commit(sess.handles), round=RoundType.PREIMAGE)
        assert sess.check_preimage(prover.answer_preimage()) is Flag.FAIL_PRE

    def test_missing_field_and_exhaustion_raise(self):
        with pytest.raises(ScriptError):
            ScriptedProver({})
        p = ScriptedProver({"ys": [1, 2, 3]})
        with pytest.raises(ScriptError):
            p.answer_preimage()
        # json.load accepts Infinity, and int(inf) raises OverflowError
        p = ScriptedProver({"ys": [float("inf"), 0, 0], "preimages": [[0, float("inf")]] * 3})
        with pytest.raises(ScriptError):
            p.commit([])
        with pytest.raises(ScriptError):
            p.answer_preimage()
        with pytest.raises(ScriptError):
            script_record([], 0)
        with pytest.raises(ScriptError):
            script_record([{"ys": [1, 2, 3]}], 1)
        assert script_record({"ys": [0, 0, 0]}, 99) == {"ys": [0, 0, 0]}
        with pytest.raises(ScriptError):
            script_record("nonsense", 0)

    def test_malformed_field_raises_script_error(self):
        p = ScriptedProver({"ys": "abc", "vs": [0, "x", 1]})
        with pytest.raises(ScriptError):
            p.answer_questions((0, 0, 0))

    def test_factory_strings(self, tmp_path):
        registry, handles, _ = make_keys((0, 0, 0), seed=63)
        rng = rng_from(631)

        assert isinstance(parse_prover_spec("honest")(registry, rng, 0), HonestProver)
        stab = parse_prover_spec("stabilizer")(registry, rng, 0)
        assert isinstance(stab, StabilizerProver)
        nz = parse_prover_spec("noisy:bitflip:0.05")(registry, rng, 0)
        assert isinstance(nz, NoisyProver)
        assert nz.spec == NoiseSpec("bitflip", 0.05)
        nz2 = parse_prover_spec("noisy:depol:0.1")(registry, rng, 0)
        assert nz2.spec == NoiseSpec("depolarizing", 0.1)

        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"ys": [1, 2, 3]}, {"ys": [4, 5, 6]}]))
        factory = parse_prover_spec(f"scripted:{path}")
        assert factory(registry, rng, 1).commit(handles) == [4, 5, 6]
        with pytest.raises(ScriptError):
            factory(registry, rng, 2)

    def test_factory_rejects_bad_specs(self, tmp_path):
        for bad in (
            "frobnicate",
            "noisy:bitflip",
            "noisy:bitflip:0.05:9",
            "noisy:gauss:0.1",
            "noisy:bitflip:1.5",
            "noisy:bitflip:zzz",
            "scripted:",
            f"scripted:{tmp_path / 'missing.json'}",
        ):
            with pytest.raises(ParameterError):
                parse_prover_spec(bad)

    def test_factory_rejects_unparsable_script(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParameterError):
            parse_prover_spec(f"scripted:{path}")
