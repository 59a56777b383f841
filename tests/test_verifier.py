"""Verifier tests: check-table conformance, state machine, sampling uniformity.

The heart is an exhaustive sweep at w=4: for every basis triple, question,
check coordinate, decoded-bit pattern, and answer triple, the session flag
must equal a straight-line reference transcription of the check table that
shares no code with the implementation.
"""

import itertools

import numpy as np
import pytest
import scipy.stats

from magicert import verifier
from magicert.entcf import Family, SecurityParam
from magicert.errors import MalformedAnswerError, ParameterError, ProtocolOrderError
from magicert.util import _Stream, derive_seed, rng_from
from magicert.verifier import BASIS_CHOICES, Flag, RoundType

SP4 = SecurityParam(4)
W = SP4.w

CHI2_SIG = 1e-3
N_CHI2 = 100_000


# --------------------------------------------------------------------------
# straight-line reference for the check table (independent transcription)
# --------------------------------------------------------------------------

def reference_flag(theta, q, i, bhat, uhat, v):
    """Expected flag given already-decoded bits.

    bhat[l] is the decoded commitment bit for injective coordinates (None on
    claw coordinates); uhat[l] is the decoded opening parity for claw
    coordinates (None on injective ones, or on decode failure).
    """
    if theta == (0, 0, 0):
        if q[i] == 0 and bhat[i] != v[i]:
            return "fail_test"
        return "none"

    if sum(theta) == 1:
        j = theta.index(1)
        rest = [l for l in range(3) if l != j]
        if q[j] == 1:
            if uhat[j] is None:
                return "fail_test"
            if uhat[j] ^ (bhat[rest[0]] * bhat[rest[1]]) != v[j]:
                return "fail_test"
        return "none"

    if theta == (1, 1, 1):
        if q == (1, 0, 0):
            j, rest = 0, (1, 2)
        elif q == (0, 1, 0):
            j, rest = 1, (0, 2)
        elif q == (0, 0, 1):
            j, rest = 2, (0, 1)
        else:
            return "none"
        if uhat[j] is None or uhat[j] != v[j] ^ (v[rest[0]] * v[rest[1]]):
            return "fail_hyper"
        return "none"

    raise AssertionError(f"unreachable basis triple {theta}")


# --------------------------------------------------------------------------
# session harness
# --------------------------------------------------------------------------

def make_session(theta, seed=7):
    rng = rng_from(derive_seed(seed, 0xABCD))
    return verifier.begin(SP4, rng, theta=theta)


def engineer_commitments(sess, bhat_targets, uhat_targets):
    """Build (ys, ds) hitting the requested decoded bits.

    Injective coordinate l: y = eval(k_l, bhat_targets[l], x=3), so the
    decoded bit is the target by construction. Claw coordinate l: y commits
    to the claw containing x=3 and d is 0 (parity 0) or the lowest set bit
    of the trapdoor shift (parity 1).
    """
    ys, ds = [], []
    for l in range(3):
        handle, trapdoor = sess.handles[l], sess.trapdoors[l]
        if trapdoor.family is Family.INJECTIVE:
            ys.append(sess.registry.eval(handle, bhat_targets[l], 3))
            ds.append(0)
        else:
            ys.append(sess.registry.eval(handle, 0, 3))
            if uhat_targets[l]:
                ds.append(trapdoor.shift & -trapdoor.shift)
            else:
                ds.append(0)
    return ys, ds


def prepared_session(theta, decode_bits, seed):
    """Session committed into a Hadamard round with engineered decodings."""
    sess = make_session(theta, seed=seed)
    ys, ds = engineer_commitments(sess, decode_bits, decode_bits)
    sess.receive_commit(ys, round=RoundType.HADAMARD)
    sess.send_questions()
    return sess, ds


def recheck(sess, q, i, ds, vs):
    """Re-grade the same session under a pinned question and coordinate."""
    sess.q = q
    sess.test_index = i
    sess._stage = "questioned"
    return sess.check_hadamard(ds, list(vs)).value


def all_bits(n):
    return [tuple((z >> (n - 1 - k)) & 1 for k in range(n)) for z in range(1 << n)]


# --------------------------------------------------------------------------
# exhaustive conformance
# --------------------------------------------------------------------------

class TestCheckTableConformance:
    def test_exhaustive_against_reference(self):
        """Every (theta, q, i, decoded bits, v) tuple at w=4 matches the reference."""
        cases = 0
        seed = 0
        for theta in BASIS_CHOICES:
            claw = [l for l in range(3) if theta[l] == 1]
            for decode_bits in all_bits(3):
                bhat = [None if l in claw else decode_bits[l] for l in range(3)]
                uhat = [decode_bits[l] if l in claw else None for l in range(3)]
                seed += 1
                sess, ds = prepared_session(theta, decode_bits, seed)
                i_choices = (0, 1, 2) if theta == (0, 0, 0) else (None,)
                for q in all_bits(3):
                    for i in i_choices:
                        for vs in all_bits(3):
                            got = recheck(sess, q, i, ds, vs)
                            want = reference_flag(theta, q, i, bhat, uhat, vs)
                            assert got == want, (theta, q, i, decode_bits, vs)
                            cases += 1
        assert cases == 8 * 8 * (3 * 8 + 3 * 8 + 8)

    @pytest.mark.parametrize("theta", BASIS_CHOICES)
    def test_array_form_against_reference(self, theta):
        """hadamard_fails on uint64 arrays, one element per case, matches the reference."""
        cases = list(itertools.product(all_bits(3), all_bits(3), all_bits(3), (0, 1, 2),
                                       all_bits(3)))
        want = []
        for tops, us, q, i, vs in cases:
            bhat = [None if theta[l] else tops[l] for l in range(3)]
            uhat = [None if tops[l] else us[l] if theta[l] else None for l in range(3)]
            want.append(reference_flag(theta, q, i, bhat, uhat, vs) != "none")
        cols = [np.array(col, dtype=np.uint64) for col in zip(*cases)]
        tops, us, q, i, vs = cols[0].T, cols[1].T, cols[2].T, cols[3], cols[4].T
        got = verifier.hadamard_fails(theta, list(q), i, list(tops), list(us), list(vs))
        assert got.dtype.kind == "u" and (got != 0).tolist() == want

    def test_no_flag_outside_table_rows(self):
        """(theta, q) pairs with no table row never flag, whatever the answers."""
        for theta in BASIS_CHOICES:
            if theta == (0, 0, 0):
                continue  # a row applies for every q; covered exhaustively above
            for q in all_bits(3):
                row_applies = (
                    (sum(theta) == 1 and q[theta.index(1)] == 1)
                    or (theta == (1, 1, 1) and sum(q) == 1)
                )
                if row_applies:
                    continue
                sess, ds = prepared_session(theta, (0, 1, 1), seed=913)
                for vs in all_bits(3):
                    assert recheck(sess, q, None, ds, vs) == "none"


# --------------------------------------------------------------------------
# single examples exercised through the public flow
# --------------------------------------------------------------------------

class TestHadamardExamples:
    def test_hypergraph_satisfied_no_flag(self):
        """theta=111, q=100: any answers with v1 = u1 xor v2*v3 pass."""
        for v2, v3 in all_bits(2):
            sess, ds = prepared_session((1, 1, 1), (1, 0, 1), seed=31)
            v1 = 1 ^ (v2 & v3)  # engineered u1 = 1
            assert recheck(sess, (1, 0, 0), None, ds, (v1, v2, v3)) == "none"

    def test_hypergraph_violated_flags(self):
        sess, ds = prepared_session((1, 1, 1), (1, 0, 1), seed=32)
        # u1 = 1 but v1 xor v2*v3 = 0: row (e) fires
        assert recheck(sess, (1, 0, 0), None, ds, (1, 1, 1)) == "fail_hyper"

    def test_single_claw_unasked_coordinate_never_flags(self):
        """theta=100 with q1=0: no flag regardless of the answer triple."""
        for q in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)):
            for vs in all_bits(3):
                sess, ds = prepared_session((1, 0, 0), (0, 1, 1), seed=99)
                assert recheck(sess, q, None, ds, vs) == "none"

    def test_all_injective_wrong_bit_flags(self):
        """theta=000, coordinate 1 checked, q1=0, answer differs: fail_test."""
        sess, ds = prepared_session((0, 0, 0), (1, 0, 1), seed=41)
        assert recheck(sess, (1, 0, 1), 1, ds, (1, 1, 1)) == "fail_test"

    def test_all_injective_right_bit_passes(self):
        sess, ds = prepared_session((0, 0, 0), (1, 0, 1), seed=41)
        assert recheck(sess, (1, 0, 1), 1, ds, (1, 0, 1)) == "none"

    def test_all_injective_asked_coordinate_unchecked(self):
        """q_i=1 disables the computational-basis comparison entirely."""
        sess, ds = prepared_session((0, 0, 0), (1, 0, 1), seed=42)
        assert recheck(sess, (0, 1, 0), 1, ds, (0, 1, 0)) == "none"

    def test_decode_failure_flags_by_round(self):
        """A commitment outside the claw image flags in whichever round it surfaces."""

        def outside_image(sess, l):
            image = {sess.registry.eval(sess.handles[l], 0, x) for x in range(1 << W)}
            return next(y for y in range(1 << (W + 1)) if y not in image)

        sess = make_session((1, 1, 1), seed=55)
        ys, ds = engineer_commitments(sess, (0, 0, 0), (0, 0, 0))
        ys[0] = outside_image(sess, 0)
        sess.receive_commit(ys, round=RoundType.HADAMARD)
        sess.send_questions()
        assert recheck(sess, (1, 0, 0), None, ds, (0, 0, 0)) == "fail_hyper"

        sess2 = make_session((1, 0, 0), seed=56)
        ys2, ds2 = engineer_commitments(sess2, (0, 1, 1), (0, 0, 0))
        ys2[0] = outside_image(sess2, 0)
        sess2.receive_commit(ys2, round=RoundType.HADAMARD)
        sess2.send_questions()
        assert recheck(sess2, (1, 0, 0), None, ds2, (0, 0, 0)) == "fail_test"

        sess3 = make_session((1, 0, 0), seed=57)
        ys3, _ = engineer_commitments(sess3, (0, 1, 1), (0, 0, 0))
        ys3[0] = outside_image(sess3, 0)
        sess3.receive_commit(ys3, round=RoundType.PREIMAGE)
        assert sess3.check_preimage([(0, 3), (1, 3), (1, 3)]) is Flag.FAIL_PRE


# --------------------------------------------------------------------------
# preimage round
# --------------------------------------------------------------------------

def honest_preimage_session(theta=(1, 0, 0), seed=77):
    """Commit honestly and return the session plus correct (b, x) answers."""
    sess = make_session(theta, seed=seed)
    prover_rng = _Stream(rng_from(derive_seed(seed, 0xFEED)).bit_generator)
    ys, answers = [], []
    for handle in sess.handles:
        y, c = sess.registry.sample_commitment(handle, prover_rng)
        ys.append(y)
        answers.append(c.preimages[0])  # the injective (b, x), or a claw's branch 0
    sess.receive_commit(ys, round=RoundType.PREIMAGE)
    return sess, answers


class TestPreimageRound:
    def test_honest_preimages_accept(self):
        sess, answers = honest_preimage_session()
        assert sess.check_preimage(answers) is Flag.NONE
        assert sess.verdict() == (True, Flag.NONE)

    def test_flipped_x_flags(self):
        sess, answers = honest_preimage_session(seed=78)
        b, x = answers[2]
        answers[2] = (b, x ^ 1)
        assert sess.check_preimage(answers) is Flag.FAIL_PRE
        assert sess.verdict() == (False, Flag.FAIL_PRE)

    def test_other_claw_branch_accepted(self):
        """Either claw preimage satisfies the relation; both grade clean."""
        sess, answers = honest_preimage_session(theta=(1, 1, 1), seed=79)
        flipped = []
        for (b, x), trapdoor in zip(answers, sess.trapdoors):
            flipped.append((1 - b, x ^ trapdoor.shift))
        assert sess.check_preimage(flipped) is Flag.NONE

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            [(0, 3)],
            [(0, 3), (1, 3)],
            [(0, 3), (1, 3), (2, 3)],
            [(0, 3), (1, 3), (0, 1 << W)],
            [(0, 3), (1, 3), (0, -1)],
            [(0, 3), (1, 3), None],
            [(0, 3), (1, 3), (0, "x")],
            "not a list of pairs",
        ],
    )
    def test_malformed_counts_as_failure(self, bad):
        """Structurally broken preimage answers fail the session before grading: they raise
        MalformedAnswerError, which aborts it, and raise no flag."""
        sess, _ = honest_preimage_session(seed=80)
        with pytest.raises(MalformedAnswerError, match="^preimage answers are not "):
            sess.check_preimage(bad)
        assert sess.flag is None and sess.preimages is None


# --------------------------------------------------------------------------
# state machine and validation
# --------------------------------------------------------------------------

class TestStateMachine:
    def test_operations_out_of_order_raise(self):
        sess = make_session((0, 0, 1), seed=5)
        with pytest.raises(ProtocolOrderError):
            sess.send_questions()
        with pytest.raises(ProtocolOrderError):
            sess.check_preimage([(0, 0), (0, 0), (0, 0)])
        with pytest.raises(ProtocolOrderError):
            sess.verdict()

    def test_round_mismatch_raises(self):
        sess, ds = prepared_session((0, 0, 1), (0, 0, 0), seed=6)
        with pytest.raises(ProtocolOrderError):
            sess.check_preimage([(0, 0), (0, 0), (0, 0)])
        # before the questions are sent, only the round type refuses preimage answers
        sess = make_session((0, 0, 1), seed=6)
        ys, _ = engineer_commitments(sess, (0, 0, 0), (0, 0, 0))
        sess.receive_commit(ys, round=RoundType.HADAMARD)
        with pytest.raises(ProtocolOrderError, match="^preimage answers outside a preimage round$"):
            sess.check_preimage([(0, 0), (0, 0), (0, 0)])
        assert sess.preimages is None and sess.flag is None

        sess2 = make_session((0, 0, 1), seed=6)
        ys2, _ = engineer_commitments(sess2, (0, 0, 0), (0, 0, 0))
        sess2.receive_commit(ys2, round=RoundType.PREIMAGE)
        with pytest.raises(ProtocolOrderError):
            sess2.send_questions()

    def test_double_commit_raises(self):
        sess = make_session((0, 0, 1), seed=8)
        ys, _ = engineer_commitments(sess, (0, 0, 0), (0, 0, 0))
        sess.receive_commit(ys, round=RoundType.PREIMAGE)
        with pytest.raises(ProtocolOrderError):
            sess.receive_commit(ys)

    def test_malformed_commitments_raise(self):
        for bad in ([0, 0], [0, 0, 1 << (W + 1)], [0, 0, -1], [0, 0, "y"], [0, 0, 1.5]):
            sess = make_session((0, 0, 1), seed=9)
            with pytest.raises(MalformedAnswerError):
                sess.receive_commit(bad)

    def test_malformed_hadamard_answers_raise(self):
        sess, ds = prepared_session((1, 0, 0), (0, 0, 0), seed=10)
        q = sess.q
        for bad_ds, bad_vs in (
            ([0, 0], [0, 0, 0]),
            ([0, 0, 1 << W], [0, 0, 0]),
            ([0, 0, -1], [0, 0, 0]),
            ([0, 0, 0], [0, 0]),
            ([0, 0, 0], [0, 0, 2]),
            ([0, 0, 0], [0, 0, "v"]),
            ([0, 0, 2.5], [0, 0, 0]),
            ([0, 0, 0], [0, 0, 1.0]),
        ):
            sess._stage = "questioned"
            with pytest.raises(MalformedAnswerError):
                sess.check_hadamard(bad_ds, bad_vs)

    def test_invalid_theta_override_rejected(self):
        rng = rng_from(3)
        for bad in ((1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0), (2, 0, 0)):
            with pytest.raises(ParameterError):
                verifier.begin(SP4, rng, theta=bad)

    def test_pin_rule(self):
        assert verifier.check_pins() == (None, None)
        assert verifier.check_pins("111", "hadamard") == ((1, 1, 1), RoundType.HADAMARD)
        assert verifier.check_pins([0, 1, 0], RoundType.PREIMAGE) == ((0, 1, 0),
                                                                      RoundType.PREIMAGE)
        for theta, round in (("abc", None), (5, None), ((1, 1, 0), None), (None, "bogus"),
                             (None, ["hadamard"]), (None, 1)):
            with pytest.raises(ParameterError):
                verifier.check_pins(theta, round)
        with pytest.raises(ParameterError):
            verifier.begin(SP4, rng_from(3), theta="abc")
        sess = make_session((0, 0, 1), seed=9)
        ys, _ = engineer_commitments(sess, (0, 0, 0), (0, 0, 0))
        with pytest.raises(ParameterError):
            sess.receive_commit(ys, round="bogus")

    def test_determinism_under_fixed_seed(self):
        def play(seed):
            rng = rng_from(derive_seed(seed))
            sess = verifier.begin(SP4, rng)
            ys = [sess.registry.eval(h, 0, 1) for h in sess.handles]
            round_type = sess.receive_commit(ys)
            record = [sess.theta, [h.key_id for h in sess.handles], round_type]
            if round_type is RoundType.HADAMARD:
                record.append(sess.send_questions())
                record.append(sess.test_index)
            return record

        for seed in range(12):
            assert play(seed) == play(seed)

    def test_trapdoors_stay_out_of_outbound_fields(self):
        """Handles expose only the lookup id and width; secrets live in trapdoors."""
        sess = make_session((1, 1, 1), seed=12)
        for handle in sess.handles:
            assert set(vars(handle)) == {"key_id", "w"}
        assert all(t.shift for t in sess.trapdoors)

    def test_theta_class_labels(self):
        assert verifier.theta_class((1, 1, 1)) == "hyper"
        for theta in BASIS_CHOICES[:-1]:
            assert verifier.theta_class(theta) == "test"


# --------------------------------------------------------------------------
# sampling uniformity (chi-square at 1e-3)
# --------------------------------------------------------------------------

class TestUniformity:
    def test_theta_uniform_over_five_choices(self):
        rng = rng_from(derive_seed(2026, 1))
        registry = None
        counts = {choice: 0 for choice in BASIS_CHOICES}
        from magicert.entcf import OracleRegistry

        registry = OracleRegistry()
        for _ in range(N_CHI2):
            sess = verifier.begin(SP4, rng, registry=registry)
            counts[sess.theta] += 1
        p = scipy.stats.chisquare(list(counts.values())).pvalue
        assert p > CHI2_SIG

    def test_round_type_uniform(self):
        rng = _Stream(rng_from(derive_seed(2026, 2)).bit_generator)
        sess, _ = prepared_session((0, 0, 1), (0, 0, 0), seed=13)
        counts = {RoundType.PREIMAGE: 0, RoundType.HADAMARD: 0}
        ys = sess.ys
        for _ in range(N_CHI2):
            sess._stage = "keys_issued"
            sess.rng = rng
            counts[sess.receive_commit(ys)] += 1
        p = scipy.stats.chisquare(list(counts.values())).pvalue
        assert p > CHI2_SIG

    def test_question_and_index_uniform(self):
        rng = _Stream(rng_from(derive_seed(2026, 3)).bit_generator)
        sess, _ = prepared_session((0, 0, 0), (0, 0, 0), seed=14)
        sess.rng = rng
        q_counts = {bits: 0 for bits in all_bits(3)}
        i_counts = [0, 0, 0]
        for _ in range(N_CHI2):
            sess._stage = "round_chosen"
            q_counts[sess.send_questions()] += 1
            i_counts[sess.test_index] += 1
        assert scipy.stats.chisquare(list(q_counts.values())).pvalue > CHI2_SIG
        assert scipy.stats.chisquare(i_counts).pvalue > CHI2_SIG
