"""Classical challenger: basis sampling, key issuance, checks, verdicts.

One session walks a fixed state machine:

    begin -> receive_commit -> check_preimage -> verdict
                           \\-> send_questions -> check_hadamard -> verdict

The basis triple theta picks the key family per coordinate (0 injective,
1 claw) and selects which check table row applies in a Hadamard round.
At most one flag is raised per session; accept means no flag.

Each step takes the prover's answers as given: any that is not an integer
of its width raises MalformedAnswerError before grading, and the session
keeps the checked values for the transcript. check_pins is the one rule
for theta and round pins; a bad pin raises ParameterError.

The check table (`hadamard_fails`) and the preimage check (`entcf._opens`,
behind `OracleRegistry.chk`) are bitwise arithmetic that runs unchanged on
ints and on arrays: a session calls them with ints, the engine's array path
with one element per session.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import entcf
from .errors import MalformedAnswerError, ParameterError, ProtocolOrderError
from .util import _Stream, int_to_tuple, parity

# allowed basis triples: all-injective, the three single-claw patterns, all-claw
BASIS_CHOICES: tuple[tuple[int, int, int], ...] = (
    (0, 0, 0),
    (0, 0, 1),
    (0, 1, 0),
    (1, 0, 0),
    (1, 1, 1),
)


class RoundType(str, Enum):
    PREIMAGE = "preimage"
    HADAMARD = "hadamard"


class Flag(str, Enum):
    NONE = "none"
    FAIL_PRE = "fail_pre"
    FAIL_TEST = "fail_test"
    FAIL_HYPER = "fail_hyper"


def theta_class(theta: tuple[int, int, int]) -> str:
    """Conditioning class: weight <= 1 is the test case, 111 the hypergraph case."""
    return "hyper" if sum(theta) == 3 else "test"


def check_pins(theta=None, round=None) -> tuple[tuple[int, int, int] | None, RoundType | None]:
    """(theta as a basis triple, round as a RoundType), None where unpinned; else ParameterError."""
    try:
        theta = None if theta is None else tuple(int(t) for t in theta)
        round = None if round is None else RoundType(round)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad pin: {exc}") from exc
    if theta is not None and theta not in BASIS_CHOICES:
        raise ParameterError(f"basis triple {theta} not allowed")
    return theta, round


def _count(answers) -> int:
    """len(answers); a prover answer without one is malformed."""
    try:
        return len(answers)
    except TypeError as exc:
        raise MalformedAnswerError(
            f"prover answer of type {type(answers).__name__} is not a sequence") from exc


# the two coordinates other than j, for j = 0, 1, 2
_OTHERS = ((1, 2), (0, 2), (0, 1))


def failure_flag(theta: tuple[int, int, int]) -> Flag:
    """The flag a Hadamard round with this basis triple raises when its check fails."""
    return Flag.FAIL_HYPER if theta_class(theta) == "hyper" else Flag.FAIL_TEST


def hadamard_fails(theta, q, test_index, tops, us, vs):
    """The Hadamard check table: 1 where a round fails its check, else 0.

    theta is one basis triple. q and vs are the question and answer bits,
    test_index the checked coordinate (theta 000 only). tops[i] is the top
    bit of P_k^{-1}(y_i): the branch bit b_i of an injective key, or 1
    where y_i lies off a claw key's image (decode_u's None). us[i] is the
    claw parity <d_i, s_i>. Every argument but theta may hold ints or
    arrays; the result is of the same kind.
    """
    if theta == (0, 0, 0):
        # the checked coordinate, asked in the computational basis, must read b
        fail = 0
        for i in range(3):
            fail = fail | (test_index == i) & (q[i] ^ 1) & (tops[i] ^ vs[i])
        return fail
    if sum(theta) == 1:
        # the claw coordinate, asked in the conjugate basis, must read u ^ b b'
        j = theta.index(1)
        o1, o2 = _OTHERS[j]
        return q[j] & (tops[j] | (us[j] ^ (tops[o1] & tops[o2]) ^ vs[j]))
    # all-claw case: only the three weight-one questions are checked, each
    # against u_j = v_j ^ v v'
    fail = 0
    for j, (o1, o2) in enumerate(_OTHERS):
        one_hot = q[j] & (q[o1] ^ 1) & (q[o2] ^ 1)
        fail = fail | one_hot & (tops[j] | (us[j] ^ vs[j] ^ (vs[o1] & vs[o2])))
    return fail


@dataclass
class VerifierSession:
    """Single-owner, sequential verifier side of one protocol run."""

    sp: entcf.SecurityParam
    rng: _Stream  # the verifier's stream
    registry: entcf.OracleRegistry
    theta: tuple[int, int, int]
    handles: list[entcf.KeyHandle]
    trapdoors: list[entcf.Trapdoor]  # never serialized into outbound messages
    ys: tuple[int, ...] | None = None
    round: RoundType | None = None
    preimages: tuple[tuple[int, int], ...] | None = None
    ds: tuple[int, ...] | None = None
    q: tuple[int, int, int] | None = None
    test_index: int | None = None  # checked coordinate, sampled with q when theta=000
    vs: tuple[int, ...] | None = None
    flag: Flag | None = None
    _stage: str = field(default="keys_issued", repr=False)

    # ------------------------------------------------------------- protocol

    def receive_commit(self, ys: list[int], round: RoundType | None = None) -> RoundType:
        """Accept the three commitments and flip the round coin.

        Passing round pins the round type (diagnostic conditioning) and
        skips the coin; everything downstream is unchanged.
        """
        _, round = check_pins(round=round)
        self._require("keys_issued")
        if _count(ys) != 3:
            raise MalformedAnswerError(f"expected 3 commitments, got {len(ys)}")
        w = self.sp.w
        for y in ys:
            if not isinstance(y, (int, np.integer)) or not 0 <= int(y) < (1 << (w + 1)):
                raise MalformedAnswerError(f"commitment {y!r} is not a {w + 1}-bit value")
        self.ys = tuple(int(y) for y in ys)
        if round is None:
            round = RoundType.HADAMARD if self.rng.bits(1) else RoundType.PREIMAGE
        self.round = round
        self._stage = "round_chosen"
        return self.round

    def check_preimage(self, answers: list[tuple[int, int]]) -> Flag:
        """Grade three (bit, w-bit value) pairs through chk; any other shape is malformed."""
        self._require("round_chosen")
        if self.round is not RoundType.PREIMAGE:
            raise ProtocolOrderError("preimage answers outside a preimage round")
        w = self.sp.w
        try:
            pairs = tuple((operator.index(b), operator.index(x)) for b, x in answers)
        except (TypeError, ValueError) as exc:
            raise MalformedAnswerError(
                f"preimage answers are not (bit, value) pairs: {exc}") from exc
        if len(pairs) != 3 or any(b not in (0, 1) or not 0 <= x < 1 << w for b, x in pairs):
            raise MalformedAnswerError(
                f"preimage answers are not 3 pairs of a bit and a {w}-bit value")
        self.preimages = pairs
        opened = all(self.registry.chk(handle, b, x, y)
                     for (b, x), handle, y in zip(pairs, self.handles, self.ys))
        self.flag = Flag.NONE if opened else Flag.FAIL_PRE
        self._stage = "checked"
        return self.flag

    def send_questions(self) -> tuple[int, int, int]:
        self._require("round_chosen")
        if self.round is not RoundType.HADAMARD:
            raise ProtocolOrderError("measurement questions outside a Hadamard round")
        self.q = int_to_tuple(self.rng.bits(3), 3)
        if self.theta == (0, 0, 0):
            self.test_index = self.rng.below(3)
        self._stage = "questioned"
        return self.q

    def check_hadamard(self, ds: list[int], vs: list[int]) -> Flag:
        self._require("questioned")
        w = self.sp.w
        if _count(ds) != 3 or _count(vs) != 3:
            raise MalformedAnswerError("expected 3 opening strings and 3 answers")
        for d in ds:
            if not isinstance(d, (int, np.integer)) or not 0 <= int(d) < (1 << w):
                raise MalformedAnswerError(f"opening {d!r} is not a {w}-bit value")
        for v in vs:
            if not isinstance(v, (int, np.integer)) or v not in (0, 1):
                raise MalformedAnswerError(f"answer {v!r} is not a bit")
        self.ds = tuple(int(d) for d in ds)
        self.vs = tuple(int(v) for v in vs)
        tops = [entcf._perm_backward(t, y) >> t.w for t, y in zip(self.trapdoors, self.ys)]
        us = [parity(d & (t.shift or 0)) for t, d in zip(self.trapdoors, self.ds)]
        fails = hadamard_fails(self.theta, self.q, self.test_index, tops, us, self.vs)
        self.flag = failure_flag(self.theta) if fails else Flag.NONE
        self._stage = "checked"
        return self.flag

    def verdict(self) -> tuple[bool, Flag]:
        self._require("checked")
        return self.flag is Flag.NONE, self.flag

    # -------------------------------------------------------------- helpers

    def _require(self, stage: str) -> None:
        if self._stage != stage:
            raise ProtocolOrderError(f"session at stage {self._stage!r}, operation needs {stage!r}")


def begin(
    sp: entcf.SecurityParam,
    rng: np.random.Generator,
    registry: entcf.OracleRegistry | None = None,
    theta: tuple[int, int, int] | None = None,
) -> VerifierSession:
    """Sample theta, generate the per-coordinate keys, start a session.

    Passing theta pins the basis triple (diagnostic conditioning) and
    skips the basis draw; everything downstream is unchanged.
    """
    if registry is None:
        registry = entcf.OracleRegistry()
    theta, _ = check_pins(theta)
    stream = _Stream(rng.bit_generator)
    if theta is None:
        theta = BASIS_CHOICES[stream.below(len(BASIS_CHOICES))]
    handles, trapdoors = [], []
    for t_i in theta:
        family = entcf.Family.CLAW if t_i else entcf.Family.INJECTIVE
        handle, trapdoor = registry.gen(family, sp, stream.u64())
        handles.append(handle)
        trapdoors.append(trapdoor)
    return VerifierSession(
        sp=sp, rng=stream, registry=registry, theta=theta,
        handles=handles, trapdoors=trapdoors,
    )
