"""Classical challenger: basis sampling, key issuance, checks, verdicts.

One session walks a fixed state machine:

    begin -> receive_commit -> check_preimage -> verdict
                           \\-> send_questions -> check_hadamard -> verdict

The basis triple theta picks the key family per coordinate (0 injective,
1 claw) and selects which check table row applies in a Hadamard round.
At most one flag is raised per session; accept means no flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import entcf
from .errors import MalformedAnswerError, ParameterError, ProtocolOrderError
from .util import rand_u64

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


@dataclass
class VerifierSession:
    """Single-owner, sequential verifier side of one protocol run."""

    sp: entcf.SecurityParam
    rng: np.random.Generator
    registry: entcf.OracleRegistry
    theta: tuple[int, int, int]
    handles: list[entcf.KeyHandle]
    trapdoors: list[entcf.Trapdoor]  # never serialized into outbound messages
    ys: list[int] | None = None
    round: RoundType | None = None
    q: tuple[int, int, int] | None = None
    test_index: int | None = None  # checked coordinate, sampled with q when theta=000
    flag: Flag | None = None
    _stage: str = field(default="keys_issued", repr=False)

    # ------------------------------------------------------------- protocol

    def receive_commit(self, ys: list[int], round: RoundType | None = None) -> RoundType:
        """Accept the three commitments and flip the round coin.

        Passing round pins the round type (diagnostic conditioning) and
        skips the coin; everything downstream is unchanged.
        """
        self._require("keys_issued")
        if len(ys) != 3:
            raise MalformedAnswerError(f"expected 3 commitments, got {len(ys)}")
        w = self.sp.w
        for y in ys:
            if not isinstance(y, (int, np.integer)) or not 0 <= int(y) < (1 << (w + 1)):
                raise MalformedAnswerError(f"commitment {y!r} is not a {w + 1}-bit value")
        self.ys = [int(y) for y in ys]
        if round is None:
            self.round = RoundType.PREIMAGE if int(self.rng.integers(0, 2)) == 0 else RoundType.HADAMARD
        else:
            self.round = RoundType(round)
        self._stage = "round_chosen"
        return self.round

    def check_preimage(self, answers: list[tuple[int, int]]) -> Flag:
        """Grade a preimage round. Malformed answers count as failure, never raise."""
        self._require("round_chosen")
        if self.round is not RoundType.PREIMAGE:
            raise ProtocolOrderError("preimage answers outside a preimage round")
        self.flag = Flag.NONE if self._preimages_ok(answers) else Flag.FAIL_PRE
        self._stage = "checked"
        return self.flag

    def _preimages_ok(self, answers) -> bool:
        """chk raises ParameterError, a ValueError, on a bad bit or an x out of range."""
        try:
            if len(answers) != 3:
                return False
            for (b, x), handle, y in zip(answers, self.handles, self.ys):
                if not self.registry.chk(handle, b, x, y):
                    return False
        except (TypeError, ValueError):
            return False
        return True

    def send_questions(self) -> tuple[int, int, int]:
        self._require("round_chosen")
        if self.round is not RoundType.HADAMARD:
            raise ProtocolOrderError("measurement questions outside a Hadamard round")
        bits = int(self.rng.integers(0, 8))
        self.q = ((bits >> 2) & 1, (bits >> 1) & 1, bits & 1)
        if self.theta == (0, 0, 0):
            self.test_index = int(self.rng.integers(0, 3))
        self._stage = "questioned"
        return self.q

    def check_hadamard(self, ds: list[int], vs: list[int]) -> Flag:
        self._require("questioned")
        w = self.sp.w
        if len(ds) != 3 or len(vs) != 3:
            raise MalformedAnswerError("expected 3 opening strings and 3 answers")
        for d in ds:
            if not isinstance(d, (int, np.integer)) or not 0 <= int(d) < (1 << w):
                raise MalformedAnswerError(f"opening {d!r} is not a {w}-bit value")
        for v in vs:
            if v not in (0, 1):
                raise MalformedAnswerError(f"answer {v!r} is not a bit")
        ds = [int(d) for d in ds]
        vs = [int(v) for v in vs]
        self.flag = self._hadamard_flag(ds, vs)
        self._stage = "checked"
        return self.flag

    def _hadamard_flag(self, ds: list[int], vs: list[int]) -> Flag:
        theta, q = self.theta, self.q
        if theta == (0, 0, 0):
            i = self.test_index
            if q[i] == 0 and self._decode_b(i) != vs[i]:
                return Flag.FAIL_TEST
            return Flag.NONE
        if sum(theta) == 1:
            j = theta.index(1)
            if q[j] == 1:
                others = [l for l in range(3) if l != j]
                u = self._decode_u(j, ds[j])
                b_prod = self._decode_b(others[0]) & self._decode_b(others[1])
                if u is None or u ^ b_prod != vs[j]:
                    return Flag.FAIL_TEST
            return Flag.NONE
        # all-claw case: only the three weight-one question patterns are checked
        for j in range(3):
            if q == tuple(1 if l == j else 0 for l in range(3)):
                others = [l for l in range(3) if l != j]
                u = self._decode_u(j, ds[j])
                if u is None or u != vs[j] ^ (vs[others[0]] & vs[others[1]]):
                    return Flag.FAIL_HYPER
        return Flag.NONE

    def verdict(self) -> tuple[bool, Flag]:
        self._require("checked")
        return self.flag is Flag.NONE, self.flag

    # -------------------------------------------------------------- helpers

    def _decode_b(self, i: int) -> int:
        return entcf.decode_b(self.trapdoors[i], self.ys[i])

    def _decode_u(self, i: int, d: int) -> int | None:
        return entcf.decode_u(self.trapdoors[i], self.ys[i], d)

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
    if theta is None:
        theta = BASIS_CHOICES[int(rng.integers(0, len(BASIS_CHOICES)))]
    else:
        theta = tuple(int(t) for t in theta)
        if theta not in BASIS_CHOICES:
            raise ParameterError(f"basis triple {theta} not allowed")
    handles, trapdoors = [], []
    for t_i in theta:
        family = entcf.Family.CLAW if t_i else entcf.Family.INJECTIVE
        handle, trapdoor = registry.gen(family, sp, rand_u64(rng))
        handles.append(handle)
        trapdoors.append(trapdoor)
    return VerifierSession(
        sp=sp, rng=rng, registry=registry, theta=theta,
        handles=handles, trapdoors=trapdoors,
    )
