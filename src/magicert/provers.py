"""Prover strategies that sit on the device side of the protocol.

The honest prover runs the full quantum pipeline in collapsed form: commit
through the oracle, open in the requested basis, assemble the three leftover
qubits, entangle them, and measure as asked. The other strategies are
controlled distortions of that pipeline: answer-bit noise, qubit
depolarization, a Clifford-limited device, and a canned script.

A prover only ever sees key handles and the public oracle operations. It is
never told which family a key belongs to, the basis triple, or any trapdoor.

The opened register is a product of |0>, |1>, |+> or |-> per qubit, with or
without the phase gate, so the pure-state provers take it, and each
question's cumulative outcome weights, from tables filled on first use:
64 patterns, 2 gate choices and 8 questions. Every draw is unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import entcf, qsim
from .errors import ParameterError, ProtocolOrderError, ScriptError
from .util import int_to_tuple, sample_edges, sample_index

NOISE_MODELS = ("bitflip", "depolarizing")


@lru_cache(maxsize=None)
def _register(qubits: tuple[entcf.CollapsedQubit, ...], gate: bool) -> qsim.StateVector:
    """The opened register, with the three-qubit phase gate when gate is true."""
    amps = qubits[0].amplitudes()
    for qubit in qubits[1:]:
        # the products np.kron forms, without its reshaping overhead
        amps = np.multiply.outer(amps, qubit.amplitudes()).ravel()
    state = qsim.StateVector(amps)
    return qsim.apply_gate(state, "CCZ") if gate else state


@lru_cache(maxsize=None)
def _edges(qubits: tuple[entcf.CollapsedQubit, ...], gate: bool,
           q: tuple[int, ...]) -> tuple[float, ...]:
    """Cumulative outcome weights of the register read in bases q."""
    return tuple(np.cumsum(qsim.outcome_distribution(_register(qubits, gate), q)).tolist())


class HonestProver:
    """Faithful device: samples commitments, opens, applies CCZ, measures."""

    def __init__(self, registry: entcf.OracleRegistry, rng: np.random.Generator):
        self.registry = registry
        self.rng = rng
        self.commitments: list[entcf.Commitment] | None = None
        self.qubits: list[entcf.CollapsedQubit] | None = None
        self.state: qsim.StateVector | None = None
        self._stage = "idle"

    # ------------------------------------------------------------ protocol

    def commit(self, handles: list[entcf.KeyHandle]) -> list[int]:
        self._require("idle")
        ys, self.commitments = [], []
        for handle in handles:
            y, c = self.registry.sample_commitment(handle, self.rng)
            ys.append(y)
            self.commitments.append(c)
        self._stage = "committed"
        return ys

    def answer_preimage(self) -> list[tuple[int, int]]:
        """Open classically. A claw coordinate reveals a fair-coin branch."""
        self._require("committed")
        answers = []
        for c in self.commitments:
            held = c.held
            if isinstance(held, entcf.DefinitePreimage):
                answers.append((held.b, held.x))
            else:
                b = int(self.rng.integers(0, 2))
                answers.append((b, held.x1 if b else held.x0))
        self._stage = "finished"
        return answers

    def answer_hadamard(self) -> list[int]:
        """Open in the conjugate basis and build the post-gate register."""
        self._require("committed")
        ds, qubits = [], []
        for c in self.commitments:
            d, qubit = entcf.hadamard_open(c, self.rng)
            ds.append(d)
            qubits.append(qubit)
        self.qubits = tuple(qubits)
        self.state = _register(self.qubits, self._gate(self.qubits))
        self._stage = "opened"
        return ds

    def answer_questions(self, q) -> list[int]:
        """Sample as util.sample_index would on the register's qsim.outcome_distribution(q)."""
        self._require("opened")
        # int() as qsim's basis check does, so the table holds valid patterns only
        edges = _edges(self.qubits, self._gate(self.qubits), tuple(map(int, q)))
        self._stage = "finished"
        return list(int_to_tuple(sample_edges(edges, self.rng), len(self.qubits)))

    # -------------------------------------------------------------- hooks

    def _gate(self, qubits) -> bool:
        """Whether the device applies the phase gate; subclasses may restrict it."""
        return True

    def _require(self, stage: str) -> None:
        if self._stage != stage:
            raise ProtocolOrderError(f"prover at stage {self._stage!r}, call needs {stage!r}")


class StabilizerProver(HonestProver):
    """Clifford-limited device: skips the phase gate exactly when it needs magic.

    On a register with at least one computational-basis qubit the gate acts
    as a (classically controlled) CZ or Z, which a stabilizer device can
    perform, so it does. On an all-conjugate register the gate would create
    a non-stabilizer state, so this device leaves the product state alone.
    """

    def _gate(self, qubits) -> bool:
        return not all(qubit.basis == "X" for qubit in qubits)


@dataclass(frozen=True)
class NoiseSpec:
    """Answer-noise selection: model name plus per-qubit probability."""

    model: str
    epsilon: float

    def __post_init__(self) -> None:
        if self.model not in NOISE_MODELS:
            raise ParameterError(f"unknown noise model {self.model!r}")
        if not isinstance(self.epsilon, (int, float)) or not 0.0 <= float(self.epsilon) <= 1.0:
            raise ParameterError(f"noise probability {self.epsilon!r} outside [0, 1]")


class NoisyProver:
    """Wraps an honest-style prover and corrupts its measurement answers.

    bitflip: each returned answer bit flips independently with probability
    epsilon. depolarizing: each register qubit is replaced by the maximally
    mixed state with probability epsilon before measurement, which moves the
    final measurement onto the density-state path. epsilon = 0 delegates
    everything, so transcripts match the inner prover bit for bit.
    """

    def __init__(self, inner: HonestProver, spec: NoiseSpec):
        self.inner = inner
        self.spec = spec
        self.rho: qsim.DensityState | None = None

    def commit(self, handles) -> list[int]:
        self.rho = None
        return self.inner.commit(handles)

    def answer_preimage(self) -> list[tuple[int, int]]:
        return self.inner.answer_preimage()

    def answer_hadamard(self) -> list[int]:
        ds = self.inner.answer_hadamard()
        if self.spec.model == "depolarizing" and self.spec.epsilon > 0:
            rho = qsim.DensityState.from_statevector(self.inner.state)
            for qubit in range(rho.n):
                rho = qsim.depolarize(rho, qubit, self.spec.epsilon)
            self.rho = rho
        return ds

    def answer_questions(self, q) -> list[int]:
        if self.rho is not None:
            dist = qsim.outcome_distribution_density(self.rho, tuple(q))
            outcome = sample_index(dist, self.inner.rng)
            return list(int_to_tuple(outcome, self.rho.n))
        vs = self.inner.answer_questions(q)
        if self.spec.model == "bitflip" and self.spec.epsilon > 0:
            draws = self.inner.rng.random(len(vs))
            vs = [v ^ int(u < self.spec.epsilon) for v, u in zip(vs, draws)]
        return list(vs)


class ScriptedProver:
    """Replays canned answers; no randomness, no oracle access."""

    def __init__(self, record: dict):
        if not isinstance(record, dict) or not record:
            raise ScriptError("script record must be a non-empty mapping")
        self.record = dict(record)

    def _field(self, name: str, convert):
        if name not in self.record:
            raise ScriptError(f"script record lacks field {name!r}")
        try:
            return convert(self.record[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScriptError(f"script field {name!r} is malformed: {exc}") from exc

    def commit(self, handles) -> list[int]:
        return self._field("ys", lambda v: [int(y) for y in v])

    def answer_preimage(self) -> list[tuple[int, int]]:
        return self._field("preimages", lambda v: [(int(b), int(x)) for b, x in v])

    def answer_hadamard(self) -> list[int]:
        return self._field("ds", lambda v: [int(d) for d in v])

    def answer_questions(self, q) -> list[int]:
        return self._field("vs", lambda v: [int(b) for b in v])


def script_record(data, index: int) -> dict:
    """Pick the record for one session: a bare mapping serves every session,
    a list is addressed by session index and can run out."""
    if isinstance(data, dict):
        if not data:
            raise ScriptError("script is empty")
        return data
    if isinstance(data, list):
        if index >= len(data):
            raise ScriptError(f"script exhausted at session {index} (holds {len(data)})")
        return data[index]
    raise ScriptError("script must be a mapping or a list of mappings")


_NOISE_ALIASES = {"bitflip": "bitflip", "depol": "depolarizing", "depolarizing": "depolarizing"}


def parse_prover_spec(spec: str):
    """Turn a selection string into a per-session factory.

    Accepted forms: honest | stabilizer | noisy:bitflip:<p> | noisy:depol:<p>
    | scripted:<path>. The factory signature is (registry, rng, index).
    """
    if spec == "honest":
        return lambda registry, rng, index: HonestProver(registry, rng)
    if spec == "stabilizer":
        return lambda registry, rng, index: StabilizerProver(registry, rng)
    if spec.startswith("noisy:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ParameterError(f"noisy spec {spec!r} wants noisy:<model>:<epsilon>")
        model = _NOISE_ALIASES.get(parts[1])
        if model is None:
            raise ParameterError(f"unknown noise model {parts[1]!r}")
        try:
            epsilon = float(parts[2])
        except ValueError as exc:
            raise ParameterError(f"bad noise probability {parts[2]!r}") from exc
        ns = NoiseSpec(model=model, epsilon=epsilon)
        return lambda registry, rng, index: NoisyProver(HonestProver(registry, rng), ns)
    if spec.startswith("scripted:"):
        path = spec[len("scripted:"):]
        if not path:
            raise ParameterError("scripted spec wants scripted:<path>")
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterError(f"cannot load script {path!r}: {exc}") from exc
        return lambda registry, rng, index: ScriptedProver(script_record(data, index))
    raise ParameterError(f"unknown prover spec {spec!r}")
