"""Per-layer tracing for the benchmark, done from outside the program.

The tracer replaces public functions and methods of the magicert modules
with timing wrappers and puts the originals back on close. Times are
inclusive (a layer's time contains the layers it calls) and a layer that
re-enters itself, such as a noisy prover delegating to its inner honest
prover, is counted once, at the outermost call.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

from magicert import analysis, engine, entcf, provers, qsim, util, verifier

# layer name -> the (owner, attribute) sites that are wrapped under it; a
# function imported by name into another module is wrapped at each import
LAYERS = {
    "util.rng_from": [(util, "rng_from"), (entcf, "rng_from"), (engine, "rng_from")],
    "entcf.gen": [(entcf.OracleRegistry, "gen")],
    "entcf.decode": [(entcf, "decode_b"), (entcf, "decode_u")],
    "entcf.hadamard_open": [(entcf, "hadamard_open")],
    "verifier.begin": [(verifier, "begin")],
    "verifier.check_preimage": [(verifier.VerifierSession, "check_preimage")],
    "verifier.check_hadamard": [(verifier.VerifierSession, "check_hadamard")],
    "provers.commit": [(provers.HonestProver, "commit"), (provers.NoisyProver, "commit")],
    "provers.answer_preimage": [
        (provers.HonestProver, "answer_preimage"), (provers.NoisyProver, "answer_preimage"),
    ],
    "provers.answer_hadamard": [
        (provers.HonestProver, "answer_hadamard"), (provers.NoisyProver, "answer_hadamard"),
    ],
    "provers.answer_questions": [
        (provers.HonestProver, "answer_questions"), (provers.NoisyProver, "answer_questions"),
    ],
    "qsim.depolarize": [(qsim, "depolarize")],
    "qsim.outcome_distribution_density": [(qsim, "outcome_distribution_density")],
    "qsim.apply_gate": [(qsim, "apply_gate")],
    "engine.run_session": [(engine, "run_session")],
    "engine.write_transcripts": [(engine, "write_transcripts")],
    "engine.read_transcripts": [(engine, "read_transcripts")],
    "analysis.certify": [(analysis, "certify")],
    "engine.Message.encode": [(engine.Message, "encode")],
    "engine.Message.decode": [(engine.Message, "decode")],
}

# layers whose every call duration is kept, for percentiles
SAMPLED = {"engine.run_session"}

# frame bytes: the encoded line on the way out, the raw line on the way in
SIZED = {
    "engine.Message.encode": lambda args, result: len(result),
    "engine.Message.decode": lambda args, result: len(args[0]),
}

# the client's own work in a wire session; the rest of its wall time waits
WIRE_BUSY = (
    "engine.Message.encode", "engine.Message.decode", "verifier.begin",
    "provers.commit", "provers.answer_preimage", "provers.answer_hadamard",
    "provers.answer_questions",
)


class Tracer:
    """Call counts, inclusive nanoseconds and byte counts per layer."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.ns: Counter = Counter()
        self.bytes: Counter = Counter()
        self.samples: dict[str, list[int]] = defaultdict(list)
        self._depth: Counter = Counter()
        self._undo: list = []

    def install(self) -> "Tracer":
        for name, sites in LAYERS.items():
            for owner, attr in sites:
                self._wrap(owner, attr, name)
        return self

    def close(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.close()

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = vars(owner)[attr]
        static = isinstance(original, staticmethod)
        func = original.__func__ if static else original
        sample = name in SAMPLED
        size = SIZED.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self._depth[name]:
                return func(*args, **kwargs)
            self._depth[name] += 1
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self._depth[name] -= 1
                self.calls[name] += 1
                self.ns[name] += elapsed
                if sample:
                    self.samples[name].append(elapsed)
            if size is not None:
                self.bytes[name] += size(args, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)
        self._undo.append((owner, attr, original))

    def us(self, name: str) -> float:
        return self.ns[name] / 1e3


def percentile(values: list[int], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def layer_metrics(tracer: Tracer, sessions: int, *, wire_wall_s: float = 0.0,
                  transcript_bytes: int = 0, records_read: int = 0) -> dict[str, float]:
    """Per-layer figures of one traced phase, normalised per session.

    Layers the workload never calls read 0. wire_wall_s is the client's
    wall time inside engine.connect; transcript_bytes is the size of the
    transcript file the traced sessions wrote; records_read counts the
    records read back by engine.read_transcripts.
    """
    per = 1.0 / sessions
    run_samples = tracer.samples["engine.run_session"]
    wire_busy_us = sum(tracer.us(name) for name in WIRE_BUSY)
    wire_frames = tracer.calls["engine.Message.encode"] + tracer.calls["engine.Message.decode"]
    wire_bytes = tracer.bytes["engine.Message.encode"] + tracer.bytes["engine.Message.decode"]
    certify_calls = tracer.calls["analysis.certify"]
    return {
        "util.rng_from.calls_per_session": tracer.calls["util.rng_from"] * per,
        "util.rng_from.us_per_session": tracer.us("util.rng_from") * per,
        "entcf.gen.us": tracer.us("entcf.gen") * per,
        "entcf.decode.us": tracer.us("entcf.decode") * per,
        "entcf.decode.calls_per_session": tracer.calls["entcf.decode"] * per,
        "entcf.hadamard_open.us": tracer.us("entcf.hadamard_open") * per,
        "verifier.begin.us": tracer.us("verifier.begin") * per,
        "verifier.check_preimage.us": tracer.us("verifier.check_preimage") * per,
        "verifier.check_hadamard.us": tracer.us("verifier.check_hadamard") * per,
        "provers.commit.us": tracer.us("provers.commit") * per,
        "provers.answer_hadamard.us": tracer.us("provers.answer_hadamard") * per,
        "provers.answer_questions.us": tracer.us("provers.answer_questions") * per,
        "qsim.depolarize.us": tracer.us("qsim.depolarize") * per,
        "qsim.depolarize.calls_per_session": tracer.calls["qsim.depolarize"] * per,
        "qsim.outcome_distribution_density.us":
            tracer.us("qsim.outcome_distribution_density") * per,
        "qsim.apply_gate.us": tracer.us("qsim.apply_gate") * per,
        "engine.run_session.p50_us": percentile(run_samples, 50) / 1e3 if run_samples else 0.0,
        "engine.run_session.p99_us": percentile(run_samples, 99) / 1e3 if run_samples else 0.0,
        "engine.run_session.samples": len(run_samples),
        "engine.transcript.encode_us": tracer.us("engine.write_transcripts") * per,
        "engine.transcript.bytes_per_session": transcript_bytes * per,
        "engine.read_transcripts.us_per_session":
            tracer.us("engine.read_transcripts") / records_read if records_read else 0.0,
        "analysis.certify.us": tracer.us("analysis.certify") / certify_calls
        if certify_calls else 0.0,
        "engine.wire.frames_per_session": wire_frames * per,
        "engine.wire.bytes_per_session": wire_bytes * per,
        "engine.wire.client_busy_us_per_session": wire_busy_us * per if wire_frames else 0.0,
        "engine.wire.wait_us_per_session":
            (wire_wall_s * 1e6 - wire_busy_us) * per if wire_frames else 0.0,
    }
