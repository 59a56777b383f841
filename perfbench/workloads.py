"""The benchmark's four workloads: session loops, analysis and correctness gates.

Every workload is a closed loop with one client: the next session starts
only when the previous one has ended. In-process workloads call
engine.run_batch in fixed-size batches; the wire workload runs fixed-size
rounds, each a `magicert serve` child serving many sessions over a single
TCP connection to engine.connect in this process. Fixed sizes keep peak
memory, digests and trace counts independent of how fast the program is.

All inputs derive from the benchmark seed: batch k of a run uses master
seed derive_seed(seed, 1, k), so the same seed replays the same sessions.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from magicert import analysis, engine, entcf
from magicert.util import derive_seed
from magicert.verifier import RoundType

from speed import REF_SPEED, Speedometer, loop_speed
from tracing import Tracer, layer_metrics

# the `magicert analyze` defaults
ESTIMATION = analysis.EstimationParams(1.0 / 6.0, 1e-10)

# a magicless device fails a conditioned hypergraph round with this rate
HYPER_FAIL_RATE = 3.0 / 32.0
HYPER_DELTA = 1e-6

_SETUP_LANE, _BATCH_LANE, _ANALYSIS_LANE = 0, 1, 2

# after each wire round the served file is analysed this many times, each
# timing enough repeats to read about ANALYSIS_UNIT records
WIRE_ANALYSES_PER_ROUND, ANALYSIS_UNIT = 5, 1000
# certify needs every round kind; with this many sessions a missing one has
# probability below 1e-5 (hypergraph rounds are 1 in 10)
MIN_ANALYSIS_SESSIONS = 120
SERVER_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    lam: int
    prover: str
    batch: int                    # sessions per run_batch call, or per connection
    analysis_sessions: int = 0    # sessions in the analysed file (in-process)
    trace_sessions: int = 0       # sessions in the traced phase (in-process)
    parallelism: int = 1
    hyper_only: bool = False      # pin theta=111 and the Hadamard round
    writes: bool = False          # the session loop writes a transcript file
    wire: bool = False

    @property
    def pins(self) -> dict:
        if not self.hyper_only:
            return {}
        return {"theta": (1, 1, 1), "round": RoundType.HADAMARD}

    def scaled(self, sessions: int) -> "Workload":
        """The same workload with every size set to `sessions`, for smoke runs."""
        return replace(self, batch=sessions, trace_sessions=sessions,
                       analysis_sessions=max(sessions, MIN_ANALYSIS_SESSIONS))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("honest-l16-out", lam=16, prover="honest", batch=300,
                 analysis_sessions=2000, trace_sessions=1000, writes=True),
        Workload("stabilizer-hyper-l4-p2", lam=4, prover="stabilizer", batch=1000,
                 analysis_sessions=1000, trace_sessions=1000, parallelism=2,
                 hyper_only=True),
        Workload("noisy-depol-l16", lam=16, prover="noisy:depol:0.05", batch=150,
                 analysis_sessions=1000, trace_sessions=1000),
        Workload("wire-loopback-l8", lam=8, prover="honest", batch=40, wire=True),
    )
}


def batch_seed(seed: int, k: int) -> int:
    return derive_seed(seed, _BATCH_LANE, k)


def now_ns() -> int:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def setup_seconds(t0_ns: int) -> tuple[float, float]:
    """Seconds since t0_ns, as timed and at the reference speed (speed.py),
    the speed read right after the timed set-up."""
    raw = (now_ns() - t0_ns) / 1e9
    return raw, raw * loop_speed() / REF_SPEED


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stats_digest(stats: engine.FlagStats) -> str:
    text = json.dumps(stats.as_dict(), sort_keys=True, separators=(",", ":"))
    return sha256_hex(text.encode())


# ------------------------------------------------------------------- gates


def honest_gate(stats: engine.FlagStats) -> list[str]:
    errors = []
    if stats.n_aborted:
        errors.append(f"{stats.n_aborted} honest sessions aborted")
    flags = stats.n_fail_pre + stats.n_fail_test + stats.n_fail_hyper
    if flags:
        errors.append(f"{flags} flags raised against the honest prover")
    return errors


def stabilizer_gate(stats: engine.FlagStats) -> list[str]:
    """Every session is a hypergraph round and fails at rate 3/32, within
    the two-sided Hoeffding radius at delta 1e-6."""
    n = stats.n_sessions
    if n == 0:
        return ["no sessions"]
    errors = []
    if stats.n_hyper_hadamard != n:
        errors.append(f"{stats.n_hyper_hadamard} of {n} sessions were hypergraph rounds")
    rate = stats.n_fail_hyper / n
    radius = math.sqrt(math.log(2.0 / HYPER_DELTA) / (2.0 * n))
    if abs(rate - HYPER_FAIL_RATE) > radius:
        errors.append(f"hypergraph flag rate {rate:.5f} is more than {radius:.5f} "
                      f"from 3/32 over {n} sessions")
    return errors


def noisy_gate(stats: engine.FlagStats) -> list[str]:
    errors = []
    if stats.n_fail_pre:
        errors.append(f"{stats.n_fail_pre} preimage flags; depolarizing noise "
                      "must not touch preimage rounds")
    if stats.n_fail_test + stats.n_fail_hyper == 0:
        errors.append("no Hadamard flags raised under depolarizing noise")
    return errors


STATS_GATES = {
    "honest-l16-out": honest_gate,
    "stabilizer-hyper-l4-p2": stabilizer_gate,
    "noisy-depol-l16": noisy_gate,
}


def wire_gate(verdicts: list[dict], served: bytes, reference: bytes, sessions: int) -> list[str]:
    """All sessions accepted, and the server wrote exactly the in-process bytes."""
    errors = []
    if len(verdicts) != sessions:
        errors.append(f"{len(verdicts)} verdicts for {sessions} sessions")
    refused = sum(1 for v in verdicts if not v.get("accept"))
    if refused:
        errors.append(f"{refused} wire sessions not accepted")
    if served != reference:
        errors.append("served transcript file differs from write_transcripts of run_batch")
    return errors


def analyze_gate(file_stats: engine.FlagStats, expected: engine.FlagStats,
                 report: analysis.CertificationReport, must_accept: bool) -> list[str]:
    errors = []
    if file_stats.as_dict() != expected.as_dict():
        errors.append("analysed transcript file does not reproduce the run's flag counts")
    if must_accept and not report.accept:
        errors.append(f"analyze rejected (t_est {report.t_est:.4f})")
    return errors


# ---------------------------------------------------------------- analysis


def analyze(path: Path) -> tuple[int, engine.FlagStats, analysis.CertificationReport]:
    """What `magicert analyze` does: read, count flags, certify."""
    transcripts = engine.read_transcripts(path)
    stats = engine.FlagStats.from_transcripts(transcripts)
    return len(transcripts), stats, analysis.certify(stats, ESTIMATION)


# -------------------------------------------------------------------- runs


@dataclass
class Outcome:
    """What one child run measured and checked.

    rates are the per-batch session rates the run reports; raw_rates the
    same batches as timed. They differ where the rate is reported at the
    reference speed (see speed.py).
    """

    rates: list[float] = field(default_factory=list)
    raw_rates: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def count(self, stats: engine.FlagStats) -> None:
        self.attempted += stats.n_sessions
        self.failed += stats.n_aborted

    def timed_analysis(self, path: Path, speed: Speedometer, repeat: int = 1):
        """`repeat` analyses of `path` timed as one; the rate is kept as timed
        and scaled."""
        def work():
            return [analyze(path) for _ in range(repeat)][-1]

        (records, stats, report), elapsed, factor = speed.timed(work)
        rate = records * repeat / elapsed
        self.notes.setdefault("analyze_raw_rates", []).append(rate)
        self.notes.setdefault("analyze_rates", []).append(rate * factor)
        return stats, report


def _absorb(total: engine.FlagStats, part: engine.FlagStats) -> None:
    total.cells.update(part.cells)
    total.n_aborted += part.n_aborted


class InProcess:
    """honest / stabilizer / noisy: engine.run_batch in this process."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.sp = entcf.SecurityParam(wl.lam)

    def batch(self, n: int, seed: int, parallelism: int, sink=None) -> engine.FlagStats:
        stats, _ = engine.run_batch(self.sp, self.wl.prover, n, seed, parallelism,
                                    sink=sink, **self.wl.pins)
        return stats

    def sink(self, name: str) -> Path | None:
        return self.workdir / name if self.wl.writes else None

    def setup(self) -> None:
        """The first completed sessions, one per worker."""
        p = self.wl.parallelism
        self.batch(p, derive_seed(self.seed, _SETUP_LANE), p, self.sink("setup.jsonl"))

    def write_analysis_file(self) -> tuple[Path, engine.FlagStats]:
        """A transcript file of the workload's prover, written outside every
        timed region. Its rounds are not pinned: certify needs all three kinds."""
        path = self.workdir / "analysis.jsonl"
        stats, _ = engine.run_batch(self.sp, self.wl.prover, self.wl.analysis_sessions,
                                    derive_seed(self.seed, _ANALYSIS_LANE), 1, sink=path)
        return path, stats

    def loop(self, out: Outcome, seconds: float, parallelism: int, merged: engine.FlagStats,
             timed, between=None) -> engine.FlagStats:
        """Whole batches until `seconds` have passed; returns batch 0's stats.

        timed (a Speedometer's) runs and times each batch; between, if given,
        runs after each batch.
        """
        k, sink = 0, self.sink("batch.jsonl")
        start = time.perf_counter()
        while k == 0 or time.perf_counter() - start < seconds:
            stats, elapsed, factor = timed(
                lambda: self.batch(self.wl.batch, batch_seed(self.seed, k), parallelism, sink))
            out.raw_rates.append(self.wl.batch / elapsed)
            out.rates.append(out.raw_rates[-1] * factor)
            if k == 0:
                first = stats
            _absorb(merged, stats)
            out.count(stats)
            if between is not None:
                between()
            k += 1
        return first

    def digests(self, analysis_path: Path, first: engine.FlagStats) -> dict[str, str]:
        return {
            f"analysed transcript file, {self.wl.analysis_sessions} unpinned sessions":
                sha256_hex(analysis_path.read_bytes()),
            f"batch 0 FlagStats.as_dict(), {self.wl.batch} sessions": stats_digest(first),
        }

    def measure(self, seconds: float, t0_ns: int) -> Outcome:
        """Batches for `seconds`, each followed by one analysis of the file,
        so that both rates are sampled over the same stretch of time."""
        out = Outcome()
        self.setup()
        out.notes["setup_raw_s"], out.notes["setup_s"] = setup_seconds(t0_ns)
        path, expected = self.write_analysis_file()
        merged = engine.FlagStats()
        with Speedometer(self.wl.parallelism) as speed, Speedometer() as one_core:
            first = self.loop(out, seconds, self.wl.parallelism, merged, speed.timed,
                              between=lambda: out.timed_analysis(path, one_core))
            stats, report = out.timed_analysis(path, one_core)
        out.errors += STATS_GATES[self.wl.name](merged)
        out.errors += analyze_gate(stats, expected, report, must_accept=self.wl.writes)
        out.notes["digests"] = self.digests(path, first)
        out.notes["sessions_per_batch"] = self.wl.batch
        out.notes["peak_rss_mb"] = peak_rss_mb()
        return out

    def trace(self, seconds: float) -> Outcome:
        out = Outcome()
        self.setup()
        path, expected = self.write_analysis_file()
        merged = engine.FlagStats()
        p, wide = self.wl.parallelism, []
        if p > 1:
            with Speedometer(p) as speed:
                self.loop(out, seconds / 3, p, merged, speed.timed)
            wide, out.rates = out.rates, []
        with Speedometer() as one_core:
            self.loop(out, seconds / (3 if p > 1 else 2), 1, merged, one_core.timed)
            untraced = statistics.harmonic_mean(out.rates)
            # the traced sessions are fixed by the seed and run at parallelism
            # 1, so their counts repeat exactly
            sink = self.sink("trace.jsonl")
            with Tracer() as tracer:
                stats, elapsed, factor = one_core.timed(lambda: self.batch(
                    self.wl.trace_sessions, batch_seed(self.seed, 0), 1, sink))
                records, file_stats, report = analyze(path)
            traced_rate = self.wl.trace_sessions / elapsed * factor
        _absorb(merged, stats)
        out.count(stats)
        out.errors += STATS_GATES[self.wl.name](merged)
        out.errors += analyze_gate(file_stats, expected, report, must_accept=self.wl.writes)

        out.metrics = layer_metrics(
            tracer, self.wl.trace_sessions, records_read=records,
            transcript_bytes=sink.stat().st_size if sink is not None else 0,
        )
        # rates at the reference speed, so that drift between the phases
        # cancels; the traced p=1 rate carries the tracing overhead, so the
        # p=2 rate is held against the untraced p=1 rate
        out.metrics["engine.batch.scaling_efficiency"] = (
            statistics.harmonic_mean(wide) / (p * untraced) if wide else 0.0
        )
        out.metrics["trace_overhead_ratio"] = traced_rate / untraced
        out.notes["digests"] = self.digests(path, stats)
        return out


class Server:
    """`python -m magicert.cli serve` in a child interpreter, one connection."""

    def __init__(self, wl: Workload, sessions: int, seed: int, out: Path):
        cmd = [sys.executable, "-m", "magicert.cli", "serve",
               "--listen", "127.0.0.1:0", "--lambda", str(wl.lam),
               "--sessions", str(sessions), "--seed", str(seed), "--out", str(out)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        line = self.proc.stderr.readline()
        match = re.search(r"listening on port (\d+)", line)
        if match is None:
            self.kill()
            raise RuntimeError(f"magicert serve did not start: {line.strip()!r}")
        self.endpoint = f"127.0.0.1:{match.group(1)}"

    def finish(self) -> None:
        _, stderr = self.proc.communicate(timeout=SERVER_TIMEOUT_S)
        if self.proc.returncode != 0:
            raise RuntimeError(f"magicert serve exited {self.proc.returncode}: "
                               f"{stderr.strip()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()


class Wire:
    """wire-loopback-l8: rounds of many sessions over one connection each.

    Its rate is reported as timed, not at the reference speed: at this
    commit a session mostly waits on the loopback stall, which machine speed
    does not move.
    """

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl, self.seed, self.workdir = wl, seed, workdir
        self.sp = entcf.SecurityParam(wl.lam)
        self.expected = engine.FlagStats()
        self.paths: list[Path] = []

    def setup(self) -> None:
        seed = derive_seed(self.seed, _SETUP_LANE)
        with Server(self.wl, 1, seed, self.workdir / "setup.jsonl") as server:
            engine.connect(server.endpoint, self.wl.prover, seed)
            server.finish()

    def round(self, out: Outcome, k: int, tracer=None) -> float:
        """One connection of `batch` sessions; returns engine.connect's seconds."""
        seed = batch_seed(self.seed, k)
        path = self.workdir / f"round{k}.jsonl"
        with Server(self.wl, self.wl.batch, seed, path) as server:
            if tracer is not None:
                tracer.install()
            try:
                t = time.perf_counter()
                verdicts = engine.connect(server.endpoint, self.wl.prover, seed)
                elapsed = time.perf_counter() - t
            finally:
                if tracer is not None:
                    tracer.close()
            server.finish()
        # the in-process reference is built outside the timed region
        stats, transcripts = engine.run_batch(self.sp, self.wl.prover, self.wl.batch, seed,
                                              collect=True)
        buf = io.StringIO()
        engine.write_transcripts(buf, transcripts)
        out.errors += wire_gate(verdicts, path.read_bytes(), buf.getvalue().encode(),
                                self.wl.batch)
        out.attempted += len(verdicts)
        out.failed += sum(1 for v in verdicts if v.get("abort"))
        _absorb(self.expected, stats)
        self.paths.append(path)
        return elapsed

    def rounds(self, out: Outcome, seconds: float, ks, between=None) -> None:
        """Rounds k in ks until `seconds` have passed and the served files
        together hold enough sessions to analyse; between, if given, runs
        after each round once they do."""
        start = time.perf_counter()
        for k in ks:
            out.raw_rates.append(self.wl.batch / self.round(out, k))
            enough = len(self.paths) * self.wl.batch >= MIN_ANALYSIS_SESSIONS
            if enough and between is not None:
                between()
            if enough and time.perf_counter() - start >= seconds:
                return

    def served(self) -> Path:
        """Every served round in one file."""
        target = self.workdir / "served.jsonl"
        target.write_bytes(b"".join(p.read_bytes() for p in self.paths))
        return target

    def digests(self) -> dict[str, str]:
        return {f"round 0 served transcript file, {self.wl.batch} sessions":
                sha256_hex((self.workdir / "round0.jsonl").read_bytes())}

    def measure(self, seconds: float, t0_ns: int) -> Outcome:
        out = Outcome()
        self.setup()
        out.notes["setup_raw_s"], out.notes["setup_s"] = setup_seconds(t0_ns)
        with Speedometer() as one_core:
            def analyses() -> None:
                path = self.served()
                repeat = -(-ANALYSIS_UNIT // (len(self.paths) * self.wl.batch))
                for _ in range(WIRE_ANALYSES_PER_ROUND):
                    out.timed_analysis(path, one_core, repeat)

            self.rounds(out, seconds, itertools.count(), analyses)
            stats, report = out.timed_analysis(self.served(), one_core)
        out.rates = out.raw_rates
        out.errors += analyze_gate(stats, self.expected, report, must_accept=True)
        out.notes["digests"] = self.digests()
        out.notes["sessions_per_batch"] = self.wl.batch
        out.notes["peak_rss_mb"] = peak_rss_mb()
        return out

    def trace(self, seconds: float) -> Outcome:
        out = Outcome()
        self.setup()
        # untraced rounds first, then round 0 with the tracer on
        self.rounds(out, seconds / 2, itertools.count(1))
        tracer = Tracer()
        elapsed = self.round(out, 0, tracer)
        with tracer:
            records, stats, report = analyze(self.served())
        out.errors += analyze_gate(stats, self.expected, report, must_accept=True)
        out.metrics = layer_metrics(
            tracer, self.wl.batch, wire_wall_s=elapsed, records_read=records,
            transcript_bytes=(self.workdir / "round0.jsonl").stat().st_size,
        )
        out.metrics["engine.batch.scaling_efficiency"] = 0.0
        out.metrics["trace_overhead_ratio"] = (
            self.wl.batch / elapsed / statistics.harmonic_mean(out.raw_rates)
        )
        out.notes["digests"] = self.digests()
        return out


def runner(wl: Workload, seed: int, workdir: Path) -> InProcess | Wire:
    return (Wire if wl.wire else InProcess)(wl, seed, workdir)
