"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The smoke runs start the real benchmark at a tiny size (about two minutes in
all, most of it the wire workload's loopback stall).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from magicert import engine, entcf, util  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] in ("calls/session", "frames/session", "bytes/session", "count")]
TINY = "30"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke() -> dict:
    proc = bench("--workload", "all", "--seed", "5", "--seconds", "1", "--batch", TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return result_line(proc)


# ------------------------------------------------------------------ layout


def test_workloads_and_layers_match_the_spec():
    assert NAMES == list(workloads.WORKLOADS)
    layers = json.loads((BENCH / "spec.json").read_text())["layers"]
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]]
    assert set(json.loads((BENCH / "spec.json").read_text())["workloads"]) == set(NAMES)


def test_tracer_restores_every_wrapped_function():
    before = {(id(owner), attr): vars(owner)[attr]
              for sites in tracing.LAYERS.values() for owner, attr in sites}
    with tracing.Tracer() as tracer:
        engine.run_batch(entcf.SecurityParam(4), "honest", 3, 1)
        assert util.rng_from is not before[(id(util), "rng_from")]
    after = {(id(owner), attr): vars(owner)[attr]
             for sites in tracing.LAYERS.values() for owner, attr in sites}
    assert after == before
    assert tracer.calls["engine.run_session"] == 3


# ------------------------------------------------------------------- gates


def _honest_file(tmp_path: Path, n: int = 150) -> tuple[Path, engine.FlagStats]:
    path = tmp_path / "honest.jsonl"
    stats, _ = engine.run_batch(entcf.SecurityParam(4), "honest", n, 11, sink=path)
    return path, stats


def test_honest_file_passes_the_analysis_gate(tmp_path):
    path, stats = _honest_file(tmp_path)
    _, file_stats, report = workloads.analyze(path)
    assert workloads.analyze_gate(file_stats, stats, report, must_accept=True) == []
    assert workloads.honest_gate(stats) == []


def test_corrupted_transcript_trips_the_analysis_gate(tmp_path):
    path, stats = _honest_file(tmp_path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[0])
    record["flag"], record["accept"] = "fail_pre", False
    lines[0] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    _, file_stats, report = workloads.analyze(path)
    errors = workloads.analyze_gate(file_stats, stats, report, must_accept=True)
    assert any("flag counts" in e for e in errors)
    assert workloads.honest_gate(file_stats) != []


def test_corrupted_served_file_trips_the_wire_gate():
    verdicts = [{"accept": True, "flag": "none", "abort": None}] * 2
    reference = b'{"index": 0}\n{"index": 1}\n'
    assert workloads.wire_gate(verdicts, reference, reference, 2) == []
    assert workloads.wire_gate(verdicts, reference.replace(b"1", b"2"), reference, 2) != []
    rejected = [verdicts[0], {"accept": False, "flag": "fail_test", "abort": None}]
    assert workloads.wire_gate(rejected, reference, reference, 2) != []


def _hyper_stats(n: int, fails: int) -> engine.FlagStats:
    stats = engine.FlagStats()
    stats.cells[("hadamard", "hyper", "fail_hyper")] = fails
    stats.cells[("hadamard", "hyper", "none")] = n - fails
    return stats


def test_wrong_flag_count_trips_the_stabilizer_gate():
    n = 32_000
    assert workloads.stabilizer_gate(_hyper_stats(n, 3_000)) == []
    assert workloads.stabilizer_gate(_hyper_stats(n, 2_000)) != []
    assert workloads.stabilizer_gate(_hyper_stats(n, 4_000)) != []
    mixed = _hyper_stats(n, 3_000)
    mixed.cells[("preimage", "test", "none")] = 10
    assert workloads.stabilizer_gate(mixed) != []


def test_flag_counts_trip_the_honest_and_noisy_gates():
    flagged = engine.FlagStats()
    flagged.cells[("hadamard", "test", "fail_test")] = 1
    assert workloads.honest_gate(flagged) != []
    assert workloads.noisy_gate(flagged) == []
    clean = engine.FlagStats()
    clean.cells[("hadamard", "test", "none")] = 5
    assert workloads.noisy_gate(clean) != []
    clean.cells[("preimage", "test", "fail_pre")] = 1
    assert workloads.noisy_gate(clean) != []


# ------------------------------------------------------------------- runs


def test_smoke_run_of_every_workload(smoke):
    assert smoke["correct"] is True
    assert smoke["failed"] == 0
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for name in NAMES:
        for metric in e2e:
            assert smoke["metrics"][f"{name}/{metric}"]["value"] > 0, (name, metric)
        for metric in per_layer:
            assert f"{name}/{metric}" in smoke["metrics"]
        assert smoke["metrics"][f"{name}/util.rng_from.calls_per_session"]["value"] > 0
    assert smoke["metrics"]["wire-loopback-l8/engine.wire.frames_per_session"]["value"] > 0
    assert smoke["metrics"]["noisy-depol-l16/qsim.depolarize.calls_per_session"]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_count_metrics_repeat_for_a_seed(smoke, name):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1",
                 "--batch", TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    again = result_line(proc)["metrics"]
    for metric in COUNTS:
        assert again[metric]["value"] == smoke["metrics"][f"{name}/{metric}"]["value"], metric


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
