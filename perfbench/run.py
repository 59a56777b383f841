"""The magicert benchmark: end-to-end session throughput and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from anywhere inside a checkout; it builds nothing and uses the
checkout's own `src/`. Each run starts every workload in fresh child
interpreters (child.py), so set-up time and peak memory never leak between
runs. With --trace 0 it prints the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it runs the per-layer trace instead. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every correctness gate held, 1
when one failed, and 2 when the benchmark could not run at all.

--workload all runs every workload untraced and traced and prints each
result; --batch shrinks the sessions per batch for quick smoke runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# an untraced run splits --seconds over this many measuring children, as
# one interpreter can run several percent faster or slower than the next
MEASURE_CHILDREN = 3
# and samples set-up in each of them and in this many children that stop
# after their first session
SETUP_ONLY_CHILDREN = 4
# beyond --seconds, the slack a child gets for set-up, analysis and checks
CHILD_SLACK_S = 100
WORKDIR = ".perfbench_work"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "magicert" / "engine.py").is_file() or not spec_path.is_file():
        raise BenchError(f"{ROOT} holds no magicert checkout (src/magicert, BENCHMARK.json)")
    return json.loads(spec_path.read_text())


def run_child(mode: str, workload: str, seed: int, seconds: float, workdir: Path,
              batch: int | None) -> dict:
    """Start child.py in a new session and return its JSON; kills the whole
    process group, the magicert servers it started included, on any way out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    workdir.mkdir(parents=True, exist_ok=True)
    t0_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
           str(seconds), str(t0_ns), str(workdir)]
    if batch is not None:
        cmd.append(str(batch))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=seconds + CHILD_SLACK_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {workload} ran past its time limit")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited {proc.returncode}:\n{stderr}")
    return json.loads(stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} median={statistics.median(values):.6g}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} median={median:.6g} q3={q3:.6g}"


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path,
               batch: int | None) -> tuple[dict, dict]:
    """Set-up samples, then measuring children on the same seed, pooled."""
    samples = [run_child("setup", workload, seed, seconds, workdir / f"setup{i}", batch)
               for i in range(SETUP_ONLY_CHILDREN)]
    runs = [run_child("measure", workload, seed, seconds / MEASURE_CHILDREN,
                      workdir / f"measure{i}", batch)
            for i in range(MEASURE_CHILDREN)]
    notes = [r["notes"] for r in runs]
    samples += notes
    res = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
        "notes": notes[0],
        "numpy": runs[0]["numpy"],
    }
    if any(n["digests"] != notes[0]["digests"] for n in notes):
        res["errors"].append("digests differ between children run on the same seed")

    def pooled(key: str) -> list[float]:
        return [x for n in [*runs, *notes] for x in n.get(key, [])]

    setups = [s["setup_s"] for s in samples]
    metrics = {
        # harmonic means: all sessions (records) over all their timed seconds
        "sessions_per_s": statistics.harmonic_mean(pooled("rates")),
        "analyze_sessions_per_s": statistics.harmonic_mean(pooled("analyze_rates")),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(n["peak_rss_mb"] for n in notes),
    }
    print(f"  sessions_per_s: over batches of {notes[0]['sessions_per_batch']} sessions, "
          f"{spread(pooled('rates'))}; as timed {spread(pooled('raw_rates'))}")
    print(f"  analyze_sessions_per_s: over analyses, {spread(pooled('analyze_rates'))}; "
          f"as timed {spread(pooled('analyze_raw_rates'))}")
    print(f"  setup_s: median over fresh interpreters, {spread(setups)}; "
          f"as timed {spread([s['setup_raw_s'] for s in samples])}")
    print(f"  peak_rss_mb: largest of {len(notes)} children, "
          f"{notes[0]['sessions_per_batch']} sessions per batch")
    return res, metrics


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int,
                 batch: int | None) -> dict:
    workdir = ROOT / WORKDIR / f"{os.getpid()}-{workload}-{trace}"
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={trace} "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]}")
    try:
        if trace:
            res = run_child("trace", workload, seed, seconds, workdir, batch)
            metrics = res["metrics"]
            section = "per_layer"
        else:
            res, metrics = end_to_end(workload, seed, seconds, workdir, batch)
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left alone while another run uses it
            workdir.parent.rmdir()
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(metrics) != set(units):
        raise BenchError(f"measured {sorted(metrics)} but BENCHMARK.json names {sorted(units)}")
    print(f"  numpy={res['numpy']}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    ratio = res["failed"] / res["attempted"]
    print(f"  abort_ratio = {ratio:.6g} fraction ({res['failed']} of {res['attempted']})")
    for what, digest in res["notes"]["digests"].items():
        print(f"  digest sha256:{digest} ({what})")
    for error in res["errors"]:
        print(f"  GATE FAILED: {error}")
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batch", type=int, default=None,
                        help="sessions per batch instead of the workload's own (smoke runs)")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            results = {
                (name, trace): run_workload(spec, name, args.seed, args.seconds, trace,
                                            args.batch)
                for name in names for trace in (0, 1)
            }
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}/{metric}": value
                            for (name, _), r in results.items()
                            for metric, value in r["metrics"].items()},
            }
        elif args.workload in names:
            result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace,
                                  args.batch)
        else:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
