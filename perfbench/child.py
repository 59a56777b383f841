"""One workload run in a fresh interpreter; prints one JSON object.

Started by run.py, never by hand:

    python3 perfbench/child.py MODE WORKLOAD SEED SECONDS T0_NS WORKDIR [BATCH]

MODE is `setup` (start up and complete the first session), `measure`
(untraced end-to-end run) or `trace` (per-layer run). T0_NS is the
CLOCK_MONOTONIC reading taken just before this interpreter was started, so
that set-up time includes interpreter start and imports.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import magicert  # noqa: E402
import numpy  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    mode, name, seed, seconds, t0_ns, workdir, *rest = argv
    if Path(magicert.__file__).resolve().parent != ROOT / "src" / "magicert":
        print(f"magicert imported from {magicert.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name]
    if rest:
        wl = wl.scaled(int(rest[0]))
    run = workloads.runner(wl, int(seed), Path(workdir))
    if mode == "setup":
        run.setup()
        raw, scaled = workloads.setup_seconds(int(t0_ns))
        result = {"setup_raw_s": raw, "setup_s": scaled}
    elif mode == "measure":
        result = asdict(run.measure(float(seconds), int(t0_ns)))
    elif mode == "trace":
        result = asdict(run.trace(float(seconds)))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    result["numpy"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
