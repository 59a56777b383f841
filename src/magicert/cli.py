"""Command-line front end: batch runs, certification, demos, wire mode.

Exit codes follow one convention everywhere: 0 for success or an accept
verdict, 1 for a reject verdict or a failed demonstration, 2 for any
configuration, I/O, or transport error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import analysis, engine, entcf, qsim
from .errors import MagicertError

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0,
                      help="master seed; serve and connect must be given the same one "
                           "(default 0)")
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("--sessions", type=int, default=100,
                       help="number of sessions (default 100)")
    batch.add_argument("--lambda", dest="lam", type=int, default=8,
                       help="security parameter (default 8)")
    batch.add_argument("--out", default=None, help="transcript output path (jsonl)")
    prover = argparse.ArgumentParser(add_help=False)
    prover.add_argument("--prover", default="honest",
                        help="honest | stabilizer | noisy:<model>:<p> | scripted:<path> "
                             "(default honest)")

    parser = argparse.ArgumentParser(
        prog="magicert",
        description="Run, certify, and demonstrate the claw-based magic test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[batch, prover, seed],
                         help="run a batch of protocol sessions")
    run.add_argument("--parallelism", type=int, default=1,
                     help="must be at least 1; kept for a later fan-out of chunks, it "
                          "starts no process: every batch runs here, chunk by chunk "
                          "(default 1)")
    run.set_defaults(func=cmd_run)

    an = sub.add_parser("analyze", help="certify a transcript file")
    an.add_argument("transcripts", help="transcript file written by run/serve")
    an.add_argument("--epsilon", type=float, default=1.0 / 6.0,
                    help="estimate precision (default 1/6)")
    an.add_argument("--delta", type=float, default=1e-10,
                    help="per-estimate failure probability (default 1e-10)")
    an.add_argument("--c", type=float, default=1.0,
                    help="soundness scale constant (default 1)")
    an.add_argument("--r", type=float, default=1.0,
                    help="soundness exponent constant (default 1)")
    an.add_argument("--negl", type=float, default=0.0,
                    help="additive slack term (default 0)")
    an.set_defaults(func=cmd_analyze)

    demo = sub.add_parser("demo", help="run a built-in demonstration")
    demo.add_argument("name", choices=_DEMOS)
    demo.set_defaults(func=cmd_demo)

    ss = sub.add_parser("samplesize", help="sessions needed for a target estimate")
    ss.add_argument("--epsilon", type=float, required=True, help="estimate precision")
    ss.add_argument("--delta", type=float, required=True,
                    help="per-estimate failure probability")
    ss.set_defaults(func=cmd_samplesize)

    serve = sub.add_parser("serve", parents=[batch, seed],
                           help="host the verifier side over a socket")
    serve.add_argument("--listen", default="127.0.0.1:0",
                       help="stdio or host:port (default 127.0.0.1:0)")
    serve.set_defaults(func=cmd_serve)

    conn = sub.add_parser("connect", parents=[prover, seed],
                          help="run the prover side against a server")
    conn.add_argument("--addr", required=True, help="stdio or host:port")
    conn.set_defaults(func=cmd_connect)

    return parser


# ---------------------------------------------------------------- commands


def cmd_run(args) -> int:
    sp = entcf.SecurityParam(args.lam)
    stats, _ = engine.run_batch(sp, args.prover, args.sessions, args.seed,
                                args.parallelism, sink=args.out)
    print(json.dumps(stats.as_dict(), indent=2))
    if args.out is not None:
        print(f"wrote {stats.n_sessions} transcripts to {args.out}", file=sys.stderr)
    return EXIT_ACCEPT


def cmd_analyze(args) -> int:
    stats = engine.FlagStats.from_transcripts(engine.iter_transcripts(args.transcripts))
    report = analysis.certify(
        stats,
        analysis.EstimationParams(args.epsilon, args.delta),
        analysis.SoundnessParams(c=args.c, r=args.r, negl=args.negl),
    )
    print(analysis.render_report(report), end="")
    return EXIT_ACCEPT if report.accept else EXIT_REJECT


def _demo_magic_impossibility() -> tuple[str | None, str]:
    rep = qsim.magic_impossibility_demo()
    print("computational-basis statistics (phase +pi/4 vs -pi/4 on |+>):")
    print(qsim.distribution_table(np.array(rep.z_dist_a), 1))
    print(qsim.distribution_table(np.array(rep.z_dist_b), 1))
    print("conjugate-basis statistics:")
    print(qsim.distribution_table(np.array(rep.x_dist_a), 1))
    print(qsim.distribution_table(np.array(rep.x_dist_b), 1))
    gap = max(rep.z_gap, rep.x_gap)
    print(f"largest statistics gap: {gap:.3e}")
    print(f"fidelity between the two states: {rep.fidelity:.12f}")
    why = ("basis statistics unexpectedly distinguish the two states" if gap > qsim.ATOL_EXACT
           else "the two states should differ" if rep.fidelity >= 1.0 - qsim.ATOL_EXACT
           else None)
    return (None if why is None else f"demonstration failed: {why}",
            "identical statistics, different states: basis readings alone "
            "cannot certify which one was prepared")


def _demo_stabilizer_fidelity() -> tuple[str | None, str]:
    states = qsim.enumerate_stabilizer_states(3)
    ok = True
    for s1, s2, s3 in itertools.product((0, 1), repeat=3):
        target = qsim.target_state(s1, s2, s3)
        best = max(qsim.fidelity(st, target) for st in states)
        dist = math.sqrt(1.0 - best)
        good = abs(best - analysis.MAGIC_FIDELITY_BOUND) <= 1e-9 and dist >= 0.5
        ok = ok and good
        print(f"s={s1}{s2}{s3}  max fidelity {best:.12f}  "
              f"trace distance >= {dist:.12f}  over {len(states)} states"
              f"{'' if good else '  MISMATCH'}")
    return (None if ok else "stabilizer bound violated",
            "no stabilizer state clears 9/16; the bound is tight for all 8 targets")


def _demo_stabilizer_check() -> tuple[str | None, str]:
    o1, o2, o3 = qsim.theorem_observables()
    ok = True
    for s1, s2, s3 in itertools.product((0, 1), repeat=3):
        target = qsim.target_state(s1, s2, s3)
        exps = [
            qsim.expectation(target, ob)
            for ob in qsim.generalized_stabilizers(s1, s2, s3)
        ]
        exp_dev = max(abs(e - 1.0) for e in exps)
        product = (
            qsim.eigenspace_projector(o3, s1)
            @ qsim.eigenspace_projector(o2, s2)
            @ qsim.eigenspace_projector(o1, s3)
        )
        proj_dev = float(
            np.max(np.abs(product - np.outer(target.amps, target.amps.conj())))
        )
        good = exp_dev <= qsim.ATOL_EXACT and proj_dev <= qsim.ATOL_EXACT
        ok = ok and good
        status = "ok" if good else "MISMATCH"
        print(f"s={s1}{s2}{s3}  stabilizer expectations {status} "
              f"(max dev {exp_dev:.2e})  projector identity {status} "
              f"(max dev {proj_dev:.2e})")
    return None if ok else "identity check failed", "all 8 phase choices ok"


# each demo prints its rows and returns (failure text or None, conclusion)
_DEMOS = {
    "magic-impossibility": _demo_magic_impossibility,
    "stabilizer-fidelity": _demo_stabilizer_fidelity,
    "stabilizer-check": _demo_stabilizer_check,
}


def cmd_demo(args) -> int:
    failure, conclusion = _DEMOS[args.name]()
    if failure is not None:
        print(failure, file=sys.stderr)
        return EXIT_REJECT
    print(conclusion)
    return EXIT_ACCEPT


def cmd_samplesize(args) -> int:
    n = analysis.sample_size(analysis.EstimationParams(args.epsilon, args.delta))
    print(n)
    return EXIT_ACCEPT


def cmd_serve(args) -> int:
    sp = entcf.SecurityParam(args.lam)

    def announce(port: int) -> None:
        print(f"listening on port {port}", file=sys.stderr, flush=True)

    stats, _ = engine.serve(sp, args.listen, args.seed, args.sessions,
                            sink=args.out, on_listen=announce)
    out = sys.stderr if args.listen == "stdio" else sys.stdout  # stdio: stdout is the wire
    print(json.dumps(stats.as_dict(), indent=2), file=out)
    return EXIT_ACCEPT


def cmd_connect(args) -> int:
    verdicts = engine.connect(args.addr, args.prover, args.seed)
    out = sys.stderr if args.addr == "stdio" else sys.stdout  # stdio: stdout is the wire
    for index, verdict in enumerate(verdicts):
        if verdict.get("abort") is not None:
            # the text is the peer's: escaped, so no control byte reaches the terminal
            line = f"session {index}: abort ({ascii(verdict['abort'])})"
        elif verdict.get("accept"):
            line = f"session {index}: accept"
        else:
            line = f"session {index}: reject (flag={verdict.get('flag')})"
        print(line, file=out)
    print(f"{sum(1 for v in verdicts if v.get('accept'))}/{len(verdicts)} accepted", file=out)
    return EXIT_ACCEPT


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (MagicertError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
