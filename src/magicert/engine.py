"""Session orchestration: end-to-end runs, wire transport, transcripts, stats.

A session couples one verifier state machine with one prover strategy. The
batch runner executes many sessions with per-index seed derivation so that
results never depend on scheduling. The wire mode splits the two parties
across a newline-delimited message stream; the key oracle is rebuilt on the
prover side from the shared master seed (trusted setup), so wire transcripts
reproduce in-process transcripts bit for bit.
"""

from __future__ import annotations

import json
import socket
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from . import entcf, verifier
from .errors import (
    AnswerError,
    MalformedAnswerError,
    ParameterError,
    ProtocolOrderError,
    TranscriptParseError,
    TransportError,
)
from .provers import parse_prover_spec
from .util import _rekeyed, bits_str, derive_seed, parse_bits
from .util import rng_from  # noqa: F401  (kept importable here; perfbench/tracing.py wraps it)
from .verifier import Flag, RoundType

WIRE_VERSION = 1
MESSAGE_KINDS = (
    "KEYS",
    "COMMIT",
    "ROUND",
    "PREIMAGES",
    "HADAMARD_D",
    "QUESTIONS",
    "ANSWERS",
    "VERDICT",
)

_VERIFIER_LANE = 0
_PROVER_LANE = 1


# --------------------------------------------------------------------- wire


@dataclass(frozen=True)
class Message:
    """One wire frame: schema version, session id, sequence number, payload."""

    sid: int
    seq: int
    kind: str
    payload: dict
    v: int = WIRE_VERSION

    def encode(self) -> bytes:
        body = {"kind": self.kind, "payload": self.payload, "seq": self.seq,
                "sid": str(self.sid), "v": self.v}
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"

    @staticmethod
    def decode(line: bytes | str) -> "Message":
        try:
            body = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise TransportError(f"undecodable frame: {exc}") from exc
        if not isinstance(body, dict):
            raise TransportError("frame is not an object")
        try:
            v = body["v"]
            sid = int(body["sid"])
            seq = body["seq"]
            kind = body["kind"]
            payload = body["payload"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"frame lacks required fields: {exc}") from exc
        if v != WIRE_VERSION:
            raise TransportError(f"unsupported wire version {v!r}")
        if kind not in MESSAGE_KINDS:
            raise TransportError(f"unknown message kind {kind!r}")
        if not isinstance(seq, int) or seq < 0 or not isinstance(payload, dict):
            raise TransportError("malformed seq or payload")
        return Message(sid=sid, seq=seq, kind=kind, payload=payload)


def _send(wfile, msg: Message) -> None:
    try:
        wfile.write(msg.encode())
        wfile.flush()
    except OSError as exc:
        raise TransportError(f"connection lost while sending: {exc}") from exc


def _recv(rfile) -> Message | None:
    try:
        line = rfile.readline()
    except OSError as exc:
        raise TransportError(f"connection lost while reading: {exc}") from exc
    if not line:
        return None
    return Message.decode(line)


def _expect(rfile, sid: int, seq: int, kind: str) -> Message:
    msg = _recv(rfile)
    if msg is None:
        raise TransportError(f"connection closed while waiting for {kind}")
    if msg.kind != kind:
        raise TransportError(f"expected {kind}, got {msg.kind}")
    if msg.sid != sid or msg.seq != seq:
        raise TransportError(
            f"frame out of order: sid {msg.sid}/{sid}, seq {msg.seq}/{seq}"
        )
    return msg


# --------------------------------------------------------------- transcript


@dataclass(frozen=True)
class SessionTranscript:
    """Everything one session produced, in replayable form."""

    index: int
    seed: int
    lam: int
    theta: tuple[int, int, int]
    keys: tuple[dict, ...]
    ys: tuple[int, ...] | None
    round: str | None
    test_index: int | None
    preimages: tuple[tuple[int, int], ...] | None
    ds: tuple[int, ...] | None
    q: tuple[int, int, int] | None
    vs: tuple[int, ...] | None
    flag: str | None
    accept: bool
    abort: str | None

    @property
    def w(self) -> int:
        return entcf.SecurityParam(self.lam).w

    def to_record(self) -> dict:
        w = self.w
        return {
            "index": self.index,
            "seed": str(self.seed),
            "lam": self.lam,
            "theta": "".join(map(str, self.theta)),
            "keys": list(self.keys),
            "ys": None if self.ys is None else [bits_str(y, w + 1) for y in self.ys],
            "round": self.round,
            "test_index": self.test_index,
            "preimages": None if self.preimages is None
            else [[str(b), bits_str(x, w)] for b, x in self.preimages],
            "ds": None if self.ds is None else [bits_str(d, w) for d in self.ds],
            "q": None if self.q is None else "".join(map(str, self.q)),
            "vs": None if self.vs is None else "".join(map(str, self.vs)),
            "flag": self.flag,
            "accept": self.accept,
            "abort": self.abort,
        }

    @staticmethod
    def from_record(rec: dict) -> "SessionTranscript":
        try:
            theta = tuple(int(ch) for ch in rec["theta"])
            ys = rec["ys"]
            preimages = rec["preimages"]
            ds = rec["ds"]
            return SessionTranscript(
                index=int(rec["index"]),
                seed=int(rec["seed"]),
                lam=int(rec["lam"]),
                theta=theta,
                keys=tuple(rec["keys"]),
                ys=None if ys is None else tuple(parse_bits(s)[0] for s in ys),
                round=rec["round"],
                test_index=rec["test_index"],
                preimages=None if preimages is None
                else tuple((int(b), parse_bits(x)[0]) for b, x in preimages),
                ds=None if ds is None else tuple(parse_bits(s)[0] for s in ds),
                q=None if rec["q"] is None else tuple(int(ch) for ch in rec["q"]),
                vs=None if rec["vs"] is None else tuple(int(ch) for ch in rec["vs"]),
                flag=rec["flag"],
                accept=bool(rec["accept"]),
                abort=rec["abort"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TranscriptParseError(f"bad transcript record: {exc}") from exc


def write_transcripts(sink, transcripts) -> None:
    """One self-describing record per line; sink is a path or a text file."""
    if hasattr(sink, "write"):
        for t in transcripts:
            sink.write(json.dumps(t.to_record(), sort_keys=True) + "\n")
        return
    with open(sink, "w", encoding="utf-8") as fh:
        write_transcripts(fh, transcripts)


def read_transcripts(source) -> list[SessionTranscript]:
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            out.append(SessionTranscript.from_record(rec))
        except (json.JSONDecodeError, TranscriptParseError) as exc:
            raise TranscriptParseError(f"line {lineno}: {exc}") from exc
    return out


# -------------------------------------------------------------------- stats


@dataclass
class FlagStats:
    """Session counters keyed by (round, basis class, flag outcome).

    The three conditional rates of interest divide flag counts by the exact
    denominators: preimage rounds, Hadamard rounds in the test case, and
    Hadamard rounds in the hypergraph case. Aborted sessions are counted
    separately and enter no denominator.
    """

    cells: Counter = field(default_factory=Counter)
    n_aborted: int = 0

    def add(self, t: SessionTranscript) -> None:
        if t.abort is not None:
            self.n_aborted += 1
            return
        cls = verifier.theta_class(t.theta)
        self.cells[(t.round, cls, t.flag)] += 1

    def merge(self, other: "FlagStats") -> "FlagStats":
        merged = FlagStats(cells=self.cells + other.cells,
                           n_aborted=self.n_aborted + other.n_aborted)
        return merged

    @classmethod
    def from_transcripts(cls, transcripts) -> "FlagStats":
        stats = cls()
        for t in transcripts:
            stats.add(t)
        return stats

    # ------------------------------------------------------------ counts

    def _total(self, round=None, cls=None, flag="any") -> int:
        return sum(
            n for (r, c, f), n in self.cells.items()
            if (round is None or r == round)
            and (cls is None or c == cls)
            and (flag == "any" or f == flag)
        )

    @property
    def n_sessions(self) -> int:
        return self._total() + self.n_aborted

    @property
    def n_preimage(self) -> int:
        return self._total(round="preimage")

    @property
    def n_test_hadamard(self) -> int:
        return self._total(round="hadamard", cls="test")

    @property
    def n_hyper_hadamard(self) -> int:
        return self._total(round="hadamard", cls="hyper")

    @property
    def n_fail_pre(self) -> int:
        return self._total(flag=Flag.FAIL_PRE.value)

    @property
    def n_fail_test(self) -> int:
        return self._total(flag=Flag.FAIL_TEST.value)

    @property
    def n_fail_hyper(self) -> int:
        return self._total(flag=Flag.FAIL_HYPER.value)

    @property
    def n_rejected(self) -> int:
        return self._total(flag=Flag.FAIL_PRE.value) + self._total(
            flag=Flag.FAIL_TEST.value
        ) + self._total(flag=Flag.FAIL_HYPER.value) + self.n_aborted

    def as_dict(self) -> dict:
        return {
            "sessions": self.n_sessions,
            "aborted": self.n_aborted,
            "preimage_rounds": self.n_preimage,
            "test_hadamard_rounds": self.n_test_hadamard,
            "hyper_hadamard_rounds": self.n_hyper_hadamard,
            "fail_pre": self.n_fail_pre,
            "fail_test": self.n_fail_test,
            "fail_hyper": self.n_fail_hyper,
            "cells": {f"{r}|{c}|{f}": n for (r, c, f), n in sorted(self.cells.items())},
        }


# ----------------------------------------------------------------- sessions


def session_seed(master_seed: int, index: int) -> int:
    return derive_seed(master_seed, index)


def run_session(
    sp: entcf.SecurityParam,
    prover_factory,
    master_seed: int,
    index: int,
    *,
    theta: tuple[int, int, int] | None = None,
    round: RoundType | None = None,
) -> SessionTranscript:
    """One full protocol run in-process.

    prover_factory has the (registry, rng, index) signature produced by
    parse_prover_spec. theta and round pin the sampled basis triple and
    round type for conditioned statistics; both default to the protocol's
    own uniform draws.
    """
    seed = session_seed(master_seed, index)
    vrng = _rekeyed(derive_seed(seed, _VERIFIER_LANE), "verifier")
    prng = _rekeyed(derive_seed(seed, _PROVER_LANE), "prover")
    registry = entcf.OracleRegistry()
    sess = verifier.begin(sp, vrng, registry=registry, theta=theta)

    base = dict(
        index=index,
        seed=seed,
        lam=sp.lam,
        theta=sess.theta,
        keys=tuple(
            entcf.export_key_record(h, t) for h, t in zip(sess.handles, sess.trapdoors)
        ),
        ys=None,
        round=None,
        test_index=None,
        preimages=None,
        ds=None,
        q=None,
        vs=None,
        flag=None,
        accept=False,
        abort=None,
    )

    try:
        prover = prover_factory(registry, prng, index)
        ys = [int(y) for y in prover.commit(list(sess.handles))]
        round_type = sess.receive_commit(ys, round=round)
        base.update(ys=tuple(ys), round=round_type.value)
        if round_type is RoundType.PREIMAGE:
            answers = prover.answer_preimage()
            sess.check_preimage(answers)
            base.update(preimages=tuple((int(b), int(x)) for b, x in answers))
        else:
            ds = [int(d) for d in prover.answer_hadamard()]
            q = sess.send_questions()
            vs = [int(v) for v in prover.answer_questions(q)]
            sess.check_hadamard(ds, vs)
            base.update(
                ds=tuple(ds), q=q, test_index=sess.test_index, vs=tuple(vs)
            )
        accept, flag = sess.verdict()
        base.update(flag=flag.value, accept=accept)
    except (AnswerError, ProtocolOrderError, TransportError) as exc:
        base.update(abort=f"{type(exc).__name__}: {exc}", accept=False, flag=None)
    return SessionTranscript(**base)


def _batch_worker(args) -> tuple[FlagStats, list | None]:
    lam, prover_spec, master_seed, start, stop, theta, round, keep = args
    sp = entcf.SecurityParam(lam)
    factory = parse_prover_spec(prover_spec)
    round_type = None if round is None else RoundType(round)
    stats = FlagStats()
    kept = [] if keep else None
    for index in range(start, stop):
        t = run_session(sp, factory, master_seed, index, theta=theta, round=round_type)
        stats.add(t)
        if keep:
            kept.append(t)
    return stats, kept


def run_batch(
    sp: entcf.SecurityParam,
    prover_spec: str,
    n: int,
    master_seed: int,
    parallelism: int = 1,
    *,
    sink=None,
    collect: bool = False,
    theta: tuple[int, int, int] | None = None,
    round: RoundType | None = None,
) -> tuple[FlagStats, list[SessionTranscript] | None]:
    """N independent sessions; stats and sink order follow the session index.

    prover_spec is a selection string (see parse_prover_spec) so that worker
    processes can rebuild the factory. Transcripts are kept only when a sink
    or collect=True asks for them.
    """
    if n < 0:
        raise ParameterError(f"session count {n} is negative")
    if parallelism < 1:
        raise ParameterError(f"parallelism {parallelism} must be at least 1")
    parse_prover_spec(prover_spec)  # validate before spawning anything
    keep = sink is not None or collect
    round_value = None if round is None else RoundType(round).value

    chunks = _chunk_ranges(n, parallelism)
    results: list[tuple[FlagStats, list | None]] = []
    if parallelism == 1 or n == 0 or len(chunks) <= 1:
        for start, stop in chunks:
            results.append(
                _batch_worker(
                    (sp.lam, prover_spec, master_seed, start, stop, theta, round_value, keep)
                )
            )
    else:
        tasks = [
            (sp.lam, prover_spec, master_seed, start, stop, theta, round_value, keep)
            for start, stop in chunks
        ]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            results = list(pool.map(_batch_worker, tasks))

    stats = FlagStats()
    for part, _ in results:
        stats = stats.merge(part)
    transcripts = None
    if keep:
        transcripts = [t for _, kept in results for t in kept]
        if sink is not None:
            write_transcripts(sink, transcripts)
    return stats, (transcripts if collect else None)


def _chunk_ranges(n: int, parallelism: int) -> list[tuple[int, int]]:
    if n == 0:
        return [(0, 0)]
    workers = min(parallelism, n)
    size, extra = divmod(n, workers)
    ranges, start = [], 0
    for k in range(workers):
        stop = start + size + (1 if k < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


# ----------------------------------------------------------------- endpoints


def parse_endpoint(spec: str):
    """Endpoint forms: 'stdio', 'host:port', or 'tcp:host:port'."""
    if spec == "stdio":
        return ("stdio",)
    body = spec[4:] if spec.startswith("tcp:") else spec
    host, sep, port = body.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ParameterError(f"endpoint {spec!r} wants 'stdio' or 'host:port'")
    return ("tcp", host, int(port))


def serve(
    sp: entcf.SecurityParam,
    endpoint: str,
    master_seed: int,
    n_sessions: int,
    *,
    sink=None,
    on_listen=None,
) -> tuple[FlagStats, list[SessionTranscript]]:
    """Host the verifier side of n sessions over one peer connection."""
    kind = parse_endpoint(endpoint)
    if kind[0] == "stdio":
        transcripts = _serve_sessions(
            sys.stdin.buffer, sys.stdout.buffer, sp, master_seed, n_sessions
        )
    else:
        _, host, port = kind
        with socket.create_server((host, port)) as server:
            if on_listen is not None:
                on_listen(server.getsockname()[1])
            conn, _ = server.accept()
            with conn:
                rfile = conn.makefile("rb")
                wfile = conn.makefile("wb")
                transcripts = _serve_sessions(rfile, wfile, sp, master_seed, n_sessions)
    stats = FlagStats.from_transcripts(transcripts)
    if sink is not None:
        write_transcripts(sink, transcripts)
    return stats, transcripts


def connect(endpoint: str, prover_spec: str, master_seed: int) -> list[dict]:
    """Run the prover side against a serving verifier; returns verdicts."""
    factory = parse_prover_spec(prover_spec)
    kind = parse_endpoint(endpoint)
    if kind[0] == "stdio":
        return _client_sessions(sys.stdin.buffer, sys.stdout.buffer, factory, master_seed)
    _, host, port = kind
    with socket.create_connection((host, port)) as conn:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        return _client_sessions(rfile, wfile, factory, master_seed)


def _serve_sessions(rfile, wfile, sp, master_seed, n_sessions) -> list[SessionTranscript]:
    transcripts = []
    for index in range(n_sessions):
        t, alive = _serve_one(rfile, wfile, sp, master_seed, index)
        transcripts.append(t)
        if not alive:
            break
    return transcripts


def _serve_one(rfile, wfile, sp, master_seed, index) -> tuple[SessionTranscript, bool]:
    """Run one wire session; the bool says whether the stream is still usable."""
    seed = session_seed(master_seed, index)
    vrng = _rekeyed(derive_seed(seed, _VERIFIER_LANE), "verifier")
    registry = entcf.OracleRegistry()
    sess = verifier.begin(sp, vrng, registry=registry)

    base = dict(
        index=index,
        seed=seed,
        lam=sp.lam,
        theta=sess.theta,
        keys=tuple(
            entcf.export_key_record(h, t) for h, t in zip(sess.handles, sess.trapdoors)
        ),
        ys=None, round=None, test_index=None, preimages=None,
        ds=None, q=None, vs=None, flag=None, accept=False, abort=None,
    )
    w = sp.w
    seq = 0

    def send(kind, payload):
        nonlocal seq
        _send(wfile, Message(sid=seed, seq=seq, kind=kind, payload=payload))
        seq += 1

    def expect(kind):
        nonlocal seq
        msg = _expect(rfile, seed, seq, kind)
        seq += 1
        return msg

    alive = True
    try:
        send("KEYS", {
            "index": index,
            "lam": sp.lam,
            "keys": [{"id": str(h.key_id), "w": h.w} for h in sess.handles],
        })
        commit = expect("COMMIT")
        ys = _parse_bit_list(commit.payload.get("ys"), 3, w + 1)
        round_type = sess.receive_commit(ys)
        base.update(ys=tuple(ys), round=round_type.value)
        send("ROUND", {"round": round_type.value})
        if round_type is RoundType.PREIMAGE:
            msg = expect("PREIMAGES")
            answers = _parse_preimages(msg.payload.get("answers"), w)
            sess.check_preimage(answers)
            base.update(preimages=tuple(answers))
        else:
            msg = expect("HADAMARD_D")
            ds = _parse_bit_list(msg.payload.get("ds"), 3, w)
            q = sess.send_questions()
            send("QUESTIONS", {"q": "".join(map(str, q))})
            msg = expect("ANSWERS")
            vs = _parse_answer_bits(msg.payload.get("vs"))
            sess.check_hadamard(ds, vs)
            base.update(ds=tuple(ds), q=q, test_index=sess.test_index, vs=tuple(vs))
        accept, flag = sess.verdict()
        base.update(flag=flag.value, accept=accept)
        send("VERDICT", {"accept": accept, "flag": flag.value, "abort": None})
    except (AnswerError, ProtocolOrderError) as exc:
        base.update(abort=f"{type(exc).__name__}: {exc}")
        try:
            send("VERDICT", {"accept": False, "flag": None,
                             "abort": f"{type(exc).__name__}: {exc}"})
        except TransportError:
            alive = False
    except TransportError as exc:
        base.update(abort=f"TransportError: {exc}")
        alive = False
    return SessionTranscript(**base), alive


def _client_sessions(rfile, wfile, factory, master_seed) -> list[dict]:
    verdicts = []
    while True:
        first = _recv(rfile)
        if first is None:
            return verdicts
        if first.kind != "KEYS" or first.seq != 0:
            raise TransportError(f"expected a fresh KEYS frame, got {first.kind}")
        verdicts.append(_client_one(rfile, wfile, factory, master_seed, first))


def _client_one(rfile, wfile, factory, master_seed, keys_msg: Message) -> dict:
    payload = keys_msg.payload
    try:
        index = int(payload["index"])
        lam = int(payload["lam"])
        advertised = [(int(k["id"]), int(k["w"])) for k in payload["keys"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed KEYS payload: {exc}") from exc

    sp = entcf.SecurityParam(lam)
    seed = session_seed(master_seed, index)
    if keys_msg.sid != seed:
        raise TransportError("session id does not match the shared master seed")

    # trusted setup: rebuild the oracle locally by replaying the verifier's
    # key generation, then check the advertised handles line up
    registry = entcf.OracleRegistry()
    vrng = _rekeyed(derive_seed(seed, _VERIFIER_LANE), "verifier")
    replay = verifier.begin(sp, vrng, registry=registry)
    local = [(h.key_id, h.w) for h in replay.handles]
    if local != advertised:
        raise TransportError("advertised keys do not match the replayed oracle")

    prover = factory(registry, _rekeyed(derive_seed(seed, _PROVER_LANE), "prover"), index)
    w = sp.w
    seq = 1

    def send(kind, payload):
        nonlocal seq
        _send(wfile, Message(sid=seed, seq=seq, kind=kind, payload=payload))
        seq += 1

    def expect(kind):
        nonlocal seq
        msg = _expect(rfile, seed, seq, kind)
        seq += 1
        return msg

    ys = prover.commit(list(replay.handles))
    send("COMMIT", {"ys": [bits_str(int(y), w + 1) for y in ys]})
    round_msg = expect("ROUND")
    round_value = round_msg.payload.get("round")
    if round_value == RoundType.PREIMAGE.value:
        answers = prover.answer_preimage()
        send("PREIMAGES", {"answers": [[str(int(b)), bits_str(int(x), w)] for b, x in answers]})
    elif round_value == RoundType.HADAMARD.value:
        ds = prover.answer_hadamard()
        send("HADAMARD_D", {"ds": [bits_str(int(d), w) for d in ds]})
        q_raw = expect("QUESTIONS").payload.get("q")
        if not isinstance(q_raw, str) or len(q_raw) != 3 or any(ch not in "01" for ch in q_raw):
            raise TransportError(f"malformed QUESTIONS payload {q_raw!r}")
        vs = prover.answer_questions(tuple(int(ch) for ch in q_raw))
        send("ANSWERS", {"vs": "".join(str(int(v)) for v in vs)})
    else:
        raise TransportError(f"malformed ROUND payload {round_value!r}")
    verdict = expect("VERDICT")
    return dict(verdict.payload)


def _parse_bit_list(items, count, width) -> list[int]:
    if not isinstance(items, list) or len(items) != count:
        raise MalformedAnswerError(f"expected {count} bit strings")
    out = []
    for s in items:
        try:
            value, got_width = parse_bits(s)
        except (TypeError, ValueError) as exc:
            raise MalformedAnswerError(f"bad bit string {s!r}") from exc
        if got_width != width:
            raise MalformedAnswerError(f"bit string {s!r} is not {width} bits")
        out.append(value)
    return out


def _parse_preimages(items, w) -> list[tuple[int, int]]:
    if not isinstance(items, list) or len(items) != 3:
        raise MalformedAnswerError("expected 3 preimage answers")
    out = []
    for pair in items:
        if not isinstance(pair, list) or len(pair) != 2:
            raise MalformedAnswerError(f"bad preimage answer {pair!r}")
        b_raw, x_raw = pair
        if b_raw not in ("0", "1"):
            raise MalformedAnswerError(f"bad preimage bit {b_raw!r}")
        try:
            x, width = parse_bits(x_raw)
        except (TypeError, ValueError) as exc:
            raise MalformedAnswerError(f"bad preimage string {x_raw!r}") from exc
        if width != w:
            raise MalformedAnswerError(f"preimage {x_raw!r} is not {w} bits")
        out.append((int(b_raw), x))
    return out


def _parse_answer_bits(vs) -> list[int]:
    if not isinstance(vs, str) or len(vs) != 3 or any(ch not in "01" for ch in vs):
        raise MalformedAnswerError(f"malformed ANSWERS payload {vs!r}")
    return [int(ch) for ch in vs]
