"""Session orchestration: end-to-end runs, wire transport, transcripts, stats.

A session couples one verifier state machine with one prover strategy. The
batch runner runs a batch in the calling process, one chunk of session
indices at a time, and streams each chunk's transcripts to the sink;
seeds are derived per index, so results never depend on the chunk size. The
wire mode splits the two parties across a newline-delimited message stream:
the server runs the same run_session with a RemoteProver that relays each
prover call to the peer, so wire transcripts equal in-process transcripts
bit for bit by construction. Both ends derive a session's seed lanes in one
helper; the prover side rebuilds the key oracle from the shared master seed
(trusted setup).
"""

from __future__ import annotations

import contextlib
import json
import socket
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import entcf, provers, verifier
from .errors import (
    AnswerError,
    MalformedAnswerError,
    ParameterError,
    ProtocolOrderError,
    TranscriptParseError,
    TransportError,
)
from .provers import PURE_PROVERS, HonestProver, parse_noise_spec, parse_prover_spec
from .util import (
    MASK64,
    _LO32,
    _32,
    _rekeyed,
    bits_str,
    derive_seed,
    int_to_tuple,
    lemire,
    lemire_rejects,
    parse_bits,
    philox_words,
    sample_edges_rows,
)
from .util import rng_from  # noqa: F401  (kept importable here; perfbench/tracing.py wraps it)
from .verifier import Flag, RoundType

WIRE_VERSION = 1
# longest frame line read, newline included; a legitimate frame stays under
# 300 bytes at the widest lam, so a longer line is a hostile or broken peer
MAX_FRAME = 1 << 20
# seconds a TCP peer may stay silent, on either end, before the stream ends
IDLE_TIMEOUT = 60.0
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


def _not_an_integer(text: str):
    raise ValueError(f"number {text} is not an integer")


# the one JSON decoder for frames and transcript lines; every number in them
# is an integer, and json.loads would read NaN, Infinity or 1e999 as floats
_JSON = json.JSONDecoder(parse_float=_not_an_integer, parse_constant=_not_an_integer)
# the text of a record's abort string and of key maps a transcript holds as dicts:
# json.dumps(value, sort_keys=True), without building an encoder per line
_ENCODER = json.JSONEncoder(sort_keys=True)

_ROUNDS = (None, *(r.value for r in RoundType))
_FLAGS = (None, *(f.value for f in Flag))
# every rendering of a three-bit field (theta, q, vs) or a preimage bit: one lookup checks
# a field and parses it
_THREE_BITS = {format(c, "03b"): int_to_tuple(c, 3) for c in range(8)}
_NULL_OR_THREE_BITS = {None: None, **_THREE_BITS}
_BIT = {"0": 0, "1": 1}

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

    def encode(self) -> bytes:
        body = {"kind": self.kind, "payload": self.payload, "seq": self.seq,
                "sid": str(self.sid), "v": WIRE_VERSION}
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"

    @staticmethod
    def decode(line: bytes) -> "Message":
        try:
            body = _JSON.decode(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # ValueError: also an over-long integer
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


def _recv(rfile) -> Message | None:
    try:
        line = rfile.readline(MAX_FRAME + 1)
    except OSError as exc:
        raise TransportError(f"connection lost while reading: {exc}") from exc
    if not line:
        return None
    if len(line) > MAX_FRAME:
        raise TransportError(f"frame longer than {MAX_FRAME} bytes")
    return Message.decode(line)


class _Channel:
    """One session's frames on a stream: sid, next seq, and a broken bit.

    Each frame is one write and one flush. Any TransportError sets broken,
    since the peer's place in the stream is then unknown.
    """

    def __init__(self, rfile, wfile, sid: int, seq: int = 0):
        self.rfile, self.wfile, self.sid, self.seq = rfile, wfile, sid, seq
        self.broken = False

    def send(self, kind: str, payload: dict) -> None:
        frame = Message(sid=self.sid, seq=self.seq, kind=kind, payload=payload).encode()
        try:
            self.wfile.write(frame)
            self.wfile.flush()
        except OSError as exc:
            self.broken = True
            raise TransportError(f"connection lost while sending: {exc}") from exc
        self.seq += 1

    def expect(self, kind: str) -> Message:
        try:
            msg = _recv(self.rfile)
            if msg is None:
                raise TransportError(f"connection closed while waiting for {kind}")
            if msg.kind != kind:
                raise TransportError(f"expected {kind}, got {msg.kind}")
            if msg.sid != self.sid or msg.seq != self.seq:
                raise TransportError(
                    f"frame out of order: sid {msg.sid}/{self.sid}, seq {msg.seq}/{self.seq}"
                )
        except TransportError:
            self.broken = True
            raise
        self.seq += 1
        return msg


# --------------------------------------------------------------- transcript


@dataclass(frozen=True)
class SessionTranscript:
    """Everything one session produced; stages never reached keep their defaults."""

    index: int
    seed: int
    lam: int
    theta: tuple[int, int, int]
    keys: tuple[dict, ...]
    ys: tuple[int, ...] | None = None
    round: str | None = None
    test_index: int | None = None
    preimages: tuple[tuple[int, int], ...] | None = None
    ds: tuple[int, ...] | None = None
    q: tuple[int, int, int] | None = None
    vs: tuple[int, ...] | None = None
    flag: str | None = None
    accept: bool = False
    abort: str | None = None

    def to_record(self) -> dict:
        w = self.lam  # SecurityParam: w equals lam
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
            ys, preimages, ds, seed = rec["ys"], rec["preimages"], rec["ds"], rec["seed"]
            t = SessionTranscript(
                index=rec["index"],
                seed=int(seed) if type(seed) is str and seed.isascii() and seed.isdigit() else -1,
                lam=rec["lam"],
                theta=_parsed(_THREE_BITS, rec["theta"], "theta is not a 3-bit string"),
                keys=tuple(rec["keys"]),
                ys=None if ys is None else tuple(parse_bits(s)[0] for s in ys),
                round=rec["round"],
                test_index=rec["test_index"],
                preimages=None if preimages is None
                else tuple((_parsed(_BIT, b, "a preimage bit is not 0 or 1"), parse_bits(x)[0])
                           for b, x in preimages),
                ds=None if ds is None else tuple(parse_bits(s)[0] for s in ds),
                q=_parsed(_NULL_OR_THREE_BITS, rec["q"], "q is not null or a 3-bit string"),
                vs=_parsed(_NULL_OR_THREE_BITS, rec["vs"], "vs is not null or a 3-bit string"),
                flag=rec["flag"],
                accept=rec["accept"],
                abort=rec["abort"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TranscriptParseError(f"bad transcript record: {exc}") from exc
        # SCHEMA.md's field rules; no decision reads bit-string widths
        rule = ("index is not an integer" if type(t.index) is not int
                else "seed is not a decimal string below 2^64" if not 0 <= t.seed <= MASK64
                else "keys is not a list of three key records" if not (
                    type(rec["keys"]) is list and len(t.keys) == 3
                    and type(t.keys[0]) is type(t.keys[1]) is type(t.keys[2]) is dict)
                else "ys is not null or a list of three"
                if ys is not None and not (type(ys) is list and len(ys) == 3)
                else "preimages is not null or a list of three pairs" if preimages is not None
                and not (type(preimages) is list and len(preimages) == 3
                         and type(preimages[0]) is type(preimages[1]) is type(preimages[2]) is list)
                else "ds is not null or a list of three"
                if ds is not None and not (type(ds) is list and len(ds) == 3)
                else "theta is not a basis choice" if t.theta not in verifier.BASIS_CHOICES
                else "round is not null, preimage or hadamard" if t.round not in _ROUNDS
                else _broken_verdict_rule(t.accept, t.flag, t.abort)
                or ("test_index is not null or 0-2"
                    if t.test_index not in (None, 0, 1, 2) or isinstance(t.test_index, bool)
                    else "lam is not a supported width"
                    if type(t.lam) is not int or not entcf.W_MIN <= t.lam <= entcf.W_MAX
                    else "a record without an abort has no round"
                    if t.abort is None and t.round is None
                    else None))
        if rule is not None:
            raise TranscriptParseError(f"bad transcript record: {rule}")
        return t


def _parsed(table: dict, value, rule: str, error=ValueError):
    """table[value], a record or payload field checked and parsed; else error(rule)."""
    try:
        return table[value]
    except (KeyError, TypeError):  # TypeError: a JSON list or object is unhashable
        raise error(rule) from None


def _broken_verdict_rule(accept, flag, abort) -> str | None:
    """The first of SCHEMA.md's verdict rules that a verdict breaks, or None.

    Transcript records and VERDICT payloads both carry accept, flag, abort.
    """
    return ("flag is not null or a flag value" if flag not in _FLAGS
            else "accept is not a boolean" if not isinstance(accept, bool)
            else "abort is not null or a string" if not (abort is None or isinstance(abort, str))
            else "not exactly one of flag and abort is null" if (flag is None) == (abort is None)
            else "accept does not match the flag" if accept != (flag == Flag.NONE)
            else None)


@contextlib.contextmanager
def _text_file(sink):
    """sink as an open text file: None or a file object as is, a path opened for writing."""
    if sink is None or hasattr(sink, "write"):
        yield sink
        return
    with open(sink, "w", encoding="utf-8") as fh:
        yield fh


def _record_line(index, seed, lam, theta, keys, ys, round, test_index, preimages, ds, q, vs,
                 flag, accept, abort) -> str:
    """One transcript record as one JSON line, by SCHEMA.md's encoding rule: the bytes
    json.dumps(record, sort_keys=True) writes for it, newline included.

    The fields come in SessionTranscript's order, as plain values, None for
    null: theta, q and vs 3-bit texts, ys and ds ints, preimages (bit, int)
    pairs, keys the key list's JSON text. round and flag are among their
    schema values, so need no escaping; abort goes through the encoder, as
    json escapes it. Both the array path and write_transcripts render with it.
    """
    x, y = f"0{lam}b", f"0{lam + 1}b"
    return (
        f'{{"abort": {"null" if abort is None else _ENCODER.encode(abort)}, '
        f'"accept": {"true" if accept else "false"}, '
        f'"ds": {"null" if ds is None else _bit_list(ds, x)}, "flag": {_quoted(flag)}, '
        f'"index": {index}, "keys": {keys}, "lam": {lam}, '
        f'"preimages": {"null" if preimages is None else _pair_list(preimages, x)}, '
        f'"q": {_quoted(q)}, "round": {_quoted(round)}, "seed": "{seed}", '
        f'"test_index": {"null" if test_index is None else test_index}, '
        f'"theta": "{theta}", "vs": {_quoted(vs)}, '
        f'"ys": {"null" if ys is None else _bit_list(ys, y)}}}\n'
    )


def _quoted(text) -> str:
    """null, or text in quotes: for texts that json does not escape."""
    return "null" if text is None else f'"{text}"'


def _bit_list(values, spec: str) -> str:
    return '["' + '", "'.join([format(v, spec) for v in values]) + '"]'


def _pair_list(pairs, spec: str) -> str:
    return "[" + ", ".join([f'["{b}", "{v:{spec}}"]' for b, v in pairs]) + "]"


def _bit_text(bits) -> str | None:
    return None if bits is None else "".join(map(str, bits))


def _transcript_line(t: SessionTranscript) -> str:
    return _record_line(t.index, t.seed, t.lam, _bit_text(t.theta), _ENCODER.encode(list(t.keys)),
                        t.ys, t.round, t.test_index, t.preimages, t.ds, _bit_text(t.q),
                        _bit_text(t.vs), t.flag, t.accept, t.abort)


def write_transcripts(sink, transcripts) -> None:
    """One self-describing record per line; sink is a path or a text file."""
    with _text_file(sink) as fh:
        fh.writelines(map(_transcript_line, transcripts))


def iter_transcripts(path):
    """Parse a transcript file line by line; a bad line raises TranscriptParseError naming it."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                if text.isspace():
                    continue
                t = SessionTranscript.from_record(_JSON.decode(text))
            except (ValueError, RecursionError) as exc:  # TranscriptParseError is a ValueError
                raise TranscriptParseError(f"line {lineno}: {exc}") from exc
            yield t


def read_transcripts(path) -> list[SessionTranscript]:
    """Every record of a transcript file, as iter_transcripts parses them."""
    return list(iter_transcripts(path))


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


def _session_lanes(sp, master_seed, index, theta=None):
    """Seed, verifier (oracle: sess.registry) and prover rng; both wire ends call this."""
    seed = derive_seed(master_seed, index)
    sess = verifier.begin(sp, _rekeyed(derive_seed(seed, _VERIFIER_LANE), "verifier"),
                          theta=theta)
    return seed, sess, _rekeyed(derive_seed(seed, _PROVER_LANE), "prover")


def run_session(
    sp: entcf.SecurityParam,
    prover_factory,
    master_seed: int,
    index: int,
    *,
    theta: tuple[int, int, int] | None = None,
    round: RoundType | None = None,
) -> SessionTranscript:
    """One full protocol run: the only code that walks the round flow.

    prover_factory has the (registry, rng, index) signature produced by
    parse_prover_spec; serve passes one that returns a RemoteProver. theta
    and round pin the sampled basis triple and round type for conditioned
    statistics; both default to the protocol's own uniform draws. Prover
    answers go to the verifier as given; the transcript records its values.
    """
    seed, sess, prng = _session_lanes(sp, master_seed, index, theta)
    reached = {}
    try:
        prover = prover_factory(sess.registry, prng, index)
        round_type = sess.receive_commit(prover.commit(list(sess.handles)), round=round)
        reached.update(ys=sess.ys, round=round_type.value)
        if round_type is RoundType.PREIMAGE:
            sess.check_preimage(prover.answer_preimage())
            reached.update(preimages=sess.preimages)
        else:
            ds = prover.answer_hadamard()
            q = sess.send_questions()
            sess.check_hadamard(ds, prover.answer_questions(q))
            reached.update(ds=sess.ds, q=q, test_index=sess.test_index, vs=sess.vs)
        accept, flag = sess.verdict()
        reached.update(flag=flag.value, accept=accept)
    except (AnswerError, ProtocolOrderError, TransportError) as exc:
        reached.update(abort=f"{type(exc).__name__}: {exc}")
    keys = tuple(entcf.key_record(h.key_id, h.w, t.family, t.perm_seed, t.shift)
                 for h, t in zip(sess.handles, sess.trapdoors))
    return SessionTranscript(index=index, seed=seed, lam=sp.lam, theta=sess.theta, keys=keys,
                             **reached)


# ------------------------------------------------------------ array batches

# sessions per chunk of a batch; a batch's memory is O(_CHUNK) whatever n is
_CHUNK = 2048
_CLAW = np.array(verifier.BASIS_CHOICES, dtype=bool).T  # [coordinate, theta index]
_FLAGS_BY_CODE = tuple(Flag)
_ROUND_VALUES = (RoundType.PREIMAGE.value, RoundType.HADAMARD.value)  # by hadamard
_FAMILIES = (entcf.Family.INJECTIVE, entcf.Family.CLAW)  # by theta bit
_QUESTIONS = tuple(_THREE_BITS.values())  # three bits by their code, MSB first
_BIT_TEXTS = tuple(_THREE_BITS)  # their texts
_THETA_TEXTS = tuple(_bit_text(bits) for bits in verifier.BASIS_CHOICES)  # by theta index
_LANES = np.array([[_VERIFIER_LANE], [_PROVER_LANE]], dtype=np.uint64)  # by row


class _Stream:
    """Draws of rng_from(k) for the lanes' keys k, as NumPy's Generator makes them.

    Row j of words is word j of every key's stream, from util.philox_words,
    which says why NumPy's own Philox does not make them. A 32-bit draw takes
    the pending high half if there is one, else the low half of the next
    word; a 64-bit draw takes the next word and leaves the pending half pending.
    """

    def __init__(self, words: np.ndarray, lanes=slice(None)):
        self.words, self.lanes, self.next, self.pending = words, lanes, 0, None

    def word(self) -> np.ndarray:
        self.next += 1
        return self.words[self.next - 1, self.lanes]

    def half(self) -> np.ndarray:
        if self.pending is None:
            word = self.word()
            self.pending = word >> _32
            return word & _LO32
        half, self.pending = self.pending, None
        return half

    def bits(self, width: int) -> np.ndarray:
        """rand_bits(rng, width): Lemire's draw on a power-of-two range never rejects."""
        return lemire(self.half(), 1 << width)

    def uniform(self) -> np.ndarray:
        """rng.random(): the next word's top 53 bits over 2^53."""
        return (self.word() >> 11) * 2.0 ** -53


class _Keys(NamedTuple):
    """One coordinate's keys across a group's sessions, in the Trapdoor fields entcf reads."""

    family: entcf.Family
    w: int
    shift: np.ndarray
    mask_in: np.ndarray
    mask_out: np.ndarray


def _array_plan(prover_spec: str, theta, round):
    """(answer table key, bit-flip probability, theta index, round) for a batch the array
    path covers, else None.

    Covered: honest, stabilizer and noisy provers; theta and round are
    pins as verifier.check_pins returns them (None where unpinned). The
    table key is the prover class and the depolarizing epsilon: 0 reads
    the class's own register, as NoisyProver delegates to its inner prover
    at epsilon 0. Scripted provers are left to run_session.
    """
    if prover_spec in PURE_PROVERS:
        cls, depol, flip = PURE_PROVERS[prover_spec], 0.0, 0.0
    elif prover_spec.startswith("noisy:"):
        cls, noise = HonestProver, parse_noise_spec(prover_spec)
        depol, flip = ((noise.epsilon, 0.0) if noise.model == "depolarizing"
                       else (0.0, noise.epsilon))
    else:
        return None
    t = None if theta is None else verifier.BASIS_CHOICES.index(theta)
    return (cls, depol), flip, t, round


class _Columns(NamedTuple):
    """A chunk's sessions as arrays: one element per session, or rows 0-2 per coordinate.

    theta indexes BASIS_CHOICES and flag indexes Flag. replay marks the
    sessions run_session must replay instead: a Lemire draw on a range that
    is not a power of two rejects its first half, or two key ids collide;
    their other entries mean nothing. q and test_index (theta 000 only) are
    a Hadamard round's. groups pairs each (theta, round) group's lanes with
    the record columns _array_group returned for them; only transcripts
    read those, so a stats-only batch never gathers them per session.
    """

    seeds: np.ndarray
    theta: np.ndarray
    hadamard: np.ndarray
    flag: np.ndarray
    replay: np.ndarray
    key_id: np.ndarray
    perm_seed: np.ndarray
    shift: np.ndarray
    q: np.ndarray
    test_index: np.ndarray
    groups: list


def _array_chunk(lam, plan, master_seed, start, stop) -> _Columns:
    """Sessions start..stop-1 of a covered batch, drawn and checked as run_session does."""
    table_key, flip, theta, round = plan
    seeds = derive_seed(master_seed, np.arange(start, stop, dtype=np.uint64))
    n, w = len(seeds), lam
    # one philox_words call per stream, for the blocks it reads: the verifier's and
    # prover's first two in one pass over 2n keys (the verifier reads at most seven
    # words, a prover six), the prover's third for bit flips (words 6-8), and block 0
    # of each keygen and mask stream
    lane_keys = derive_seed(seeds, _LANES)
    words = philox_words(lane_keys.ravel(), 0, 2)
    ver, prover_words = _Stream(words[:, :n]), words[:, n:]
    if flip > 0:
        prover_words = np.concatenate([prover_words, philox_words(lane_keys[1], 2, 1)])
    # verifier.begin: the basis triple, then a rand_u64 key seed per coordinate
    if theta is None:
        half = ver.half()
        t_index, replay = lemire(half, 5), lemire_rejects(half, 5)
    else:
        t_index, replay = np.full(n, theta, dtype=np.uint64), np.zeros(n, dtype=bool)
    key_seeds = np.concatenate([ver.word() >> 1 << 1 | ver.bits(1) for _ in range(3)])
    # OracleRegistry.gen for the three coordinates at once, coordinate-major
    claw = _CLAW[:, t_index].ravel()
    lane = np.where(claw, np.uint64(entcf._LANE_BY_FAMILY["F"]),
                    np.uint64(entcf._LANE_BY_FAMILY["G"]))
    keygen = philox_words(derive_seed(key_seeds, lane, w), 0, 1)
    key_id, perm_seed = entcf._key_words(keygen[0], keygen[1], keygen[2])
    half, k = keygen[3] & _LO32, (1 << w) - 1
    shift = np.where(claw, 1 + lemire(half, k), 0).reshape(3, n)
    replay |= (claw & lemire_rejects(half, k)).reshape(3, n).any(axis=0)
    ids = key_id.reshape(3, n)
    replay |= (ids[0] == ids[1]) | (ids[0] == ids[2]) | (ids[1] == ids[2])
    m_in, m_out = (m.reshape(3, n) for m in entcf._masks(philox_words(perm_seed, 0, 1)[0], w))
    # receive_commit's round coin, then send_questions' q and test index
    if round is None:
        hadamard = ver.bits(1) == 1
    else:
        hadamard = np.full(n, round is RoundType.HADAMARD)
    q, half = ver.bits(3), ver.half()
    test_index = lemire(half, 3)
    replay |= hadamard & (t_index == 0) & lemire_rejects(half, 3)

    flag, groups = np.zeros(n, dtype=np.int8), []
    table = _answer_table(*table_key)
    for t in np.flatnonzero(np.bincount(t_index.astype(np.intp))).tolist():
        bases = verifier.BASIS_CHOICES[t]
        for had in (False, True):
            lanes = np.flatnonzero((t_index == t) & (hadamard == had))
            if not len(lanes):
                continue
            keys = [_Keys(_FAMILIES[c], w, shift[i, lanes], m_in[i, lanes], m_out[i, lanes])
                    for i, c in enumerate(bases)]
            flag[lanes], group = _array_group(table[bases], flip, bases, had, keys,
                                              _Stream(prover_words, lanes), q[lanes],
                                              test_index[lanes])
            groups.append((lanes, group))
    return _Columns(seeds, t_index, hadamard, flag, replay, ids, perm_seed.reshape(3, n), shift,
                    q, test_index, groups)


@lru_cache(maxsize=None)
def _answer_table(cls, depol: float) -> dict:
    """The prover's answer edges per theta: 64 rows, one per pattern code, opened bits << 3
    | question bits, stacked from provers.answer_edges of each opened register.

    Built whole on a prover's first batch, so that no later chunk pays for a
    row and a batch's time does not depend on which rows came before it.
    """
    table = {}
    for bases in verifier.BASIS_CHOICES:
        registers = [tuple(entcf.CollapsedQubit("X" if claw else "Z", bit)
                           for claw, bit in zip(bases, bits)) for bits in _QUESTIONS]
        table[bases] = np.concatenate([provers.answer_edges(qubits, cls._gate(qubits), depol)
                                       for qubits in registers])
    return table


def _array_group(rows, flip, bases, hadamard, keys, stream, q, test_index):
    """One (theta, round) group: the prover's draws, then the verifier's rules.

    rows are the prover's answer edges for this theta, by pattern code, and
    flip the probability that the prover flips each answer bit.
    Returns the flag indices and the group's record columns, three arrays
    each: ys, then the opened preimage pairs (b, x) or the ds and vs.
    """
    w = keys[0].w
    # HonestProver.commit: sample_commitment per coordinate, b then x, or a claw's x0
    bs, xs = [], []
    for claw in bases:
        bs.append(0 if claw else stream.bits(1))
        xs.append(stream.bits(w))
    ys = [entcf._image(k, b, x) for k, b, x in zip(keys, bs, xs)]
    if not hadamard:
        # answer_preimage opens a claw on a fair-coin branch; check_preimage grades it
        ok, opened_b, opened_x = True, [], []
        for claw, k, b, x, y in zip(bases, keys, bs, xs, ys):
            if claw:
                b = stream.bits(1)
                x = x ^ b * k.shift
            ok = ok & entcf._opens(k, b, x, y)
            opened_b.append(b)
            opened_x.append(x)
        return (np.where(ok, 0, _FLAGS_BY_CODE.index(Flag.FAIL_PRE)),
                {"ys": ys, "b": opened_b, "x": opened_x})
    # answer_hadamard: a uniform d per coordinate; a claw collapses to <d, x0 ^ x1>
    # in X, and x0 ^ x1 is the shift, so the prover's bit is the verifier's u
    ds = [stream.bits(w) for _ in bases]
    us = [np.bitwise_count(d & k.shift).astype(np.uint64) & 1 for k, d in zip(keys, ds)]
    opened = [u if claw else b for claw, u, b in zip(bases, us, bs)]
    # answer_questions: one uniform against the register's table row
    code = opened[0] << 5 | opened[1] << 4 | opened[2] << 3 | q
    outcome = sample_edges_rows(rows[code], stream.uniform()).astype(np.uint64)
    vs = [outcome >> 2 & 1, outcome >> 1 & 1, outcome & 1]
    if flip > 0:
        vs = [v ^ (stream.uniform() < flip) for v in vs]
    # check_hadamard
    tops = [entcf._perm_backward(k, y) >> w for k, y in zip(keys, ys)]
    fail = verifier.hadamard_fails(bases, [q >> 2 & 1, q >> 1 & 1, q & 1], test_index,
                                   tops, us, vs)
    return (np.where(fail != 0, _FLAGS_BY_CODE.index(verifier.failure_flag(bases)), 0),
            {"ys": ys, "ds": ds, "vs": vs})


def _session_columns(cols: _Columns) -> dict:
    """The groups' record columns gathered back into the chunk: ys, b, x, ds and vs, each
    an array with a row per coordinate and a column per session."""
    fields = {name: np.zeros((3, len(cols.seeds)), dtype=np.uint64)
              for name in ("ys", "b", "x", "ds", "vs")}
    for lanes, group in cols.groups:
        for name, rows in group.items():
            for i, row in enumerate(rows):
                fields[name][i, lanes] = row
    return fields


def _chunk_transcripts(lam, cols: _Columns, start, replayed):
    """Yield a chunk's transcripts in index order: replayed ones as given, the rest built
    from the columns with the fields run_session gives them."""
    ys, b, x, ds, vs = (column.T.tolist() for column in _session_columns(cols).values())
    # every key's record, session-major: session i's three are 3i, 3i+1, 3i+2
    claw = _CLAW[:, cols.theta].T.ravel().tolist()
    records = [entcf.key_record(k, lam, _FAMILIES[c], p, s) for c, k, p, s in zip(
        claw, *(a.T.ravel().tolist() for a in (cols.key_id, cols.perm_seed, cols.shift)))]
    for i, (seed, t, had, f, q, test) in enumerate(zip(
            cols.seeds.tolist(), cols.theta.tolist(), cols.hadamard.tolist(),
            cols.flag.tolist(), cols.q.tolist(), cols.test_index.tolist())):
        if start + i in replayed:
            yield replayed[start + i]
            continue
        theta, keys = verifier.BASIS_CHOICES[t], tuple(records[3 * i:3 * i + 3])
        if had:
            reached = dict(ds=tuple(ds[i]), q=_QUESTIONS[q], test_index=test if t == 0 else None,
                           vs=tuple(vs[i]))
        else:
            reached = dict(preimages=tuple(zip(b[i], x[i])))
        yield SessionTranscript(start + i, seed, lam, theta, keys, ys=tuple(ys[i]),
                                round=_ROUND_VALUES[had], flag=_FLAGS_BY_CODE[f].value,
                                accept=f == 0, **reached)


def _chunk_lines(lam, cols: _Columns, start, replayed):
    """Yield a chunk's transcript lines in index order, the bytes write_transcripts gives
    _chunk_transcripts' transcripts: replayed ones through write_transcripts' rule, the
    rest rendered straight from the columns."""
    fields = _session_columns(cols)
    ys, b, x, ds = (fields[name].T.tolist() for name in ("ys", "b", "x", "ds"))
    vs = (fields["vs"][0] << 2 | fields["vs"][1] << 1 | fields["vs"][2]).tolist()
    # every key's entcf.key_record map in sorted-key order, session-major as in
    # _chunk_transcripts, rendered as the loop takes each session's three
    spec, claw = f"0{lam}b", _CLAW[:, cols.theta].T.ravel().tolist()
    maps = (
        f'{{"family": "F", "id": "{k}", "perm_seed": "{p}", "shift": "{s:{spec}}", "w": "{lam}"}}'
        if c else f'{{"family": "G", "id": "{k}", "perm_seed": "{p}", "w": "{lam}"}}'
        for c, k, p, s in zip(claw, *(a.T.ravel().tolist()
                                      for a in (cols.key_id, cols.perm_seed, cols.shift))))
    for i, (seed, t, had, f, q, test, k0, k1, k2) in enumerate(zip(
            cols.seeds.tolist(), cols.theta.tolist(), cols.hadamard.tolist(),
            cols.flag.tolist(), cols.q.tolist(), cols.test_index.tolist(), maps, maps, maps)):
        keys = f"[{k0}, {k1}, {k2}]"
        if start + i in replayed:
            yield _transcript_line(replayed[start + i])
        elif had:
            yield _record_line(start + i, seed, lam, _THETA_TEXTS[t], keys, ys[i],
                               "hadamard", test if t == 0 else None, None, ds[i], _BIT_TEXTS[q],
                               _BIT_TEXTS[vs[i]], _FLAGS_BY_CODE[f].value, f == 0, None)
        else:
            yield _record_line(start + i, seed, lam, _THETA_TEXTS[t], keys, ys[i],
                               "preimage", None, zip(b[i], x[i]), None, None, None,
                               _FLAGS_BY_CODE[f].value, f == 0, None)


def _batch_chunk(sp, factory, plan, master_seed, pins, start, stop, stats, out, kept):
    """Sessions start..stop-1 of a batch: fold their outcomes into stats, write their
    transcripts to out and append them to kept, in index order, where either is not None.

    With a plan the chunk runs on the array path, and run_session replays
    only the sessions the arrays do not cover; without one (a scripted
    prover) it replays every session. Array-path transcripts are built
    only for kept; their lines are rendered straight from the columns and
    streamed to out as they are made.
    """
    if plan is None:
        cols, again = None, range(start, stop)
    else:
        cols = _array_chunk(sp.lam, plan, master_seed, start, stop)
        fresh = ~cols.replay
        theta_index = cols.theta[fresh].astype(np.intp)
        counts = np.bincount((cols.hadamard[fresh] * 5 + theta_index) * 4 + cols.flag[fresh])
        for c in np.flatnonzero(counts).tolist():
            theta_cls = verifier.theta_class(verifier.BASIS_CHOICES[c // 4 % 5])
            cell = (_ROUND_VALUES[c // 20], theta_cls, _FLAGS_BY_CODE[c % 4].value)
            stats.cells[cell] += int(counts[c])
        again = (np.flatnonzero(cols.replay) + start).tolist()
    replayed = {index: run_session(sp, factory, master_seed, index, **pins) for index in again}
    for t in replayed.values():
        stats.add(t)
    if kept is not None:
        kept += (replayed.values() if cols is None
                 else _chunk_transcripts(sp.lam, cols, start, replayed))
    if out is not None:
        out.writelines(map(_transcript_line, replayed.values()) if cols is None
                       else _chunk_lines(sp.lam, cols, start, replayed))


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

    Every batch runs in the calling process, one chunk of _CHUNK session
    indices at a time, and writes each chunk's transcripts to the sink as
    the chunk ends, so its memory does not grow with n unless collect=True
    keeps the list. A chunk of an honest, stabilizer or noisy prover runs
    on the array path: it computes every session's draws and checks as
    array operations, with the same outcomes and transcripts as
    run_session, which replays the few sessions the arrays do not cover.
    A scripted chunk runs run_session for every index. A bad theta or
    round pin raises ParameterError before any session, whatever n is.

    parallelism is validated but starts no process. It stays in the
    signature because callers pass it (acceptance criterion 8, perfbench),
    and because a later fan-out of chunks to workers would take it, in
    this same loop.
    """
    if n < 0:
        raise ParameterError(f"session count {n} is negative")
    if parallelism < 1:
        raise ParameterError(f"parallelism {parallelism} must be at least 1")
    theta, round = verifier.check_pins(theta, round)
    factory = parse_prover_spec(prover_spec)
    plan = _array_plan(prover_spec, theta, round)
    pins, stats, kept = dict(theta=theta, round=round), FlagStats(), [] if collect else None
    with _text_file(sink) as out:
        for start in range(0, n, _CHUNK):
            _batch_chunk(sp, factory, plan, master_seed, pins, start, min(start + _CHUNK, n),
                         stats, out, kept)
    return stats, kept


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
    if n_sessions < 0:
        raise ParameterError(f"session count {n_sessions} is negative")
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
            conn.settimeout(IDLE_TIMEOUT)
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
    with socket.create_connection((host, port), timeout=IDLE_TIMEOUT) as conn:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        return _client_sessions(rfile, wfile, factory, master_seed)


def _serve_sessions(rfile, wfile, sp, master_seed, n_sessions) -> list[SessionTranscript]:
    """Verifier side: run_session against the peer, then send its VERDICT.

    A failed VERDICT send leaves the recorded verdict as it is and only
    ends the stream.
    """
    transcripts = []
    for index in range(n_sessions):
        chan = _Channel(rfile, wfile, derive_seed(master_seed, index))
        t = run_session(sp, lambda registry, rng, i: RemoteProver(chan, sp, i), master_seed, index)
        transcripts.append(t)
        if not chan.broken:
            with contextlib.suppress(TransportError):
                chan.send("VERDICT", {"accept": t.accept, "flag": t.flag, "abort": t.abort})
        if chan.broken:
            break
    return transcripts


class RemoteProver:
    """The prover of one served session, played by the peer across chan.

    Each call sends the verifier's frame and parses the peer's reply, so a
    malformed answer raises MalformedAnswerError and a broken stream
    TransportError, just where an in-process prover would raise.
    """

    def __init__(self, chan: _Channel, sp: entcf.SecurityParam, index: int):
        self.chan, self.sp, self.index = chan, sp, index

    def commit(self, handles) -> list[int]:
        self.chan.send("KEYS", {
            "index": self.index,
            "lam": self.sp.lam,
            "keys": [{"id": str(h.key_id), "w": h.w} for h in handles],
        })
        return _parse_bit_list(self.chan.expect("COMMIT").payload.get("ys"), 3, self.sp.w + 1)

    def answer_preimage(self) -> list[tuple[int, int]]:
        self.chan.send("ROUND", {"round": RoundType.PREIMAGE.value})
        return _parse_preimages(self.chan.expect("PREIMAGES").payload.get("answers"), self.sp.w)

    def answer_hadamard(self) -> list[int]:
        self.chan.send("ROUND", {"round": RoundType.HADAMARD.value})
        return _parse_bit_list(self.chan.expect("HADAMARD_D").payload.get("ds"), 3, self.sp.w)

    def answer_questions(self, q) -> list[int]:
        self.chan.send("QUESTIONS", {"q": "".join(map(str, q))})
        vs = self.chan.expect("ANSWERS").payload.get("vs")
        return list(_parsed(_THREE_BITS, vs, f"malformed ANSWERS payload {vs!r}",
                            MalformedAnswerError))


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
        sp = entcf.SecurityParam(lam)
    except (KeyError, TypeError, ValueError, ParameterError) as exc:
        raise TransportError(f"malformed KEYS payload: {exc}") from exc

    # trusted setup: rebuild the oracle locally by replaying the verifier's
    # key generation, then check the session id and advertised handles line up
    seed, replay, prng = _session_lanes(sp, master_seed, index)
    if keys_msg.sid != seed:
        raise TransportError("session id does not match the shared master seed")
    if [(h.key_id, h.w) for h in replay.handles] != advertised:
        raise TransportError("advertised keys do not match the replayed oracle")

    prover = factory(replay.registry, prng, index)
    w = sp.w
    chan = _Channel(rfile, wfile, seed, seq=1)
    ys = prover.commit(list(replay.handles))
    chan.send("COMMIT", {"ys": [_answer_bits(y, w + 1) for y in ys]})
    round_value = chan.expect("ROUND").payload.get("round")
    if round_value == RoundType.PREIMAGE.value:
        answers = prover.answer_preimage()
        chan.send("PREIMAGES",
                  {"answers": [[str(int(b)), _answer_bits(x, w)] for b, x in answers]})
    elif round_value == RoundType.HADAMARD.value:
        ds = prover.answer_hadamard()
        chan.send("HADAMARD_D", {"ds": [_answer_bits(d, w) for d in ds]})
        q = chan.expect("QUESTIONS").payload.get("q")
        q = _parsed(_THREE_BITS, q, f"malformed QUESTIONS payload {q!r}", TransportError)
        vs = prover.answer_questions(q)
        chan.send("ANSWERS", {"vs": "".join(str(int(v)) for v in vs)})
    else:
        raise TransportError(f"malformed ROUND payload {round_value!r}")
    payload = chan.expect("VERDICT").payload
    verdict = {key: payload.get(key) for key in ("accept", "flag", "abort")}
    rule = _broken_verdict_rule(**verdict)
    if rule is not None:
        raise TransportError(f"malformed VERDICT payload: {rule}")
    return verdict


def _answer_bits(x, width: int) -> str:
    """A local prover's answer as a wire bit string; one that cannot be is malformed."""
    try:
        return bits_str(int(x), width)
    except ValueError as exc:
        raise MalformedAnswerError(f"prover answer cannot be sent: {exc}") from exc


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
        b = _parsed(_BIT, b_raw, f"bad preimage bit {b_raw!r}", MalformedAnswerError)
        try:
            x, width = parse_bits(x_raw)
        except (TypeError, ValueError) as exc:
            raise MalformedAnswerError(f"bad preimage string {x_raw!r}") from exc
        if width != w:
            raise MalformedAnswerError(f"preimage {x_raw!r} is not {w} bits")
        out.append((b, x))
    return out
