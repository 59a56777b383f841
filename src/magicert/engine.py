"""Session orchestration: end-to-end runs, wire transport, transcripts, stats.

A session couples one verifier state machine with one prover strategy. The
batch runner runs a batch in the calling process, one chunk of session
indices at a time, and streams each chunk's transcript lines to the sink;
seeds are derived per index, so results never depend on the chunk size. A
chunk of a generated prover is drawn and checked in one pass of array
operations over all of its sessions, a rejected half redrawn in the arrays,
and its lines, its one output, are rendered as one byte matrix (a row per
session, each field in fixed columns, NUL-padded) and written with one
call; a scripted chunk runs run_session for each index. The wire mode
splits the two parties across a newline-delimited message stream: the
server runs the same run_session with a RemoteProver that relays each
prover call to the peer, so a generated prover's wire transcripts equal its
in-process transcripts bit for bit by construction. Both ends derive a
session's seed lanes in one helper; the prover side rebuilds the key oracle
from the shared master seed (trusted setup). A transcript file is read a line
at a time: a line in the writer's own layout by a regex built from that
layout, any other by the JSON decoder and SessionTranscript.from_record.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import re
import socket
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace
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
    _Stream,
    _rekeyed,
    bits_str,
    bits_value,
    derive_seed,
    int_to_tuple,
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
_SCAN = _JSON.scan_once  # the scanner _JSON.decode calls: (value, end) of the value at an index

_ROUNDS = (None, *(r.value for r in RoundType))
_FLAGS = (None, *(f.value for f in Flag))
# every rendering of a three-bit field (theta, q, vs) or a preimage bit: one lookup checks
# a field and parses it
_THREE_BITS = {format(c, "03b"): int_to_tuple(c, 3) for c in range(8)}
_NULL_OR_THREE_BITS = {None: None, **_THREE_BITS}
_BIT = {"0": 0, "1": 1}
# each three-bit theta's conditioning class, for FlagStats.add
_THETA_CLASSES = {bits: verifier.theta_class(bits) for bits in _THREE_BITS.values()}

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
            body = _decoded(line.decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # ValueError: also an over-long integer
            raise TransportError(f"undecodable frame: {exc}") from exc
        if not isinstance(body, dict):
            raise TransportError("frame is not an object")
        try:
            v, sid, seq, kind, payload = (body[k] for k in ("v", "sid", "seq", "kind", "payload"))
        except KeyError as exc:
            raise TransportError(f"frame lacks required fields: {exc}") from exc
        if type(v) is not int or v != WIRE_VERSION:
            raise TransportError(f"unsupported wire version {v!r}")
        if kind not in MESSAGE_KINDS:
            raise TransportError(f"unknown message kind {kind!r}")
        sid = _u64_decimal(sid)
        if sid is None:
            raise TransportError("sid is not a decimal string below 2^64")
        if type(seq) is not int or seq < 0 or not isinstance(payload, dict):
            raise TransportError("malformed seq or payload")
        return Message(sid=sid, seq=seq, kind=kind, payload=payload)


def _decoded(text: str):
    """_JSON.decode(text), with its value and its errors.

    A frame or record line, one JSON value and its newline, goes through
    the decoder's scanner alone. A line that opens with whitespace, or
    holds more than whitespace after its value, goes through decode.
    """
    try:
        value, end = _SCAN(text, 0)
    except StopIteration:  # no JSON value at 0: whitespace, or nothing decode reads
        return _JSON.decode(text)
    if text[end:].strip(" \t\n\r"):  # more than JSON whitespace follows: decode refuses it
        return _JSON.decode(text)
    return value


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

    def expect(self, *kinds: str) -> Message:
        try:
            msg = _recv(self.rfile)
            if msg is None:
                raise TransportError(f"connection closed while waiting for {' or '.join(kinds)}")
            if msg.kind not in kinds:
                raise TransportError(f"expected {' or '.join(kinds)}, got {msg.kind}")
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
        """The record SCHEMA.md writes. A bit value is padded to its field's width and
        never cut: a read record may hold one wider than lam allows, and writes back
        with its digits."""
        w_bits, y_bits = f"0{self.lam}b", f"0{self.lam + 1}b"  # SecurityParam: w equals lam
        return {
            "index": self.index,
            "seed": str(self.seed),
            "lam": self.lam,
            "theta": "".join(map(str, self.theta)),
            "keys": list(self.keys),
            "ys": None if self.ys is None else [format(y, y_bits) for y in self.ys],
            "round": self.round,
            "test_index": self.test_index,
            "preimages": None if self.preimages is None
            else [[str(b), format(x, w_bits)] for b, x in self.preimages],
            "ds": None if self.ds is None else [format(d, w_bits) for d in self.ds],
            "q": None if self.q is None else "".join(map(str, self.q)),
            "vs": None if self.vs is None else "".join(map(str, self.vs)),
            "flag": self.flag,
            "accept": self.accept,
            "abort": self.abort,
        }

    @staticmethod
    def from_record(rec: dict) -> "SessionTranscript":
        """The transcript a decoded record holds; TranscriptParseError names the first
        of SCHEMA.md's rules it breaks.

        The one owner of the record rules. Each field is read once, in the
        order the rules take them, and the transcript is built without the
        frozen __init__'s setattr per field.
        """
        try:
            ys, preimages, ds = rec["ys"], rec["preimages"], rec["ds"]
            index, seed, lam = rec["index"], _u64_decimal(rec["seed"]), rec["lam"]
            theta = _parsed(_THREE_BITS, rec["theta"], "theta is not a 3-bit string")
            key_list = rec["keys"]
            keys = tuple(key_list)
            y_values = None if ys is None else tuple(map(bits_value, ys))
            round, test_index = rec["round"], rec["test_index"]
            pairs = None if preimages is None else tuple(
                (_parsed(_BIT, b, "a preimage bit is not 0 or 1"), bits_value(x))
                for b, x in preimages)
            d_values = None if ds is None else tuple(map(bits_value, ds))
            q = _parsed(_NULL_OR_THREE_BITS, rec["q"], "q is not null or a 3-bit string")
            vs = _parsed(_NULL_OR_THREE_BITS, rec["vs"], "vs is not null or a 3-bit string")
            flag, accept, abort = rec["flag"], rec["accept"], rec["abort"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TranscriptParseError(f"bad transcript record: {exc}") from exc
        # SCHEMA.md's field rules; no decision reads bit-string widths
        rule = ("index is not an integer" if type(index) is not int
                else "seed is not a decimal string below 2^64" if seed is None
                else "keys is not a list of three key records" if not (
                    type(key_list) is list and len(keys) == 3
                    and type(keys[0]) is type(keys[1]) is type(keys[2]) is dict)
                else "ys is not null or a list of three"
                if ys is not None and not (type(ys) is list and len(ys) == 3)
                else "preimages is not null or a list of three pairs" if preimages is not None
                and not (type(preimages) is list and len(preimages) == 3
                         and type(preimages[0]) is type(preimages[1]) is type(preimages[2]) is list)
                else "ds is not null or a list of three"
                if ds is not None and not (type(ds) is list and len(ds) == 3)
                else "theta is not a basis choice" if theta not in verifier.BASIS_CHOICES
                else "round is not null, preimage or hadamard" if round not in _ROUNDS
                else _broken_verdict_rule(accept, flag, abort)
                or ("test_index is not null or 0-2"
                    if test_index not in (None, 0, 1, 2) or isinstance(test_index, bool)
                    else "lam is not a supported width"
                    if type(lam) is not int or not entcf.W_MIN <= lam <= entcf.W_MAX
                    else "a record without an abort has no round"
                    if abort is None and round is None
                    else None))
        if rule is not None:
            raise TranscriptParseError(f"bad transcript record: {rule}")
        return _built(index=index, seed=seed, lam=lam, theta=theta, keys=keys, ys=y_values,
                      round=round, test_index=test_index, preimages=pairs, ds=d_values, q=q,
                      vs=vs, flag=flag, accept=accept, abort=abort)


def _built(**fields) -> SessionTranscript:
    """A transcript of fields read and checked, built without the frozen __init__'s setattr
    per field."""
    t = object.__new__(SessionTranscript)
    vars(t).update(fields)
    return t


def _u64_decimal(text) -> int | None:
    """A seed, session id or key id: ASCII digits for a value below 2^64, as an int; else None."""
    ok = type(text) is str and text.isascii() and text.isdigit() and len(text) <= 20
    return value if ok and (value := int(text)) <= MASK64 else None


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


def _open_path(path, mode, **kwargs):
    """open(path, mode); a path no file can have (a NUL, a lone surrogate) raises
    ParameterError, where open raises ValueError."""
    try:
        return open(path, mode, **kwargs)
    except ValueError as exc:
        raise ParameterError(f"cannot open {path!r}: {exc}") from exc


@contextlib.contextmanager
def _text_file(sink):
    """sink as an open text file: None or a file object as is, a path opened for writing."""
    if sink is None or hasattr(sink, "write"):
        yield sink
        return
    with _open_path(sink, "w", encoding="utf-8") as fh:
        yield fh


# SCHEMA.md's record line: its keys in sorted order, each %s filled with that field's JSON
# text, as json.dumps(to_record(), sort_keys=True) writes it. The one literal of the record
# layout; _record_row fills it for _chunk_lines' byte matrix.
_RECORD = ('{"abort": %s, "accept": %s, "ds": %s, "flag": %s, "index": %s, "keys": %s, '
           '"lam": %s, "preimages": %s, "q": %s, "round": %s, "seed": "%s", '
           '"test_index": %s, "theta": "%s", "vs": %s, "ys": %s}\n')


def _transcript_line(t: SessionTranscript) -> str:
    """One transcript record as one JSON line, by SCHEMA.md's encoding rule."""
    return json.dumps(t.to_record(), sort_keys=True) + "\n"


def write_transcripts(sink, transcripts) -> None:
    """One self-describing record per line; sink is a path or a text file."""
    with _text_file(sink) as fh:
        fh.writelines(map(_transcript_line, transcripts))


@lru_cache(maxsize=None)
def _record_pattern() -> re.Pattern:
    """The regex of the record lines the writer emits without an abort: _RECORD, _KEY and
    their lists, each slot narrowed to the texts written there. Its groups are the slots
    _record_from_line reads, in line order; a null field's groups are None. Built on
    the first read, so that a run pays nothing for it.
    """
    def filled(template, *slots):  # template's text, each %s one slot's pattern
        pieces = template.split("%s")
        return "".join(re.escape(piece) + slot for piece, slot in zip(pieces, (*slots, "")))

    def one_of(texts):
        return "(" + "|".join(map(re.escape, texts)) + ")"

    bits = '"([01]+)"'
    # a JSON integer of at most 20 digits; the decoder reads wider ones, and refuses more
    # than 4,300, so they go to the JSON path
    integer = "(0|[1-9][0-9]{0,19})"
    text = r'([^"\\\x00-\x1f]*)'  # a JSON string's characters that need no escape
    three_bits = '(?:null|"([01]{3})")'
    key = filled(_KEY, text, text, text, "(?:%s)?" % filled(_SHIFT_ITEM, text), text)
    return re.compile(filled(
        _RECORD, "null", "(true|false)", "(?:null|%s)" % filled(_LIST3, bits, bits, bits),
        '"%s"' % one_of(f.value for f in Flag), integer, filled(_LIST3, key, key, key),
        integer, "(?:null|%s)" % filled(_LIST3, *[filled(_PAIR, "([01])", "([01]+)")] * 3),
        three_bits, '"%s"' % one_of(_ROUND_VALUES), "([0-9]{1,20})", "(?:null|([0-2]))",
        one_of("".join(map(str, choice)) for choice in verifier.BASIS_CHOICES), three_bits,
        "(?:null|%s)" % filled(_LIST3, bits, bits, bits)))


def _record_from_line(text: str) -> SessionTranscript:
    """The transcript a record line holds: SessionTranscript.from_record(_decoded(text)).

    A line that _record_pattern matches is read by its groups, and the
    transcript built as from_record builds it. Every other line goes to
    from_record, and so does a match that breaks a rule the pattern cannot
    see: accept against flag, lam's range and the seed's 2^64 bound. So
    which lines are read or refused, and every refusal's message, is
    from_record's.
    """
    m = _record_pattern().fullmatch(text)
    if m is None:
        return SessionTranscript.from_record(_decoded(text))
    (accept, d0, d1, d2, flag, index, f0, i0, p0, s0, w0, f1, i1, p1, s1, w1, f2, i2, p2, s2, w2,
     lam, b0, x0, b1, x1, b2, x2, q, round, seed, test_index, theta, vs, y0, y1, y2) = m.groups()
    lam, seed, accept = int(lam), int(seed), accept == "true"
    if accept != (flag == Flag.NONE) or not entcf.W_MIN <= lam <= entcf.W_MAX \
            or seed > MASK64:
        return SessionTranscript.from_record(_decoded(text))
    return _built(
        index=int(index), seed=seed, lam=lam, theta=_THREE_BITS[theta],
        keys=(_key_map(f0, i0, p0, s0, w0), _key_map(f1, i1, p1, s1, w1),
              _key_map(f2, i2, p2, s2, w2)),
        ys=None if y0 is None else (int(y0, 2), int(y1, 2), int(y2, 2)),
        round=round, test_index=None if test_index is None else int(test_index),
        preimages=None if b0 is None else (
            (_BIT[b0], int(x0, 2)), (_BIT[b1], int(x1, 2)), (_BIT[b2], int(x2, 2))),
        ds=None if d0 is None else (int(d0, 2), int(d1, 2), int(d2, 2)),
        q=_NULL_OR_THREE_BITS[q], vs=_NULL_OR_THREE_BITS[vs], flag=flag,
        accept=accept, abort=None)


def _key_map(family, key_id, perm_seed, shift, w) -> dict:
    """A key record as the JSON decoder reads it: _KEY's fields in line order, a claw key's
    shift before w."""
    if shift is None:
        return {"family": family, "id": key_id, "perm_seed": perm_seed, "w": w}
    return {"family": family, "id": key_id, "perm_seed": perm_seed, "shift": shift, "w": w}


def iter_transcripts(path):
    """Parse a transcript file line by line; a bad line raises TranscriptParseError naming it."""
    with _open_path(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                if not text.strip(" \t\n\r"):  # JSON whitespace alone
                    continue
                t = _record_from_line(text)
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
        self.cells[(t.round, _THETA_CLASSES[t.theta], t.flag)] += 1

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
_QUESTIONS = tuple(_THREE_BITS.values())  # three bits by their code, MSB first


def _text_table(texts) -> np.ndarray:
    """ASCII texts as the rows of a uint8 matrix, each NUL-padded to the longest."""
    return np.array(texts, dtype="S").view(np.uint8).reshape(len(texts), -1)


# field texts by code, for _chunk_lines' lookups: a flag's accept and flag texts; three
# bits' (q, vs) by their code, 8 for null; a round's by hadamard; test_index, 3 for null;
# theta by its index; a key's family by claw; every byte's bits; and every four-digit
# group, 0000-9999
_ACCEPT_TEXTS = _text_table(["true" if f is Flag.NONE else "false" for f in Flag])
_FLAG_TEXTS = _text_table([json.dumps(f.value) for f in Flag])
_THREE_BIT_TEXTS = _text_table([*map(json.dumps, _THREE_BITS), "null"])
_ROUND_TEXTS = _text_table([json.dumps(r) for r in _ROUND_VALUES])
_TEST_INDEX_TEXTS = _text_table(["0", "1", "2", "null"])
_THETA_TEXTS = _text_table(["".join(map(str, bits)) for bits in verifier.BASIS_CHOICES])
_FAMILY_TEXTS = _text_table([entcf.Family.INJECTIVE.value, entcf.Family.CLAW.value])
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) | 48
_DIGITS = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10 + 48).astype(np.uint8)
# a uint64 has at most 20 digits: it has k + 1 where k of these are at most it, and row k
# of _LEADING keeps the last k + 1 of 20 bytes
_TENS = np.array([10**k for k in range(1, 20)], dtype=np.uint64)
_LEADING = np.tri(20, dtype=np.uint8)[:, ::-1]
# entcf.key_record's map as JSON text: family, id, perm_seed, then a claw key's shift item
# (_SHIFT_ITEM) or nothing, then w
_KEY = '{"family": "%s", "id": "%s", "perm_seed": "%s", %s"w": "%s"}'
_SHIFT_ITEM = '"shift": "%s", '
_LIST3 = "[%s, %s, %s]"  # a JSON list of three items, as json.dumps separates them
_PAIR = '["%s", "%s"]'  # a preimage pair: its bit and x
_LANES = np.array([[_VERIFIER_LANE], [_PROVER_LANE]], dtype=np.uint64)  # by row
# where _fail_table's index holds each input: tops, us and vs by coordinate, q, test_index
_FAIL_SHIFTS = np.array([8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 9], dtype=np.uint64)[:, None]


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
    """A chunk's sessions as arrays: one element per session, or (3, n) with a row per
    coordinate.

    theta indexes BASIS_CHOICES and flag indexes Flag. Every session has ys;
    b and x, the opened preimage pairs, are a preimage round's record, and
    ds, q, vs and test_index (theta 000 only) a Hadamard round's. Each
    column holds a value for every session, and the other round's values
    mean nothing.
    """

    seeds: np.ndarray
    theta: np.ndarray
    hadamard: np.ndarray
    flag: np.ndarray
    key_id: np.ndarray
    perm_seed: np.ndarray
    shift: np.ndarray
    ys: np.ndarray
    b: np.ndarray
    x: np.ndarray
    ds: np.ndarray
    q: np.ndarray
    test_index: np.ndarray
    vs: np.ndarray


def _array_chunk(lam, plan, master_seed, start, stop) -> _Columns:
    """Sessions start..stop-1 of a covered batch, drawn and checked as run_session does.

    Each draw and each check is taken once over the whole chunk, in the
    order run_session makes them. A draw that only some sessions make (an
    injective key's branch bit, a preimage round's claw coin, a Hadamard
    round's words) is masked by them, so every other session's stream stays
    where it is. The keys go to entcf's permutation as (3, n) arrays. The
    prover's 32-bit draws are one masked _Stream.halves call, and the
    Hadamard check is one lookup in _fail_table, by each session's basis
    triple and inputs. Only a chunk of Hadamard rounds skips a step, the
    preimage check; every chunk runs the Hadamard code, its draws masked to
    that round's sessions. Each session redraws its rejected halves
    (_Stream.below), and one whose key ids clash raises where run_session would.
    """
    table_key, flip, theta, round = plan
    seeds = derive_seed(master_seed, np.arange(start, stop, dtype=np.uint64))
    n, w = len(seeds), lam
    # one philox_words call per stream, for the blocks its first draws read: the
    # verifier's and prover's first two in one pass over 2n keys (the verifier reads
    # seven words, a prover six), and block 0 of each keygen and mask stream; a redrawn
    # half, or a Hadamard round's bit flips (prover words 6-8), reads on
    lane_keys = derive_seed(seeds, _LANES)
    words = philox_words(lane_keys.ravel(), 0, 2)
    ver, prover = _Stream(words[:, :n], lane_keys[0]), _Stream(words[:, n:], lane_keys[1])
    # verifier.begin: the basis triple, then a 64-bit key seed per coordinate
    t_index = ver.below(5) if theta is None else np.full(n, theta, dtype=np.uint64)
    key_seeds = np.concatenate([ver.u64() for _ in range(3)])
    # OracleRegistry.gen for the three coordinates at once, coordinate-major; an
    # injective key's shift is its stream's last draw, made and never read
    claw = _CLAW.take(t_index, axis=1)
    lane = np.where(claw.ravel(), np.uint64(entcf._LANE_BY_FAMILY["F"]),
                    np.uint64(entcf._LANE_BY_FAMILY["G"]))
    keygen_keys = derive_seed(key_seeds, lane, w)
    keygen = _Stream(philox_words(keygen_keys, 0, 1), keygen_keys)
    key_id, perm_seed = keygen.u64().reshape(3, n), keygen.u64().reshape(3, n)
    shift = np.where(claw, 1 + keygen.below((1 << w) - 1).reshape(3, n), 0)
    # begin a session whose key ids clash, so that gen raises KeyLookupError where it would
    clash = (key_id[0] == key_id[1]) | (key_id[0] == key_id[2]) | (key_id[1] == key_id[2])
    for i in np.flatnonzero(clash).tolist():
        _session_lanes(entcf.SecurityParam(lam), master_seed, start + i,
                       None if theta is None else verifier.BASIS_CHOICES[theta])
    # the keys in the Trapdoor fields entcf's permutation reads
    masks = _Stream(philox_words(perm_seed.ravel(), 0, 1), perm_seed.ravel())
    m_in, m_out = masks.bits(w + 1).reshape(3, n), masks.bits(w + 1).reshape(3, n)
    keys = SimpleNamespace(w=w, offset=np.where(claw, shift, np.uint64(1 << w)),
                           mask_in=m_in, mask_out=m_out)
    # receive_commit's round coin, then send_questions' q and test index
    if round is None:
        hadamard = ver.bits(1) == 1
    else:
        hadamard = np.full(n, round is RoundType.HADAMARD)
    q, test_index = ver.bits(3), ver.below(3)  # the stream's last draw, for every session

    # the prover's 32-bit draws, in its order, as one masked draw: HonestProver.commit's
    # sample_commitment per coordinate (an injective key's b then x, or a claw key's x0
    # with b = 0), answer_preimage's claw coins and answer_hadamard's ds
    masks = np.ones((12, n), dtype=bool)
    masks[0:6:2], masks[6:9], masks[9:] = ~claw, claw & ~hadamard, hadamard
    widths = np.array([1, w] * 3 + [1] * 3 + [w] * 3, dtype=np.uint64)[:, None]
    drawn = prover.halves(masks) >> 32 - widths
    b, x = drawn[0:6:2] & masks[0:6:2], drawn[1:6:2]
    ys = entcf._image(keys, b, x)
    # answer_preimage opens a claw on a fair-coin branch, and check_preimage grades the
    # pairs; a chunk of Hadamard rounds only has nothing to grade here
    flag = np.zeros(n, dtype=np.int8)
    if not hadamard.all():
        coins = drawn[6:9]
        b, x = np.where(claw, coins, b), x ^ coins * shift
        opens = entcf._opens(keys, b, x, ys).all(axis=0)
        flag = np.where(opens | hadamard, flag, _FLAGS_BY_CODE.index(Flag.FAIL_PRE))
    # answer_hadamard: a uniform d per coordinate; a claw collapses to <d, x0 ^ x1>
    # in X, and x0 ^ x1 is the shift, so the prover's bit is the verifier's u. A preimage
    # round's values here mean nothing: its flag is kept, and its ds and vs are null
    ds = drawn[9:]
    us = np.bitwise_count(ds & shift).astype(np.uint64) & 1
    opened = np.where(claw, us, b)
    # answer_questions: one uniform against the row of the register's answer edges
    code = t_index << 6 | opened[0] << 5 | opened[1] << 4 | opened[2] << 3 | q
    rows = _answer_table(*table_key).take(code, axis=0)
    outcome = sample_edges_rows(rows, prover.uniform(hadamard)).astype(np.uint64)
    vs = np.stack([outcome >> 2 & 1, outcome >> 1 & 1, outcome & 1])
    if flip > 0:
        vs ^= np.stack([prover.uniform(hadamard) < flip for _ in range(3)])
    # check_hadamard: each session's flag code, by its basis triple, from _fail_table
    tops = entcf._perm_backward(keys, ys) >> w
    inputs = np.concatenate([tops, us, vs, q[None], test_index[None]]) << _FAIL_SHIFTS
    flag = np.where(hadamard, _fail_table()[t_index, inputs.sum(axis=0)], flag)
    return _Columns(seeds, t_index, hadamard, flag, key_id, perm_seed,
                    shift, ys, b, x, ds, q, test_index, vs)


@lru_cache(maxsize=None)
def _fail_table() -> np.ndarray:
    """check_hadamard's flag code (an index of Flag) for each basis triple and input: entry
    (t, q << 11 | test_index << 9 | tops << 6 | us << 3 | vs), each three bits MSB first.

    verifier.hadamard_fails decides every entry, on arrays of all 2^14 inputs;
    built on the first array chunk.
    """
    inputs = np.arange(1 << 14, dtype=np.uint16)
    q, tops, us, vs = ([inputs >> at + 2 - k & 1 for k in range(3)] for at in (11, 6, 3, 0))
    test_index = inputs >> 9 & 3
    return np.array([np.where(verifier.hadamard_fails(bases, q, test_index, tops, us, vs) != 0,
                              np.int8(_FLAGS_BY_CODE.index(verifier.failure_flag(bases))), 0)
                     for bases in verifier.BASIS_CHOICES])


@lru_cache(maxsize=None)
def _answer_table(cls, depol: float) -> np.ndarray:
    """The prover's answer edges, one row per theta index and pattern code: row
    64 theta + (opened bits << 3 | question bits), stacked from provers.answer_edges of
    each opened register.

    Built whole on a prover's first batch, so that no later chunk pays for a
    row and a batch's time does not depend on which rows came before it.
    """
    registers = [tuple(entcf.CollapsedQubit("X" if claw else "Z", bit)
                       for claw, bit in zip(bases, bits))
                 for bases in verifier.BASIS_CHOICES for bits in _QUESTIONS]
    return np.concatenate([provers.answer_edges(qubits, cls._gate(qubits), depol)
                           for qubits in registers])


@lru_cache(maxsize=None)
def _record_row(lam: int) -> tuple[np.ndarray, dict]:
    """A record line of width lam as a row of _chunk_lines' byte matrix, and each field's
    (start, stop) columns in it. The row is _RECORD with the fields every line shares
    filled in (abort, lam, the key list's layout) and a NUL slot for each other field,
    as wide as its widest text; a bit list or a shift item is a slot, as is each bit
    text in it. A slot narrower or wider than its texts fails where they are written.
    """
    slots = {}

    def widened(template, fields, at):  # template's text from column at
        pieces = template.split("%s")
        text = pieces[0]
        for (name, width), piece in zip(fields, pieces[1:]):
            inner = widened(*width, at + len(text)) if type(width) is tuple else "\0" * width
            slots.setdefault(name, []).append((at + len(text), at + len(text) + len(inner)))
            text += inner + piece
        return text

    bits, pairs = _LIST3 % (('"%s"',) * 3), _LIST3 % ((_PAIR,) * 3)
    key = _KEY % ("%s", "%s", "%s", "%s", lam)
    text = widened(_RECORD % ("null", *["%s"] * 4, _LIST3 % (key, key, key), lam,
                              *["%s"] * 8), [
        ("accept", 5), ("ds", (bits, [("d", lam)] * 3)), ("flag", 12), ("index", 20),
        *[("family", 1), ("id", 20), ("perm_seed", 20),
          ("shift", (_SHIFT_ITEM, [("shift_bits", lam)]))] * 3,
        ("preimages", (pairs, [("b", 1), ("x", lam)] * 3)),
        ("q", 5), ("round", 10), ("seed", 20), ("test_index", 4), ("theta", 3), ("vs", 5),
        ("ys", (bits, [("y", lam + 1)] * 3))], 0)
    return np.frombuffer(text.encode(), dtype=np.uint8), slots


def _bit_bytes(values: np.ndarray, width: int) -> np.ndarray:
    """The MSB-first text of each uint64 value's low width bits, as width ASCII bytes: the
    texts of the low bytes that hold them, from _BYTE_BITS."""
    octets = -(-width // 8)
    low = values.astype(">u8").view(np.uint8).reshape(*values.shape, 8)[..., 8 - octets:]
    return _BYTE_BITS.take(low, axis=0).reshape(*values.shape, 8 * octets)[..., -width:]


def _decimals(values: np.ndarray) -> np.ndarray:
    """str of each uint64 value as 20 ASCII bytes: its digits, right-aligned after NULs."""
    groups = np.empty((*values.shape, 5), dtype=np.uint64)  # of four digits, MSB first
    high, low = np.divmod(values, 10**8)
    groups[..., 0], middle = np.divmod(high, 10**8)
    groups[..., 1], groups[..., 2] = np.divmod(middle, 10**4)
    groups[..., 3], groups[..., 4] = np.divmod(low, 10**4)
    # every group is below 10^4, so its int64 view indexes the table without a copy
    digits = _DIGITS.take(groups.view(np.int64), axis=0).reshape(*values.shape, 20)
    digits *= _LEADING.take(np.searchsorted(_TENS, values, side="right"), axis=0)
    return digits


def _chunk_lines(lam, cols: _Columns, start) -> np.ndarray:
    """A chunk's transcript lines in index order, as one uint8 array of their bytes: the
    records run_session gives each session.

    Each session gets a row of one byte matrix, a copy of _record_row(lam),
    and each field is written into its slots for the whole chunk at once: a
    text chosen by a code is a row of its table, a bit text from its bytes'
    texts and a decimal from four-digit groups. Texts are NUL-padded
    and a field that only the other round has is null, so the lines are the
    matrix without its NULs.
    """
    row, slots = _record_row(lam)
    n, had = len(cols.seeds), cols.hadamard
    m = np.empty((n, len(row)), dtype=np.uint8)
    m[:] = row

    def put(name, texts):  # texts: one (n, width) matrix per slot of name
        for (a, b), text in zip(slots[name], texts):
            m[:, a:b] = text

    claw = _CLAW.take(cols.theta, axis=1)
    vs = cols.vs[0] << 2 | cols.vs[1] << 1 | cols.vs[2]
    for name, table, codes in (
            ("accept", _ACCEPT_TEXTS, cols.flag), ("flag", _FLAG_TEXTS, cols.flag),
            ("family", _FAMILY_TEXTS, claw), ("q", _THREE_BIT_TEXTS, np.where(had, cols.q, 8)),
            ("round", _ROUND_TEXTS, had), ("theta", _THETA_TEXTS, cols.theta),
            ("test_index", _TEST_INDEX_TEXTS,
             np.where(had & (cols.theta == 0), cols.test_index, 3)),
            ("vs", _THREE_BIT_TEXTS, np.where(had, vs, 8))):
        put(name, table.take(codes, axis=0).reshape(-1, n, table.shape[1]))
    for name, values, width in (("y", cols.ys, lam + 1), ("d", cols.ds, lam), ("b", cols.b, 1),
                                ("x", cols.x, lam), ("shift_bits", cols.shift, lam)):
        put(name, _bit_bytes(values, width))
    for name, values in (("index", np.arange(start, start + n, dtype=np.uint64)[None]),
                         ("seed", cols.seeds[None]),
                         ("id", cols.key_id), ("perm_seed", cols.perm_seed)):
        put(name, _decimals(values))
    for name, rows, text in (("ds", [~had], b"null"), ("preimages", [had], b"null"),
                             ("shift", ~claw, b"")):
        for (a, b), other in zip(slots[name], rows):
            m[other, a:b] = np.frombuffer(text.ljust(b - a, b"\0"), dtype=np.uint8)
    # drop the NULs a block at a time, each block's bytes moved down to the front of the
    # matrix itself, so that no mask or copy of the whole matrix is made
    m, end = m.reshape(-1), 0
    for a in range(0, m.size, 1 << 16):
        block = m[a:a + (1 << 16)]
        block = block[block != 0]
        m[end:end + block.size] = block
        end += block.size
    return m[:end]


def _batch_chunk(sp, factory, plan, master_seed, pins, start, stop, stats, out, kept):
    """Sessions start..stop-1 of a batch: fold their outcomes into stats, write their
    transcript lines to out and append their transcripts to kept, in index order, where
    either is not None.

    With a plan the chunk runs on the array path, every session of it;
    without one (a scripted prover) run_session runs every session. The
    chunk's one output is the text of its lines: it goes to out in one
    write, and kept gets the transcripts _record_from_line reads back from
    it. A stats-only chunk renders none.
    """
    if plan is None:
        transcripts = [run_session(sp, factory, master_seed, index, **pins)
                       for index in range(start, stop)]
        for t in transcripts:
            stats.add(t)
    else:
        cols = _array_chunk(sp.lam, plan, master_seed, start, stop)
        counts = np.bincount((cols.hadamard * 5 + cols.theta.astype(np.intp)) * 4 + cols.flag)
        for c in np.flatnonzero(counts).tolist():
            theta_cls = verifier.theta_class(verifier.BASIS_CHOICES[c // 4 % 5])
            cell = (_ROUND_VALUES[c // 20], theta_cls, _FLAGS_BY_CODE[c % 4].value)
            stats.cells[cell] += int(counts[c])
    if out is None and kept is None:
        return
    text = ("".join(map(_transcript_line, transcripts)) if plan is None
            else codecs.decode(_chunk_lines(sp.lam, cols, start), "utf-8"))
    if kept is not None:
        # a line's one line break is its end: json.dumps escapes the others, and a rendered
        # line is digits and bits
        kept += [_record_from_line(line) for line in text.splitlines(keepends=True)]
    if out is not None:
        out.write(text)


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
    indices at a time, and writes each chunk's transcript lines to the sink
    in one write as the chunk ends, so its memory does not grow with n
    unless collect=True keeps the list; collect=True reads its transcripts
    back from those lines. A chunk of an honest, stabilizer or noisy prover
    runs on the array path: one pass of array operations over all of the
    chunk's sessions takes every draw and check, rejected halves redrawn
    included, with the same outcomes as run_session, and its lines are
    rendered from those columns as one byte matrix, with the same bytes.
    A scripted chunk runs run_session for every index. A bad theta or round
    pin raises ParameterError before any session, whatever n is.

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


def _encodes(text: str, encoding: str) -> bool:
    try:
        text.encode(encoding)
    except UnicodeError:
        return False
    return True


def parse_endpoint(spec: str):
    """Endpoint forms: 'stdio', 'host:port', or 'tcp:host:port', the port ASCII digits
    for a value of at most 65535, the host without a NUL and, when not ASCII,
    IDNA-encodable: the host text the socket module can send to a resolver."""
    if spec == "stdio":
        return ("stdio",)
    body = spec[4:] if spec.startswith("tcp:") else spec
    host, sep, port = body.rpartition(":")
    ok = (sep and host and "\x00" not in host and (host.isascii() or _encodes(host, "idna"))
          and port.isascii() and port.isdigit() and len(port) <= 5)
    if not ok or int(port) > 0xFFFF:
        raise ParameterError(f"endpoint {spec!r} wants 'stdio' or 'host:port', port 0-65535")
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
    """Host the verifier side of n sessions over one peer connection. The sink opens
    first, as in run_batch, so a sink no file can take costs no served session."""
    if n_sessions < 0:
        raise ParameterError(f"session count {n_sessions} is negative")
    kind = parse_endpoint(endpoint)
    with _text_file(sink) as out:
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
                with conn, _stream_files(conn) as (rfile, wfile):
                    transcripts = _serve_sessions(rfile, wfile, sp, master_seed, n_sessions)
        if out is not None:
            write_transcripts(out, transcripts)
    return FlagStats.from_transcripts(transcripts), transcripts


def connect(endpoint: str, prover_spec: str, master_seed: int) -> list[dict]:
    """Run the prover side against a serving verifier; returns verdicts."""
    factory = parse_prover_spec(prover_spec)
    kind = parse_endpoint(endpoint)
    if kind[0] == "stdio":
        return _client_sessions(sys.stdin.buffer, sys.stdout.buffer, factory, master_seed)
    _, host, port = kind
    with (socket.create_connection((host, port), timeout=IDLE_TIMEOUT) as conn,
          _stream_files(conn) as (rfile, wfile)):
        return _client_sessions(rfile, wfile, factory, master_seed)


@contextlib.contextmanager
def _stream_files(conn):
    """conn's read and write files, both closed on the way out, so that the socket closes
    with conn whatever ends the sessions: a file left open keeps it open, and the peer
    would wait out IDLE_TIMEOUT. A frame a broken peer never took is dropped on close."""
    with conn.makefile("rb") as rfile:
        wfile = conn.makefile("wb")
        try:
            yield rfile, wfile
        finally:
            with contextlib.suppress(OSError):
                wfile.close()


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
        index, lam = payload["index"], payload["lam"]
        advertised = [(_u64_decimal(k["id"]), k["w"]) for k in payload["keys"]]
        if not type(index) is type(lam) is int or any(
                key_id is None or type(w) is not int for key_id, w in advertised):
            raise ValueError("index, lam and each w are not JSON integers, or an id is not decimal")
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
    # an aborting VERDICT may come where ROUND or QUESTIONS is due; a flag needs the last answer
    msg, graded = chan.expect("ROUND", "VERDICT"), False
    if msg.kind == "ROUND":
        round_value = msg.payload.get("round")
        if round_value == RoundType.PREIMAGE.value:
            answers = prover.answer_preimage()
            chan.send("PREIMAGES",
                      {"answers": [[str(int(b)), _answer_bits(x, w)] for b, x in answers]})
            msg, graded = chan.expect("VERDICT"), True
        elif round_value == RoundType.HADAMARD.value:
            ds = prover.answer_hadamard()
            chan.send("HADAMARD_D", {"ds": [_answer_bits(d, w) for d in ds]})
            msg = chan.expect("QUESTIONS", "VERDICT")
            if msg.kind == "QUESTIONS":
                q = msg.payload.get("q")
                q = _parsed(_THREE_BITS, q, f"malformed QUESTIONS payload {q!r}", TransportError)
                vs = prover.answer_questions(q)
                chan.send("ANSWERS", {"vs": "".join(str(int(v)) for v in vs)})
                msg, graded = chan.expect("VERDICT"), True
        else:
            raise TransportError(f"malformed ROUND payload {round_value!r}")
    verdict = {key: msg.payload.get(key) for key in ("accept", "flag", "abort")}
    rule = _broken_verdict_rule(**verdict)
    if rule is None and not graded and verdict["abort"] is None:
        rule = "a flag before the round is answered"
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
            value = bits_value(s)
        except (TypeError, ValueError) as exc:
            raise MalformedAnswerError(f"bad bit string {s!r}") from exc
        if len(s) != width:
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
            x = bits_value(x_raw)
        except (TypeError, ValueError) as exc:
            raise MalformedAnswerError(f"bad preimage string {x_raw!r}") from exc
        if len(x_raw) != w:
            raise MalformedAnswerError(f"preimage {x_raw!r} is not {w} bits")
        out.append((b, x))
    return out
