"""Engine tests: codec, transcripts, batch determinism, stats, wire transport."""

import contextlib
import dataclasses
import functools
import io
import json
import math
import multiprocessing
import socket
import sys
import threading
import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicert import engine, entcf, provers, qsim, util, verifier
from magicert.engine import (
    FlagStats,
    Message,
    SessionTranscript,
    iter_transcripts,
    parse_endpoint,
    read_transcripts,
    run_batch,
    run_session,
    write_transcripts,
)
from magicert.entcf import SecurityParam
from magicert.errors import (
    MalformedAnswerError,
    ParameterError,
    TranscriptParseError,
    TransportError,
)
from magicert.provers import HonestProver, ScriptedProver, StabilizerProver, parse_prover_spec
from magicert.util import (
    _rekeyed,
    bits_str,
    bits_value,
    derive_seed,
    lemire,
    lemire_rejects,
    mix64,
    philox_words,
    rng_from,
    sample_edges,
    sample_edges_rows,
)
from magicert.verifier import RoundType

SP4 = SecurityParam(4)
HONEST = parse_prover_spec("honest")
DEEP_FRAME = b"[" * 100000 + b"]" * 100000 + b"\n"
UNTERMINATED = b"0" * (8 << 20)  # no newline: eight times the frame cap
# past CPython's 4,300-digit cap on int parsing, where json.loads raises a plain ValueError
HUGE_INT = b"1" * 5000
HUGE_COMMIT = b'{"v":1,"sid":"1","seq":1,"kind":"COMMIT","payload":{"ys":[' + HUGE_INT + b']}}\n'
UNWRITABLE_PREIMAGES = [[0, 99999], [1, 0], [0, 0]]  # 99999 is wider than w at lam 4
UNPARSEABLE_BITS = ["", "0x1", None, 7]  # wire fields that are no bit string
TABLE_SPECS = ["honest", "stabilizer", "noisy:depol:1e-12", "noisy:depol:0.05",
               "noisy:depol:0.2", "noisy:depol:1.0"]
# every opened register an honest device's answer table is built from, as engine builds them
HONEST_REGISTERS = {tuple(entcf.CollapsedQubit("X" if claw else "Z", bit)
                          for claw, bit in zip(bases, bits))
                    for bases in verifier.BASIS_CHOICES for bits in engine._QUESTIONS}
BAD_PINS = [{"round": "bogus"}, {"theta": "abc"}, {"theta": (1, 1, 0)}, {"theta": 5},
            {"round": ["hadamard"]}]


def answering(**answers):
    """A prover factory: an honest device whose named methods return the given answers."""
    class Answering(HonestProver):
        def commit(self, handles):
            ys = super().commit(handles)
            return answers["commit"](ys) if "commit" in answers else ys

        def answer_preimage(self):
            super().answer_preimage()
            return answers["answer_preimage"]

        def answer_hadamard(self):
            ds = super().answer_hadamard()
            return answers.get("answer_hadamard", ds)

        def answer_questions(self, q):
            vs = super().answer_questions(q)
            return answers.get("answer_questions", vs)

    return lambda registry, rng, index: Answering(registry, rng)


# --------------------------------------------------------------------- codec


class TestMessageCodec:
    def test_round_trip(self):
        msg = Message(sid=2**63 + 5, seq=3, kind="QUESTIONS", payload={"q": "010"})
        line = msg.encode()
        assert line.endswith(b"\n")
        assert Message.decode(line) == msg

    def test_encode_is_compact_single_line(self):
        line = Message(sid=1, seq=0, kind="KEYS", payload={"lam": 4}).encode()
        assert line.count(b"\n") == 1
        assert b" " not in line

    @pytest.mark.parametrize(
        "line",
        [
            b"not json\n",
            b"[1,2,3]\n",
            b'{"v":2,"sid":"1","seq":0,"kind":"KEYS","payload":{}}\n',
            b'{"kind":"KEYS","payload":{},"seq":0,"sid":"5","v":true}\n',
            b'{"v":1,"sid":"1","seq":0,"kind":"NOPE","payload":{}}\n',
            b'{"v":1,"sid":"1","seq":-1,"kind":"KEYS","payload":{}}\n',
            b'{"v":1,"sid":"1","seq":0,"kind":"KEYS","payload":[]}\n',
            b'{"v":1,"sid":"x","seq":0,"kind":"KEYS","payload":{}}\n',
            b'{"v":1,"seq":0,"kind":"KEYS","payload":{}}\n',
            pytest.param(DEEP_FRAME, id="deeply-nested"),
            pytest.param(HUGE_COMMIT, id="huge-integer"),
        ],
    )
    def test_malformed_frames_raise(self, line):
        with pytest.raises(TransportError):
            Message.decode(line)
        with pytest.raises(TransportError):
            engine._recv(io.BytesIO(line))


    @pytest.mark.parametrize("sid, seq", [
        (b"12", b"0"), (b'" 1_2 "', b"0"), (b'"\\u0661\\u0662"', b"0"),
        ('"١٢"'.encode(), b"0"), (b'"-12"', b"0"), (b'"18446744073709551616"', b"0"),
        (b"true", b"0"), (b'"12"', b"true"),
    ], ids=["int-sid", "spaced-underscored-sid", "escaped-arabic-sid", "arabic-sid",
            "negative-sid", "sid-2^64", "bool-sid", "bool-seq"])
    def test_frame_numbers_are_read_by_their_schema_types(self, sid, seq):
        line = b'{"v":1,"sid":' + sid + b',"seq":' + seq + b',"kind":"KEYS","payload":{}}\n'
        with pytest.raises(TransportError):
            Message.decode(line)
        assert Message.decode(line.replace(sid, b'"12"').replace(b'"seq":' + seq, b'"seq":1')
                              ) == Message(sid=12, seq=1, kind="KEYS", payload={})

    def test_frame_cap_counts_the_newline(self):
        at_cap = b"x" * (engine.MAX_FRAME - 1) + b"\n"
        with pytest.raises(TransportError, match="undecodable frame"):
            engine._recv(io.BytesIO(at_cap))
        with pytest.raises(TransportError, match="frame longer than"):
            engine._recv(io.BytesIO(b"x" + at_cap))


class TestBitsValue:
    @given(s=st.text() | st.text(alphabet="01"))
    @example(s="0b1")
    @example(s=" 1")
    @example(s="1_0")
    @example(s="+1")
    @example(s="\u0661")  # ARABIC-INDIC DIGIT ONE, which int(s, 2) reads as 1
    @example(s="01\n")
    @example(s="")
    def test_accepts_exactly_the_per_character_rule(self, s):
        if s and all(ch in "01" for ch in s):
            assert bits_value(s) == int(s, 2)
            assert bits_str(bits_value(s), len(s)) == s
        else:
            with pytest.raises(ValueError, match="not a bit string"):
                bits_value(s)

    @pytest.mark.parametrize("bad", [None, 7, b"01", ["0", "1"]])
    def test_non_text_raises_type_error(self, bad):
        with pytest.raises(TypeError, match="not a bit string"):
            bits_value(bad)


# --------------------------------------------------------------- transcripts


class TestTranscriptPersistence:
    def sample_transcripts(self):
        out = [
            run_session(SP4, HONEST, master_seed=900, index=0, round=RoundType.PREIMAGE),
            run_session(SP4, HONEST, master_seed=900, index=1, round=RoundType.HADAMARD),
            run_session(SP4, HONEST, master_seed=900, index=2),
        ]
        # an aborted one: script with too few commitments
        bad = lambda reg, rng, idx: ScriptedProver({"ys": [0, 1]})
        out.append(run_session(SP4, bad, master_seed=900, index=3))
        return out

    def test_record_round_trip(self):
        for t in self.sample_transcripts():
            rec = json.loads(json.dumps(t.to_record()))
            assert SessionTranscript.from_record(rec) == t

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        transcripts = self.sample_transcripts()
        write_transcripts(path, transcripts)
        assert read_transcripts(path) == transcripts

    def test_empty_file_gives_empty_list(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_transcripts(path) == []

    def test_corrupted_line_is_named(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = self.sample_transcripts()[0]
        path.write_text(json.dumps(good.to_record()) + "\n{broken\n")
        with pytest.raises(TranscriptParseError, match="line 2"):
            read_transcripts(path)

    @pytest.mark.parametrize("bad", [DEEP_FRAME, b"\xff\xfe\n", b'{"index": ' + HUGE_INT + b"}\n"],
                             ids=["deeply-nested", "not-utf8", "huge-integer"])
    def test_hostile_line_is_named(self, tmp_path, bad):
        path = tmp_path / "hostile.jsonl"
        good = self.sample_transcripts()[0]
        path.write_bytes(json.dumps(good.to_record()).encode() + b"\n" + bad)
        with pytest.raises(TranscriptParseError, match="line 2"):
            read_transcripts(path)

    @pytest.mark.parametrize("which, edits, rule", [
        pytest.param(0, {"theta": "2"}, "theta is not", id="theta"),
        pytest.param(0, {"theta": "\u0661\u0661\u0661"}, "theta is not", id="theta-arabic-digits"),
        pytest.param(0, {"theta": [1, 1, 1]}, "theta is not", id="theta-list"),
        pytest.param(1, {"q": "\u0660\u0661\u0661"}, "q is not", id="q-arabic-digits"),
        pytest.param(1, {"vs": [0, 1, 1]}, "vs is not", id="vs-list"),
        pytest.param(0, {"preimages": [["01", "0000"]] * 3}, "a preimage bit is not",
                     id="preimage-bit-two-chars"),
        pytest.param(0, {"preimages": [[1, "0000"]] * 3}, "a preimage bit is not",
                     id="preimage-bit-int"),
        pytest.param(0, {"preimages": [["\u0661", "0000"]] * 3}, "a preimage bit is not",
                     id="preimage-bit-arabic-digit"),
        pytest.param(0, {"seed": "\u0663"}, "seed is not", id="seed-arabic-digit"),
        pytest.param(0, {"seed": " 7_0 "}, "seed is not", id="seed-spaces-underscore"),
        pytest.param(0, {"seed": "-1"}, "seed is not", id="seed-negative"),
        pytest.param(0, {"seed": str(2**64)}, "seed is not", id="seed-2-to-64"),
        pytest.param(0, {"seed": str(2**70)}, "seed is not", id="seed-2-to-70"),
        pytest.param(0, {"keys": "abc"}, "keys is not", id="keys-string"),
        pytest.param(0, {"keys": [1, 2, 3]}, "keys is not", id="keys-ints"),
        pytest.param(0, {"keys": []}, "keys is not", id="keys-empty"),
        pytest.param(0, {"keys": {"id": "1"}}, "keys is not", id="keys-object"),
        pytest.param(0, {"ys": "0101"}, "ys is not", id="ys-string"),
        pytest.param(0, {"ys": ["00000"]}, "ys is not", id="ys-one"),
        pytest.param(1, {"ds": ["0000"] * 5}, "ds is not", id="ds-five"),
        pytest.param(0, {"preimages": [["0", "0000"]]}, "preimages is not", id="preimages-one"),
        pytest.param(0, {"preimages": {}}, "preimages is not", id="preimages-object"),
        pytest.param(0, {"preimages": ["01"] * 3}, "preimages is not", id="preimages-strings"),
        pytest.param(0, {"index": "\u0663"}, "index is not", id="index-arabic-digit"),
        pytest.param(0, {"index": True}, "index is not", id="index-bool"),
        pytest.param(0, {"lam": "4"}, "lam is not", id="lam-string"),
        pytest.param(0, {"round": "bogus"}, "round is not", id="round"),
        pytest.param(0, {"flag": "maybe"}, "flag is not", id="flag"),
        pytest.param(0, {"accept": "false"}, "accept is not a boolean", id="accept"),
        pytest.param(3, {"abort": 5}, "abort is not", id="abort"),
        pytest.param(1, {"test_index": 3}, "test_index is not", id="test-index"),
        pytest.param(0, {"lam": 3}, "lam is not", id="lam"),
        pytest.param(0, {"flag": None, "accept": False}, "not exactly one",
                     id="flag-and-abort-null"),
        pytest.param(0, {"round": None}, "a record without an abort", id="no-round"),
        pytest.param(0, {"accept": False}, "accept does not match", id="accept-without-flag-none"),
    ])
    def test_record_breaking_a_schema_rule_is_named(self, tmp_path, which, edits, rule):
        good = self.sample_transcripts()
        assert (good[0].flag, good[3].abort is not None) == ("none", True)
        path = tmp_path / "rules.jsonl"
        write_transcripts(path, good[:1])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**good[which].to_record(), **edits}) + "\n")
        with pytest.raises(TranscriptParseError, match=f"line 2: bad transcript record: {rule}"):
            read_transcripts(path)

    def test_largest_seed_is_read(self):
        rec = {**self.sample_transcripts()[0].to_record(), "seed": str(2**64 - 1)}
        assert SessionTranscript.from_record(rec).seed == 2**64 - 1

    def test_lines_are_parsed_as_they_are_read(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        good = self.sample_transcripts()[0]
        path.write_bytes(json.dumps(good.to_record()).encode() + b"\nnot json\n")
        lines = iter_transcripts(path)
        assert next(lines) == good
        with pytest.raises(TranscriptParseError, match="line 2"):
            next(lines)

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "short.jsonl"
        rec = self.sample_transcripts()[0].to_record()
        del rec["theta"]
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(TranscriptParseError, match="line 1"):
            read_transcripts(path)


# ------------------------------------------------------------------ sessions


class TestRunSession:
    def test_honest_sessions_accept(self):
        for index in range(12):
            t = run_session(SP4, HONEST, master_seed=111, index=index)
            assert t.accept and t.flag == "none" and t.abort is None

    def test_repeat_run_is_identical(self):
        a = run_session(SP4, HONEST, master_seed=222, index=7)
        b = run_session(SP4, HONEST, master_seed=222, index=7)
        assert a == b and a.to_record() == b.to_record()

    def test_scripted_wrong_preimage_flags(self, tmp_path):
        base = run_session(SP4, HONEST, master_seed=333, index=0, round=RoundType.PREIMAGE)
        # corrupt one preimage; replaying the same seed reuses the same keys
        script = {
            "ys": [int(y) for y in base.ys],
            "preimages": [[b, x] for b, x in base.preimages],
        }
        script["preimages"][1][1] ^= 1
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        factory = parse_prover_spec(f"scripted:{path}")
        t = run_session(SP4, factory, master_seed=333, index=0, round=RoundType.PREIMAGE)
        assert t.flag == "fail_pre" and not t.accept and t.abort is None

    def test_prover_violation_aborts(self):
        bad_factory = lambda reg, rng, idx: ScriptedProver({"ys": [0, 0]})
        t = run_session(SP4, bad_factory, master_seed=444, index=0)
        assert t.abort is not None and not t.accept and t.flag is None
        assert t.ys is None

    def test_unwritable_preimage_answer_aborts_before_grading(self, tmp_path):
        script = {"ys": [0, 0, 0], "preimages": UNWRITABLE_PREIMAGES}
        factory = lambda reg, rng, idx: ScriptedProver(script)
        t = run_session(SP4, factory, master_seed=333, index=0, round=RoundType.PREIMAGE)
        assert t.abort == ("MalformedAnswerError: preimage answers are not 3 pairs of a bit "
                           "and a 4-bit value")
        assert t.flag is None and not t.accept
        assert t.ys == (0, 0, 0) and t.preimages is None
        path = tmp_path / "aborted.jsonl"
        write_transcripts(path, [t])
        assert read_transcripts(path) == [t]

    @pytest.mark.parametrize("answers, abort", [
        ([], "preimage answers are not 3 pairs of a bit and a 4-bit value"),
        ([(0, 3), (1, 3)], "preimage answers are not 3 pairs of a bit and a 4-bit value"),
        ([(0, 3), (1, 3), (0, 3), (1, 3)],
         "preimage answers are not 3 pairs of a bit and a 4-bit value"),
        ([(0, 3), (1, 3), None],
         "preimage answers are not (bit, value) pairs: cannot unpack non-iterable NoneType object"),
        ([(0, 3), (1, 3), (0, "x")],
         "preimage answers are not (bit, value) pairs: 'str' object cannot be interpreted as an "
         "integer"),
        ("not a list of pairs",
         "preimage answers are not (bit, value) pairs: not enough values to unpack (expected 2, "
         "got 1)"),
    ])
    def test_malformed_preimage_answers_record_their_abort_text(self, answers, abort):
        # the text is recorded in transcripts, so it must not move
        t = run_session(SP4, answering(answer_preimage=answers), master_seed=333, index=0,
                        round=RoundType.PREIMAGE)
        assert t.abort == f"MalformedAnswerError: {abort}"
        assert t.flag is None and not t.accept and t.preimages is None

    def test_fractional_commitment_aborts_before_grading(self):
        # an answer goes to the verifier as given: 12.7 is no 5-bit value, not 12
        honest = run_session(SP4, HONEST, master_seed=336, index=0)
        t = run_session(SP4, answering(commit=lambda ys: [ys[0] + 0.7, *ys[1:]]),
                        master_seed=336, index=0)
        assert honest.accept
        assert t.abort == (f"MalformedAnswerError: commitment {honest.ys[0] + 0.7!r} is not "
                           "a 5-bit value")
        assert t.ys is None and t.flag is None and not t.accept

    @pytest.mark.parametrize("answers, round, kind", [
        ({"commit": lambda ys: None}, None, "NoneType"),
        ({"answer_hadamard": 7}, RoundType.HADAMARD, "int"),
        ({"answer_questions": None}, RoundType.HADAMARD, "NoneType"),
    ], ids=["commit-none", "hadamard-seven", "questions-none"])
    def test_answer_that_is_not_a_sequence_aborts(self, tmp_path, answers, round, kind):
        t = run_session(SP4, answering(**answers), master_seed=338, index=0, round=round)
        assert t.abort == f"MalformedAnswerError: prover answer of type {kind} is not a sequence"
        assert t.flag is None and not t.accept and t.ds is None and t.vs is None
        path = tmp_path / "aborted.jsonl"
        write_transcripts(path, [t])
        assert read_transcripts(path) == [t]

    @pytest.mark.parametrize("pins", BAD_PINS)
    def test_bad_pins_raise_parameter_error(self, pins):
        with pytest.raises(ParameterError):
            run_session(SP4, HONEST, master_seed=337, index=0, **pins)

    def test_overrides_pin_theta_and_round(self):
        t = run_session(
            SP4, HONEST, master_seed=555, index=3, theta=(1, 1, 1), round=RoundType.HADAMARD
        )
        assert t.theta == (1, 1, 1) and t.round == "hadamard"
        assert t.q is not None and t.ds is not None and t.preimages is None


# --------------------------------------------------------------------- stats


def synthetic(index, theta, round, flag, abort=None):
    return SessionTranscript(
        index=index, seed=index, lam=4, theta=theta, keys=(),
        ys=None, round=round, test_index=None, preimages=None,
        ds=None, q=None, vs=None, flag=flag, accept=flag == "none", abort=abort,
    )


class TestFlagStats:
    def test_denominators_and_counts(self):
        transcripts = [
            synthetic(0, (0, 0, 0), "preimage", "none"),
            synthetic(1, (1, 1, 1), "preimage", "fail_pre"),
            synthetic(2, (0, 1, 0), "hadamard", "fail_test"),
            synthetic(3, (0, 0, 0), "hadamard", "none"),
            synthetic(4, (1, 1, 1), "hadamard", "fail_hyper"),
            synthetic(5, (1, 1, 1), "hadamard", "none"),
            synthetic(6, (0, 0, 0), None, None, abort="ScriptError: x"),
        ]
        stats = FlagStats.from_transcripts(transcripts)
        assert stats.n_sessions == 7
        assert stats.n_aborted == 1
        assert stats.n_preimage == 2
        assert stats.n_test_hadamard == 2
        assert stats.n_hyper_hadamard == 2
        assert stats.n_fail_pre == 1
        assert stats.n_fail_test == 1
        assert stats.n_fail_hyper == 1
        assert stats.n_fail_pre <= stats.n_preimage
        assert stats.n_fail_test <= stats.n_test_hadamard
        assert stats.n_fail_hyper <= stats.n_hyper_hadamard

    def test_empty_stats(self):
        stats = FlagStats()
        assert stats.n_sessions == 0
        assert stats.as_dict()["sessions"] == 0


# --------------------------------------------------------------------- batch


def scripted_spec(tmp_path) -> str:
    """A scripted: prover that answers every round of every session."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"ys": [0, 0, 0], "preimages": [[0, 0]] * 3,
                                  "ds": [0, 0, 0], "vs": [0, 0, 0]}))
    return f"scripted:{script}"


class TestRunBatch:
    @pytest.mark.parametrize("n", [0, 3])
    @pytest.mark.parametrize("spec", ["honest", "scripted"])
    @pytest.mark.parametrize("pins", BAD_PINS)
    def test_bad_pins_raise_parameter_error_before_any_session(self, monkeypatch, tmp_path,
                                                               pins, spec, n):
        def refuse(*args, **kwargs):
            raise AssertionError("a session ran")

        monkeypatch.setattr(engine, "run_session", refuse)
        monkeypatch.setattr(engine, "_array_chunk", refuse)
        spec = scripted_spec(tmp_path) if spec == "scripted" else spec
        with pytest.raises(ParameterError):
            run_batch(SP4, spec, n, 38, **pins)

    def test_zero_sessions(self, tmp_path):
        sink = tmp_path / "none.jsonl"
        stats, transcripts = run_batch(SP4, "honest", 0, master_seed=1, sink=sink)
        assert stats.n_sessions == 0 and transcripts is None
        assert read_transcripts(sink) == []

    def test_honest_batch_never_flags(self):
        stats, _ = run_batch(SP4, "honest", 400, master_seed=2)
        assert stats.n_sessions == 400 and stats.n_aborted == 0
        assert stats.n_fail_pre == stats.n_fail_test == stats.n_fail_hyper == 0
        assert stats.n_preimage + stats.n_test_hadamard + stats.n_hyper_hadamard == 400

    def test_parallelism_does_not_change_results(self):
        runs = {
            p: run_batch(SP4, "honest", 60, master_seed=3, parallelism=p, collect=True)
            for p in (1, 4)
        }
        stats1, t1 = runs[1]
        stats4, t4 = runs[4]
        assert stats1.as_dict() == stats4.as_dict()
        assert t1 == t4

    @pytest.mark.parametrize("p", [1, 4])
    def test_scripted_batch_runs_in_chunks_in_this_process(self, monkeypatch, tmp_path, p):
        def refuse(process):
            raise AssertionError("a process was started")

        spec, path = scripted_spec(tmp_path), tmp_path / "out.jsonl"
        factory = parse_prover_spec(spec)
        expected = [run_session(SP4, factory, 12, index) for index in range(11)]
        monkeypatch.setattr(engine, "_CHUNK", 4)  # two full chunks and a short one
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        children = multiprocessing.active_children()
        stats, _ = run_batch(SP4, spec, 11, 12, p, sink=path)
        assert multiprocessing.active_children() == children
        assert path.read_text(encoding="utf-8") == transcript_bytes(expected)
        assert stats.as_dict() == FlagStats.from_transcripts(expected).as_dict()

    def test_sink_matches_collected(self, tmp_path):
        sink = tmp_path / "batch.jsonl"
        stats, transcripts = run_batch(
            SP4, "honest", 25, master_seed=4, sink=sink, collect=True
        )
        assert read_transcripts(sink) == transcripts
        assert [t.index for t in transcripts] == list(range(25))

    @pytest.mark.parametrize("n, p", [(0, 2), (3, 4), (25, 2)])
    def test_pinned_batch_is_the_same_at_any_parallelism(self, tmp_path, n, p):
        pinned = dict(theta=(1, 1, 1), round=RoundType.HADAMARD)
        serial, split = tmp_path / "p1.jsonl", tmp_path / f"p{p}.jsonl"
        stats1, _ = run_batch(SP4, "honest", n, 8, 1, sink=serial, **pinned)
        stats_p, _ = run_batch(SP4, "honest", n, 8, p, sink=split, **pinned)
        assert split.read_bytes() == serial.read_bytes()
        assert stats_p.as_dict() == stats1.as_dict()
        assert stats1.n_hyper_hadamard == n

    def test_conditioned_stabilizer_rate(self):
        stats, _ = run_batch(
            SP4, "stabilizer", 4000, master_seed=5,
            theta=(1, 1, 1), round=RoundType.HADAMARD,
        )
        assert stats.n_hyper_hadamard == 4000
        rate = stats.n_fail_hyper / stats.n_hyper_hadamard
        assert abs(rate - 3 / 32) < 0.02

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            run_batch(SP4, "honest", -1, master_seed=6)
        with pytest.raises(ParameterError):
            run_batch(SP4, "honest", 1, master_seed=6, parallelism=0)
        with pytest.raises(ParameterError):
            run_batch(SP4, "bogus", 1, master_seed=6)


# ---------------------------------------------------------------- array path

COVERED = ["honest", "stabilizer", "noisy:bitflip:0.2", "noisy:depol:0.3"]
HYPER_PINS = {"theta": (1, 1, 1), "round": "hadamard"}


def scalar_outcomes(lam, spec, master_seed, n, pins):
    """(round, theta class, flag) of each session, as run_session gives them."""
    factory = parse_prover_spec(spec)
    out = []
    for index in range(n):
        t = run_session(SecurityParam(lam), factory, master_seed, index, **pins)
        out.append((t.round, verifier.theta_class(t.theta), t.flag))
    return out


def array_outcomes(lam, spec, master_seed, n, pins):
    """The same per session from the array path."""
    plan = engine._array_plan(spec, *verifier.check_pins(pins.get("theta"), pins.get("round")))
    cols = engine._array_chunk(lam, plan, master_seed, 0, n)
    return [("hadamard" if had else "preimage", verifier.theta_class(verifier.BASIS_CHOICES[t]),
             list(verifier.Flag)[f].value)
            for t, had, f in zip(cols.theta, cols.hadamard, cols.flag)]


def transcript_bytes(transcripts) -> str:
    """What write_transcripts puts in a file for these transcripts."""
    buf = io.StringIO()
    write_transcripts(buf, transcripts)
    return buf.getvalue()


def session_bytes(lam, spec, master_seed, n, pins) -> str:
    """The transcript file of n sessions, each run through run_session."""
    factory = parse_prover_spec(spec)
    return transcript_bytes(run_session(SecurityParam(lam), factory, master_seed, index, **pins)
                            for index in range(n))


def assert_flat_file_sink_peak(spec, master_seed, sink):
    """A batch of the prover spec (a scripted: one names its script's path) writing its
    transcripts to sink, or keeping none where sink is None, peaks below 1.5x as high at
    8 chunks as at one."""
    def peak(n):
        tracemalloc.start()
        try:
            run_batch(SP4, spec, n, master_seed, sink=sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    run_batch(SP4, spec, 10, master_seed)  # fill the tables first
    assert peak(8 * engine._CHUNK) < 1.5 * peak(engine._CHUNK)


# lam 17 is the widest rejection rate, 2^-17 per claw shift; 24 takes _XorBase's stand-in
REJECTING_LAMS = [4, 8, 16, 17, 24]


def rejecting_batch(monkeypatch, tmp_path, lam, spec, pins, n=40):
    """n sessions with a quarter of all halves rejected, on both paths: run_session's
    transcripts, then the batch's stats, collected transcripts and path-sink text.

    Every half whose two low bits are 0 rejects, so a bounded draw reads 4/3
    halves on average, and some sessions read past their streams' first
    blocks. The batch runs in chunks of 16, and a call of
    run_session from it fails the test.
    """
    def refuse(*args, **pins):
        raise AssertionError("session path used")

    monkeypatch.setattr(util, "lemire_rejects", lambda x, k: x & 3 == 0)
    for w in range(18, entcf.W_MAX + 1):
        monkeypatch.setitem(entcf._base_tables, w, (_XorBase(), _XorBase()))
    sp, factory, path = SecurityParam(lam), parse_prover_spec(spec), tmp_path / "out.jsonl"
    pinned = verifier.check_pins(pins.get("theta"), pins.get("round"))
    expected = [run_session(sp, factory, 45, index, theta=pinned[0], round=pinned[1])
                for index in range(n)]
    monkeypatch.setattr(engine, "_CHUNK", 16)
    monkeypatch.setattr(engine, "run_session", refuse)
    stats, kept = run_batch(sp, spec, n, 45, sink=path, collect=True, **pins)
    return expected, stats, kept, path.read_text(encoding="utf-8")


# the bounded draws that can reject: the basis triple, the test index, and claw shifts
BELOW = [3, 5] + [(1 << w) - 1 for w in range(entcf.W_MIN, entcf.W_MAX + 1)]
# a session mask for up to six lanes: a bool for all of them, or one bool per lane
LANE_ROW = st.one_of(st.booleans(), st.lists(st.booleans(), min_size=6, max_size=6))


def reader_draw(stream, draw, mask=True):
    """One draw of a _Stream: bits of a width, a uniform, a u64, or ("below", k)."""
    if type(draw) is tuple:
        return stream.below(draw[1])
    return (stream.uniform(mask) if draw == "uniform" else stream.u64(mask) if draw == "u64"
            else stream.bits(draw, mask))


def generator_draw(gen, draw):
    """The same draw by NumPy's Generator, the reference."""
    if type(draw) is tuple:
        return int(gen.integers(0, draw[1]))
    if draw == "uniform":
        return gen.random()
    if draw == "u64":
        return int(gen.integers(0, 1 << 63)) << 1 | int(gen.integers(0, 2))
    return int(gen.integers(0, 1 << draw))


def crafted(words, key=0):
    """A fresh rng_from(key) whose block 0 is `words` (at most four, zero-padded): its raw
    words are those, then its own from block 1 on."""
    gen = rng_from(key)
    state = gen.bit_generator.state
    state["buffer"] = np.array(list(words) + [0] * (4 - len(words)), dtype=np.uint64)
    state["buffer_pos"] = 0
    state["state"]["counter"] = np.array([1, 0, 0, 0], dtype=np.uint64)
    gen.bit_generator.state = state
    return gen


class TestArrayPath:
    @pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
    @pytest.mark.parametrize("lam", [4, 16])
    @pytest.mark.parametrize("spec", COVERED)
    @settings(max_examples=25, deadline=None)
    @given(master_seed=st.integers(0, (1 << 64) - 1), n=st.integers(0, 30))
    @example(master_seed=0, n=0)
    @example(master_seed=(1 << 64) - 1, n=1)
    def test_per_session_outcomes_equal_run_session(self, spec, lam, pinned, master_seed, n):
        pins = HYPER_PINS if pinned else {}
        scalar = scalar_outcomes(lam, spec, master_seed, n, pins)
        array = array_outcomes(lam, spec, master_seed, n, pins)
        assert len(array) == n
        assert array == scalar

    @pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "pinned"])
    @pytest.mark.parametrize("lam", [4, 16])
    @pytest.mark.parametrize("spec", COVERED)
    @settings(max_examples=25, deadline=None)
    @given(master_seed=st.integers(0, (1 << 64) - 1), n=st.integers(0, 30))
    @example(master_seed=0, n=0)
    @example(master_seed=(1 << 64) - 1, n=1)
    def test_collected_transcripts_equal_run_session_bytes(self, spec, lam, pinned,
                                                           master_seed, n):
        pins = HYPER_PINS if pinned else {}
        _, kept = run_batch(SecurityParam(lam), spec, n, master_seed, collect=True, **pins)
        assert transcript_bytes(kept) == session_bytes(lam, spec, master_seed, n, pins)

    @pytest.mark.parametrize("lam", [4, 16])
    @pytest.mark.parametrize("model", ["depol", "bitflip"])
    @settings(max_examples=25, deadline=None)
    @given(eps=st.floats(0, 1), pinned=st.booleans(),
           master_seed=st.integers(0, (1 << 64) - 1), n=st.integers(0, 30))
    @example(eps=0.0, pinned=False, master_seed=0, n=30)
    @example(eps=1.0, pinned=True, master_seed=0, n=30)
    def test_noisy_transcripts_equal_run_session_bytes_at_every_epsilon(self, model, lam, eps,
                                                                        pinned, master_seed, n):
        """Both paths read one answer table per epsilon; every epsilon gives the same bytes."""
        spec, pins = f"noisy:{model}:{eps!r}", HYPER_PINS if pinned else {}
        _, kept = run_batch(SecurityParam(lam), spec, n, master_seed, collect=True, **pins)
        assert transcript_bytes(kept) == session_bytes(lam, spec, master_seed, n, pins)

    @pytest.mark.parametrize("pins", [{"round": "preimage"}, {"round": "hadamard"},
                                      {"theta": (0, 0, 0)}, {"theta": (0, 1, 0)}])
    @pytest.mark.parametrize("spec", COVERED)
    def test_batches_pinned_by_round_or_theta_alone_equal_run_session_bytes(self, spec, pins):
        # one chunk mixes basis triples, or rounds, while every draw of one round is masked
        # off for all of its sessions
        expected, sink = session_bytes(4, spec, 44, 200, pins), io.StringIO()
        _, kept = run_batch(SP4, spec, 200, 44, sink=sink, collect=True, **pins)
        assert transcript_bytes(kept) == sink.getvalue() == expected

    @pytest.mark.parametrize("spec, pins, flag", [
        ("stabilizer", HYPER_PINS, "fail_hyper"),
        ("noisy:bitflip:0.2", {}, "fail_test"),
        ("noisy:bitflip:0.2", {"theta": (0, 1, 0)}, "fail_test"),
        ("noisy:depol:0.3", {}, "fail_test"),
        ("noisy:depol:0.3", HYPER_PINS, "fail_hyper"),
    ])
    def test_flags_raised_on_the_array_path_match_the_transcripts(self, spec, pins, flag):
        stats, _ = run_batch(SecurityParam(8), spec, 600, 31, **pins)
        collected, _ = run_batch(SecurityParam(8), spec, 600, 31, collect=True, **pins)
        assert stats.as_dict() == collected.as_dict()
        assert any(n > 0 for (_, _, f), n in stats.cells.items() if f == flag)

    def test_chunks_split_no_session(self, monkeypatch):
        whole, _ = run_batch(SP4, "noisy:bitflip:0.2", 700, 32)
        _, whole_kept = run_batch(SP4, "noisy:bitflip:0.2", 700, 32, collect=True)
        monkeypatch.setattr(engine, "_CHUNK", 64)
        split, _ = run_batch(SP4, "noisy:bitflip:0.2", 700, 32)
        split_collected, split_kept = run_batch(SP4, "noisy:bitflip:0.2", 700, 32, collect=True)
        assert split.as_dict() == whole.as_dict() == split_collected.as_dict()
        assert transcript_bytes(split_kept) == transcript_bytes(whole_kept)
        assert transcript_bytes(split_kept) == session_bytes(4, "noisy:bitflip:0.2", 32, 700, {})

    @pytest.mark.parametrize("pins", [{}, HYPER_PINS, {"theta": (0, 0, 0)}],
                             ids=["unpinned", "hyper", "theta000"])
    @pytest.mark.parametrize("lam", REJECTING_LAMS)
    @pytest.mark.parametrize("spec", COVERED)
    def test_forced_rejections_give_identical_stats(self, monkeypatch, tmp_path, spec, lam,
                                                    pins):
        expected, stats, kept, written = rejecting_batch(monkeypatch, tmp_path, lam, spec, pins)
        assert stats.as_dict() == FlagStats.from_transcripts(expected).as_dict()
        assert transcript_bytes(kept) == written == transcript_bytes(expected)

    @pytest.mark.parametrize("lam", REJECTING_LAMS)
    def test_rejections_inside_a_chunk_keep_the_index_order(self, monkeypatch, tmp_path, lam):
        expected, stats, kept, _ = rejecting_batch(monkeypatch, tmp_path, lam, "honest", {})
        assert [t.index for t in kept] == list(range(len(expected)))
        assert transcript_bytes(kept) == transcript_bytes(expected)
        assert stats.as_dict() == FlagStats.from_transcripts(expected).as_dict()

    @pytest.mark.parametrize("lam", REJECTING_LAMS)
    def test_rejections_inside_a_chunk_keep_the_index_order_in_a_sink(self, monkeypatch,
                                                                      tmp_path, lam):
        expected, stats, _, written = rejecting_batch(monkeypatch, tmp_path, lam, "honest", {})
        assert [json.loads(line)["index"] for line in written.splitlines()] == list(
            range(len(expected)))
        assert written == transcript_bytes(expected)
        assert stats.as_dict() == FlagStats.from_transcripts(expected).as_dict()

    @pytest.mark.parametrize("lam", [4, 16])
    def test_sink_and_collect_write_the_collected_bytes(self, monkeypatch, tmp_path, lam):
        monkeypatch.setattr(engine, "_CHUNK", 64)  # several chunks, each written as made
        path, buf = tmp_path / "out.jsonl", io.StringIO()
        _, to_path = run_batch(SecurityParam(lam), "honest", 300, 39, sink=path, collect=True)
        _, to_file = run_batch(SecurityParam(lam), "honest", 300, 39, sink=buf, collect=True)
        assert path.read_text(encoding="utf-8") == transcript_bytes(to_path)
        assert buf.getvalue() == transcript_bytes(to_file) == transcript_bytes(to_path)

    @pytest.mark.parametrize("spec", ["honest", "scripted"])
    def test_each_chunk_is_one_write_of_the_same_bytes_to_a_path_or_a_text_file(
            self, monkeypatch, tmp_path, spec):
        writes, real_open = [], open

        class CountedText:  # a text writer that is no io.TextIOBase
            def __init__(self):
                self.texts = []

            def write(self, text):
                writes.append("text")
                self.texts.append(text.encode())

        class CountedFile:  # the file run_batch opens for a path sink
            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def write(self, data):
                writes.append("path")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(engine, "open", CountedFile, raising=False)
        monkeypatch.setattr(engine, "_CHUNK", 64)  # 300 sessions in five chunks
        spec = scripted_spec(tmp_path) if spec == "scripted" else spec
        path, buf = tmp_path / "out.jsonl", CountedText()
        _, kept = run_batch(SP4, spec, 300, 39, sink=path, collect=True)
        run_batch(SP4, spec, 300, 39, sink=buf)
        assert path.read_bytes() == b"".join(buf.texts) == transcript_bytes(kept).encode()
        assert writes == ["path"] * 5 + ["text"] * 5

    def test_rendering_a_chunk_holds_one_byte_matrix(self):
        # the lines are compacted inside the matrix itself; a mask or a copy of the whole
        # matrix would take the peak past twice the matrix
        n = 2000
        cols = engine._array_chunk(16, engine._array_plan("honest", None, None), 46, 0, n)
        engine._chunk_lines(16, cols, 0)  # build the row first
        tracemalloc.start()
        try:
            lines = engine._chunk_lines(16, cols, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * len(engine._record_row(16)[0])
        assert bytes(lines).count(b"\n") == n

    @pytest.mark.parametrize("theta", [(0, 0, 1), None, (0, 0, 0), (1, 1, 1)])
    def test_colliding_key_ids_raise_where_run_session_does(self, monkeypatch, theta):
        # every key seed, key id and permutation seed is below 4, so most sessions' key ids
        # clash: an injective and a claw key with different trapdoors raise, and keys of
        # one family and seed share a trapdoor and raise nothing
        def colliding(self, mask=True):
            return self.word(mask) & 3

        def outcome(run):
            try:
                return "bytes", transcript_bytes(run())
            except entcf.KeyLookupError as exc:
                return "raised", str(exc)

        monkeypatch.setattr(util._Stream, "u64", colliding)
        seen = set()
        for master_seed in range(20):
            batch = outcome(lambda: run_batch(SP4, "honest", 3, master_seed, collect=True,
                                              theta=theta)[1])
            assert batch == outcome(lambda: [run_session(SP4, HONEST, master_seed, index,
                                                         theta=theta) for index in range(3)])
            if batch[0] == "raised":
                assert "collision" in batch[1]
                seen.add("raised")
            elif any(len({key["id"] for key in json.loads(line)["keys"]}) < 3
                     for line in batch[1].splitlines()):
                seen.add("clashed")
        assert seen == {"raised", "clashed"}

    def test_uncovered_batches_take_the_session_path(self, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("array path used")

        session, indices = engine.run_session, []

        def counted(sp, factory, master_seed, index, **pins):
            indices.append(index)
            return session(sp, factory, master_seed, index, **pins)

        monkeypatch.setattr(engine, "_array_chunk", refuse)
        monkeypatch.setattr(engine, "run_session", counted)
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"ys": [0, 0, 0], "preimages": [[0, 0]] * 3}))
        run_batch(SP4, f"scripted:{script}", 2, 35)
        assert indices == [0, 1]
        with pytest.raises(ParameterError):  # raised by the pin rule, before any session
            run_batch(SP4, "honest", 1, 35, theta=(1, 1, 0))
        assert indices == [0, 1]

    def test_covered_batches_keeping_transcripts_take_the_array_path(self, monkeypatch,
                                                                      tmp_path):
        def refuse(*args, **pins):
            raise AssertionError("session path used")

        chunk, spans = engine._array_chunk, []

        def counted(lam, plan, master_seed, start, stop):
            spans.append((start, stop))
            return chunk(lam, plan, master_seed, start, stop)

        monkeypatch.setattr(engine, "run_session", refuse)
        monkeypatch.setattr(engine, "_array_chunk", counted)
        run_batch(SP4, "honest", 2, 35, collect=True)
        run_batch(SP4, "honest", 2, 35, sink=tmp_path / "out.jsonl")
        run_batch(SP4, "noisy:depol:0.3", 2, 35, collect=True)
        run_batch(SP4, "noisy:depol:0.3", 2, 35, sink=tmp_path / "out.jsonl")
        assert spans == [(0, 2)] * 4

    @pytest.mark.parametrize("spec", [
        "honest", "stabilizer",
        *(f"noisy:{model}:{p}" for model in ("bitflip", "depol", "depolarizing")
          for p in ("0", "0.3", "1")),
    ])
    def test_every_generated_prover_has_an_array_plan(self, spec):
        # a new generated prover must not fall back to run_session unnoticed;
        # only scripted: (and invalid pins) run it
        parse_prover_spec(spec)
        assert engine._array_plan(spec, None, None) is not None

    @pytest.mark.parametrize("lam", [4, 16])
    def test_depolarizing_at_zero_writes_the_honest_bytes(self, lam):
        _, honest = run_batch(SecurityParam(lam), "honest", 200, 40, collect=True)
        _, depol = run_batch(SecurityParam(lam), "noisy:depol:0", 200, 40, collect=True)
        assert transcript_bytes(depol) == transcript_bytes(honest)

    def test_memory_does_not_grow_with_the_session_count(self):
        def peak(n):
            tracemalloc.start()
            try:
                run_batch(SP4, "stabilizer", n, 36, **HYPER_PINS)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_batch(SP4, "stabilizer", 10, 36, **HYPER_PINS)  # fill the tables first
        assert peak(8 * engine._CHUNK) < 1.5 * peak(engine._CHUNK)

    def test_memory_does_not_grow_with_the_session_count_when_writing(self, monkeypatch,
                                                                       tmp_path):
        # smaller chunks keep the traced run short; a path that held every
        # transcript until the end would peak about 6x higher at 8 chunks
        monkeypatch.setattr(engine, "_CHUNK", 256)
        assert_flat_file_sink_peak("honest", 37, tmp_path / "out.jsonl")

    def test_memory_does_not_grow_with_the_session_count_when_writing_depolarized(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(engine, "_CHUNK", 256)
        assert_flat_file_sink_peak("noisy:depol:0.3", 41, tmp_path / "out.jsonl")

    def test_memory_does_not_grow_with_the_session_count_when_writing_scripted(
            self, monkeypatch, tmp_path):
        # every scripted session runs run_session; each chunk is written as it ends
        monkeypatch.setattr(engine, "_CHUNK", 256)
        assert_flat_file_sink_peak(scripted_spec(tmp_path), 42, tmp_path / "out.jsonl")

    @pytest.mark.parametrize("spec", ["honest", "scripted"])
    def test_stats_only_batches_hold_one_chunk_at_a_time(self, monkeypatch, tmp_path, spec):
        # a batch with no sink builds no transcript it would only drop
        monkeypatch.setattr(engine, "_CHUNK", 256)
        spec = scripted_spec(tmp_path) if spec == "scripted" else spec
        assert_flat_file_sink_peak(spec, 43, None)

    @pytest.mark.parametrize("spec", ["honest", "scripted"])
    def test_stats_only_batches_render_no_line(self, monkeypatch, tmp_path, spec):
        # a stats-only chunk would drop its lines, so it makes none of their texts
        def refused(*args):
            raise AssertionError("a stats-only batch rendered a line")

        monkeypatch.setattr(engine, "_chunk_lines", refused)
        monkeypatch.setattr(engine, "_transcript_line", refused)
        spec = scripted_spec(tmp_path) if spec == "scripted" else spec
        stats, kept = run_batch(SP4, spec, 40, 44)
        assert kept is None and stats.n_sessions == 40

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 15, 31, (1 << 16) - 1, (1 << 24) - 1])
    def test_lemire_matches_numpy_on_crafted_words(self, k):
        inverse = pow(k, -1, 1 << 32) if k % 2 else 0
        rejected = [j * inverse % (1 << 32) for j in range((1 << 32) % k)]
        halves = [0, 1, 7, (1 << 31) + 5, (1 << 32) - 1] + rejected + [
            int(x) for x in rng_from(k).integers(0, 1 << 32, 20)]
        for low in halves:
            high = 0x9E3779B9  # rejected by none of these k
            gen = crafted([high << 32 | low])
            drawn = int(gen.integers(0, k))
            rejects = bool(lemire_rejects(low, k))
            assert rejects == (low in rejected)
            # a rejected low half makes NumPy read the high half instead
            assert drawn == lemire(high if rejects else low, k)
            assert gen.bit_generator.state["has_uint32"] == (0 if rejects else 1)
            assert bool(lemire_rejects(np.array([low], dtype=np.uint64), k)[0]) == rejects
            # the one-lane reader reads the same halves, and holds what NumPy holds
            reader = util._Stream(crafted([high << 32 | low]).bit_generator)
            assert (reader.below(k), reader.held) == (drawn, not rejects)
        if len(rejected) >= 2:
            # both halves of a word rejected: each reads the next word's low half
            words = [rejected[1] << 32 | rejected[0], 0x9E3779B9 << 32 | 12345]
            gen, reader = crafted(words), util._Stream(crafted(words).bit_generator)
            assert reader.below(k) == int(gen.integers(0, k)) == lemire(12345, k)
            assert reader.below(k) == int(gen.integers(0, k)) == lemire(0x9E3779B9, k)

    def test_array_redraws_equal_one_stream_readers(self):
        # a zero half rejects every range that is not a power of two: lane 0 rejects
        # nothing, lanes 1-3 reject one, two and three halves in their first draw, lane 4
        # eight (all of block 0), and lane 5 four in its third; lanes 2-5 reach block 1
        draws = [("below", 5), "u64", ("below", 3), 1, ("below", (1 << 17) - 1)]
        keys = np.array([derive_seed(46, lane) for lane in range(6)], dtype=np.uint64)
        words = philox_words(keys, 0, 1) | np.uint64(1)  # no half of a lane is zero
        words[0, 1] &= np.uint64(0xFFFFFFFF << 32)
        words[0, 2:5] = 0
        words[1, 3] &= np.uint64(0xFFFFFFFF << 32)
        words[1:, 4] = 0
        words[2:, 5] = 0
        odd = np.arange(6) % 2 == 1  # the draw of one bit is masked by the odd lanes
        masks = [odd if draw == 1 else True for draw in draws]
        for lanes in ([0, 1], range(6)):
            stream = util._Stream(words[:, lanes], keys[lanes])
            got = [reader_draw(stream, draw, mask if mask is True else mask[lanes])
                   for draw, mask in zip(draws, masks)]
            # a stream of lanes 0 and 1 alone stays in block 0, and appends nothing
            assert len(stream.words) == (8 if len(lanes) == 6 else 4)
            for j, lane in enumerate(lanes):
                gen = crafted(words[:, lane].tolist(), int(keys[lane]))
                one = util._Stream(crafted(words[:, lane].tolist(), int(keys[lane])).bit_generator)
                for draw, mask, values in zip(draws, masks, got):
                    if mask is True or mask[lane]:
                        assert values[j] == reader_draw(one, draw) == generator_draw(gen, draw)

    def test_philox_words_equal_numpy_streams(self):
        keys = np.array([0, 1, (1 << 63), (1 << 64) - 1] + [
            int(x) for x in rng_from(37).integers(0, 1 << 63, 60)], dtype=np.uint64)
        words = philox_words(keys, 0, 3)
        later = philox_words(keys, 1, 2)
        for j, key in enumerate(keys.tolist()):
            raw = np.random.Philox(key=key).random_raw(12)
            assert words[:, j].tolist() == raw.tolist()
            assert later[:, j].tolist() == raw[4:].tolist()

    @settings(max_examples=100, deadline=None)
    @given(keys=st.lists(st.one_of(st.sampled_from([0, (1 << 64) - 1]),
                                   st.integers(0, (1 << 64) - 1)), min_size=1, max_size=40),
           first_block=st.integers(0, 4), blocks=st.integers(1, 3), data=st.data())
    @example(keys=[0, (1 << 64) - 1], first_block=0, blocks=1, data=None)
    @example(keys=[(1 << 64) - 1] * 40, first_block=4, blocks=3, data=None)
    def test_philox_words_equal_numpy_random_raw(self, keys, first_block, blocks, data):
        array = np.array(keys, dtype=np.uint64)
        words = philox_words(array, first_block, blocks)
        assert words.shape == (4 * blocks, len(keys))
        for j, key in enumerate(keys):
            raw = np.random.Philox(key=key).random_raw(4 * (first_block + blocks))
            assert words[:, j].tolist() == raw[4 * first_block:].tolist()
        # each key's lane is its own: a call on a slice of the keys gives those columns
        a, b = (0, len(keys)) if data is None else sorted(
            data.draw(st.lists(st.integers(0, len(keys)), min_size=2, max_size=2)))
        if a < b:
            assert philox_words(array[a:b], first_block, blocks).tolist() == \
                words[:, a:b].tolist()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, (1 << 64) - 1),
           lanes=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=8))
    def test_seed_derivation_runs_on_arrays(self, seed, lanes):
        array = np.array(lanes, dtype=np.uint64)
        assert derive_seed(seed, array).tolist() == [derive_seed(seed, x) for x in lanes]
        assert derive_seed(array, 7, 3).tolist() == [derive_seed(x, 7, 3) for x in lanes]
        assert mix64(array).tolist() == [mix64(x) for x in lanes]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6),
           draws=st.lists(st.one_of(st.integers(1, 24), st.sampled_from(["uniform", "u64"]),
                                    st.tuples(st.just("below"), st.sampled_from(BELOW))),
                          max_size=14))
    def test_masked_stream_draws_equal_each_sessions_generator(self, data, n, draws):
        # lane 0 never draws a masked draw; each such draw's mask is all-true, all-false or
        # drawn per lane; below draws on every lane. The stream holds block 0, and appends
        # the blocks its draws read past it
        lane_mask = st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda bits: np.array([False, *bits[1:]]))
        masks = [True if type(draw) is tuple
                 else data.draw(st.one_of(st.just(True), st.just(False), lane_mask))
                 for draw in draws]
        keys = np.array(data.draw(st.lists(st.integers(0, (1 << 64) - 1),
                                           min_size=n, max_size=n)), dtype=np.uint64)
        stream = util._Stream(philox_words(keys, 0, 1), keys)
        got = [reader_draw(stream, draw, mask) for draw, mask in zip(draws, masks)]
        for lane, key in enumerate(keys.tolist()):
            gen = rng_from(key)
            for draw, mask, values in zip(draws, masks, got):
                if mask is True or mask is not False and mask[lane]:
                    assert values[lane] == generator_draw(gen, draw)
            # the one-lane reader makes every draw, in the same interleaving
            gen, one_lane = rng_from(key), util._Stream(rng_from(key).bit_generator)
            assert [reader_draw(one_lane, draw) for draw in draws] == \
                [generator_draw(gen, draw) for draw in draws]

    @settings(max_examples=100, deadline=None)
    @given(keys=st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=6),
           earlier=st.lists(st.tuples(st.one_of(st.integers(1, 25), st.just("u64")), LANE_ROW),
                            max_size=3),
           rows=st.lists(st.tuples(st.integers(1, 25), LANE_ROW), min_size=1, max_size=14))
    @example(keys=[0, (1 << 64) - 1], earlier=[], rows=[(25, True)] * 14)
    @example(keys=[1, 2, 3], earlier=[(7, [True, False, True, False, False, False]),
                                      ("u64", True)],
             rows=[(3, True), (25, [False, True, True, False, False, False]), (1, False)] * 4)
    def test_batched_masked_halves_equal_successive_draws(self, keys, earlier, rows):
        # a mask row is all-true or all-false (a bool) or drawn per lane; the earlier draws
        # leave the lanes at different places, some holding a pending half. The stream holds
        # block 0, and up to 3 + 14 draws read past it, as the bit-flip prover's words do
        n, keys = len(keys), np.array(keys, dtype=np.uint64)

        def lanes(row):
            return np.full(n, row) if type(row) is bool else np.array(row[:n])

        batched, successive = (util._Stream(philox_words(keys, 0, 1), keys) for _ in range(2))
        for draw, row in earlier:
            for stream in (batched, successive):
                reader_draw(stream, draw, lanes(row))
        masks = np.array([lanes(row) for _, row in rows])
        widths = [width for width, _ in rows]
        got = batched.halves(masks) >> np.array([32 - k for k in widths], dtype=np.uint64)[:, None]
        expected = [successive.bits(width, mask) for width, mask in zip(widths, masks)]
        for mask, values, reference in zip(masks, got, expected):
            assert values[mask].tolist() == np.broadcast_to(reference, n)[mask].tolist()
        # both streams end at one place: next word, held half and, where held, its value
        held = np.broadcast_to(successive.held, n)
        for stream in (batched, successive):
            assert np.broadcast_to(stream.next, n).tolist() == \
                np.broadcast_to(successive.next, n).tolist()
            assert np.broadcast_to(stream.held, n).tolist() == held.tolist()
            assert np.broadcast_to(stream.pending, n)[held].tolist() == \
                np.broadcast_to(successive.pending, n)[held].tolist()
        for lane, key in enumerate(keys.tolist()):
            gen = rng_from(key)
            for draw, row in earlier:
                if lanes(row)[lane]:
                    generator_draw(gen, draw)
            for width, mask, values in zip(widths, masks, got):
                if mask[lane]:
                    assert values[lane] == generator_draw(gen, width)

    def test_fail_table_equals_the_scalar_hadamard_check(self):
        table = engine._fail_table()
        assert table.shape == (5, 1 << 14) and table.dtype == np.int8
        inputs = [[[i >> at + 2 - k & 1 for k in range(3)] for at in (11, 6, 3, 0)]
                  for i in range(1 << 14)]
        for t, bases in enumerate(verifier.BASIS_CHOICES):
            code = engine._FLAGS_BY_CODE.index(verifier.failure_flag(bases))
            expected = []
            for i, (q, tops, us, vs) in enumerate(inputs):
                fails = verifier.hadamard_fails(bases, q, i >> 9 & 3, tops, us, vs)
                assert type(fails) is int
                expected.append(code if fails else 0)
            assert table[t].tolist() == expected

    @settings(max_examples=100, deadline=None)
    @given(weights=st.lists(st.lists(st.just(0.0) | st.floats(0, 1), min_size=8, max_size=8),
                            min_size=1, max_size=6),
           seed=st.integers(0, 1 << 32))
    def test_sample_edges_rows_equal_sample_edges_on_sorted_rows(self, weights, seed):
        """Rows as answer_edges builds them, cumulative sums of non-negative weights, where
        a zero weight ties two edges; half the uniforms land u * last edge on an edge."""
        rows = np.cumsum(weights, axis=1)
        gen = rng_from(seed)
        us = gen.random(len(rows))
        on_edge = gen.integers(0, 8, len(rows))
        for i, row in enumerate(rows):
            if i % 2 and row[-1] > 0:
                us[i] = row[on_edge[i]] / row[-1]
        got = sample_edges_rows(rows, us).tolist()
        assert got == [sample_edges(row, u) for row, u in zip(rows.tolist(), us.tolist())]

    @pytest.mark.parametrize("key", [
        *(engine._array_plan(spec, None, None)[0] for spec in TABLE_SPECS),
        # no spec builds this table: rounding takes some gate-free registers' depolarized
        # weights below 0, and only answer_edges' clip keeps its rows non-decreasing
        (StabilizerProver, 1e-9)], ids=[*TABLE_SPECS, "stabilizer-depol-1e-9"])
    def test_answer_tables_are_sorted_and_counted_as_bisected(self, key):
        table = engine._answer_table(*key)
        assert (table[:, 1:] >= table[:, :-1]).all()
        gen = rng_from(48)
        rows = table.take(gen.integers(0, len(table), 10**5), axis=0)
        us = gen.random(10**5)
        # uniforms at both ends, and ones whose product lands on or beside an edge
        us[:2] = 0.0, math.nextafter(1.0, 0.0)
        ends = rows[2:, -1:]
        ties = np.divide(rows[2:, :], ends, out=np.zeros_like(rows[2:, :]), where=ends > 0)
        us[2:] = np.where(np.arange(len(us) - 2) % 2 == 0, us[2:],
                          ties[np.arange(len(us) - 2), gen.integers(0, 8, len(us) - 2)])
        counted = sample_edges_rows(rows, us)
        assert counted.tolist() == [sample_edges(row, u)
                                    for row, u in zip(rows.tolist(), us.tolist())]

    @settings(max_examples=100, deadline=None)
    @given(eps=st.floats(0, 1, exclude_min=True))
    @example(eps=5e-324)
    @example(eps=1e-9)
    @example(eps=1e-8)
    @example(eps=1.0)
    def test_every_honest_answer_table_equals_its_unclipped_sum(self, eps):
        """The clip in answer_edges changes no HonestProver table, so it changes no draw of
        any noisy: spec: every row equals the plain cumulative sum, value for value."""
        for qubits in HONEST_REGISTERS:
            rho = qsim.DensityState.from_statevector(provers._register(qubits, True))
            for qubit in range(3):
                rho = qsim.depolarize(rho, qubit, eps)
            unclipped = np.cumsum([qsim.outcome_distribution_density(rho, q)
                                   for q in engine._QUESTIONS], axis=1)
            assert provers.answer_edges.__wrapped__(qubits, True, eps).tolist() == \
                unclipped.tolist()

    @pytest.mark.parametrize("lam", [4, 16])
    @pytest.mark.parametrize("spec", COVERED)
    def test_preimage_pinned_chunks_equal_run_session(self, spec, lam):
        sp, pins = SecurityParam(lam), {"round": "preimage"}
        expected = [run_session(sp, parse_prover_spec(spec), 49, index, round=RoundType.PREIMAGE)
                    for index in range(300)]
        sink = io.StringIO()
        stats, kept = run_batch(sp, spec, 300, 49, sink=sink, collect=True, **pins)
        assert sink.getvalue() == transcript_bytes(kept) == transcript_bytes(expected)
        assert stats.as_dict() == FlagStats.from_transcripts(expected).as_dict()


class _XorBase:
    """A stand-in base permutation, x ^ 11: its own inverse, and built in no time at any
    width, where building the real one at lam 24 takes seconds and a peak of 400 MB."""

    def __getitem__(self, i):
        return i ^ 11

    def take(self, i):
        return i ^ 11


RENDER_FORMS = ["honest", "stabilizer", "noisy:depol:0.3", "noisy:bitflip:0.2", "scripted"]
RENDER_PINS = [{}, {"theta": (1, 1, 1), "round": RoundType.HADAMARD}, {"theta": (0, 0, 0)},
               {"round": RoundType.PREIMAGE}]


def json_lines(transcripts) -> str:
    """The reference encoding of transcript records, which SCHEMA.md's rule describes."""
    return "".join(json.dumps(t.to_record(), sort_keys=True) + "\n" for t in transcripts)


def hand_built_columns(lam, decimals, seed) -> engine._Columns:
    """A chunk's columns built by hand, a session per decimal: the seed, key id and
    permutation seed columns (seven in all) each a rotation of decimals, and every other
    field drawn at random within its range."""
    rng = np.random.default_rng(seed)
    n, decimals = len(decimals), np.array(decimals, dtype=np.uint64)
    seeds, *keys = (np.roll(decimals, k) for k in range(7))

    def below(k, shape=(3, n)):
        return rng.integers(0, k, size=shape, dtype=np.uint64)

    theta = below(5, n)
    claw = engine._CLAW.take(theta, axis=1)
    return engine._Columns(
        seeds=seeds, theta=theta, hadamard=rng.random(n) < 0.5,
        flag=rng.integers(0, 4, n).astype(np.int8), key_id=np.stack(keys[:3]),
        perm_seed=np.stack(keys[3:]), shift=np.where(claw, below(1 << lam), 0),
        ys=below(2 << lam), b=below(2), x=below(1 << lam), ds=below(1 << lam), q=below(8, n),
        test_index=below(3, n), vs=below(2))


class TestRecordRenderer:
    """Every line a batch's sink or write_transcripts writes is json.dumps of its record."""

    @settings(max_examples=60, deadline=None)
    @given(form=st.sampled_from(RENDER_FORMS), lam=st.integers(entcf.W_MIN, entcf.W_MAX),
           pins=st.sampled_from(RENDER_PINS), seed=st.integers(0, 2**64 - 1),
           answer=st.text(max_size=12), abort=st.text(max_size=20))
    @example(form="scripted", lam=4, pins={}, seed=0, answer='é"\x00', abort='"\\\n\x7f\u2028é😀')
    def test_lines_are_json_dumps_of_the_records(self, tmp_path_factory, form, lam, pins, seed,
                                                 answer, abort):
        # a scripted session aborts on a commitment that is no integer, else completes
        folder, spec = tmp_path_factory.mktemp("render"), form
        if form == "scripted":
            completes = {"ys": [0, 1, 2], "preimages": [[0, 1], [1, 0], [0, 3]],
                         "ds": [1, 2, 3], "vs": [0, 1, 1]}
            script = folder / "script.json"
            script.write_text(json.dumps([{"ys": [answer, 0, 0]}, completes] * 4))
            spec = f"scripted:{script}"
        # rendering depends on the records' values, not on the permutation behind them,
        # so the widths past 16 use a stand-in
        stand_ins = {w: (_XorBase(), _XorBase()) for w in range(17, entcf.W_MAX + 1)}
        sink = io.StringIO()
        with patch.dict(entcf._base_tables, stand_ins):
            _, transcripts = run_batch(SecurityParam(lam), spec, 8, seed, sink=sink,
                                       collect=True, **pins)
        # the abort text is the one field that json escapes: non-ASCII, control, quotes
        aborted = [dataclasses.replace(t, flag=None, accept=False, abort=abort)
                   for t in transcripts]
        expected = json_lines(transcripts)
        assert sink.getvalue() == transcript_bytes(transcripts) == expected
        assert transcript_bytes(aborted) == json_lines(aborted)
        # a written file reads back into the transcripts that write it again
        path = folder / "lines.jsonl"
        for lines in (expected, json_lines(aborted)):
            path.write_text(lines, encoding="utf-8")
            assert transcript_bytes(list(iter_transcripts(path))) == lines

    @pytest.mark.parametrize("start", [995, 9995])
    @pytest.mark.parametrize("lam", [entcf.W_MIN, 16, entcf.W_MAX])
    def test_decimal_fields_at_every_digit_boundary(self, lam, start):
        # the index column crosses 999 -> 1000 or 9999 -> 10000, and every other decimal
        # column takes each value below; the chunk rendered whole equals it rendered as
        # two chunks split at the crossing
        values = [0, 9, 10, *[v for k in range(1, 20) for v in (10**k - 1, 10**k)],
                  2**63, 2**64 - 1]
        cols = hand_built_columns(lam, values, seed=start + lam)
        whole = bytes(engine._chunk_lines(lam, cols, start))
        first, rest = (engine._Columns(*(c[..., part] for c in cols))
                       for part in (slice(None, 5), slice(5, None)))
        assert whole == bytes(engine._chunk_lines(lam, first, start)) + bytes(
            engine._chunk_lines(lam, rest, start + 5))
        lines = whole.decode("ascii").splitlines(keepends=True)
        assert len(lines) == len(values)
        for i, line in enumerate(lines):
            record = SessionTranscript.from_record(json.loads(line)).to_record()
            assert line == json.dumps(record, sort_keys=True) + "\n"
            assert f'"index": {start + i}, ' in line and record["index"] == start + i
            assert record["seed"] == str(cols.seeds[i])
            assert [key["id"] for key in record["keys"]] == [str(v) for v in cols.key_id[:, i]]
            assert [key["perm_seed"] for key in record["keys"]] == [
                str(v) for v in cols.perm_seed[:, i]]

    @pytest.mark.parametrize("lam", REJECTING_LAMS)
    def test_lines_across_chunks_with_rejections_inside_them(self, monkeypatch, tmp_path, lam):
        # three chunks of 16 whose sessions redraw rejected halves: a path sink, as
        # perfbench writes it, and collect=True's transcripts read back from its lines
        # both hold json.dumps of each session's record
        expected, _, kept, written = rejecting_batch(monkeypatch, tmp_path, lam, "honest", {})
        assert {t.round for t in kept} == {"preimage", "hadamard"}
        assert written == json_lines(expected) == json_lines(kept)


# ---------------------------------------------------------------------- wire


def serve_in_thread(sp, master_seed, n_sessions, sink=None):
    """Start a loopback server, writing its transcripts to sink if given; returns (thread,
    result holder), the holder's port set."""
    holder = {}
    port_ready = threading.Event()

    def on_listen(port):
        holder["port"] = port
        port_ready.set()

    def target():
        holder["result"] = engine.serve(
            sp, "127.0.0.1:0", master_seed, n_sessions, sink=sink, on_listen=on_listen
        )

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    assert port_ready.wait(5.0)
    return thread, holder


class TestWire:
    @pytest.mark.parametrize(
        "spec", ["honest", "stabilizer", "noisy:bitflip:0.2", "noisy:depol:0.3"]
    )
    def test_loopback_honest_sessions_match_in_process(self, spec):
        n, master_seed = 6, 777
        thread, holder = serve_in_thread(SP4, master_seed, n)
        verdicts = engine.connect(f"127.0.0.1:{holder['port']}", spec, master_seed)
        thread.join(10.0)
        stats, transcripts = holder["result"]

        assert len(verdicts) == len(transcripts) == n
        factory = parse_prover_spec(spec)
        for index, (wire_t, verdict) in enumerate(zip(transcripts, verdicts)):
            local_t = run_session(SP4, factory, master_seed, index)
            assert verdict == {"accept": local_t.accept, "flag": local_t.flag, "abort": None}
            assert wire_t == local_t
            assert json.dumps(wire_t.to_record(), sort_keys=True) == json.dumps(
                local_t.to_record(), sort_keys=True
            )

    def test_failed_verdict_send_keeps_the_verdict_and_ends_the_stream(self):
        master_seed = 1818

        class VerdictFails:
            """A write end that loses the connection on the VERDICT frame."""

            def __init__(self, inner):
                self.inner = inner

            def write(self, data):
                if Message.decode(data).kind == "VERDICT":
                    raise OSError("connection reset")
                return self.inner.write(data)

            def flush(self):
                self.inner.flush()

        client_errors = []

        def client():
            try:
                engine._client_sessions(cli_r, cli_w, HONEST, master_seed)
            except TransportError as exc:
                client_errors.append(exc)

        server_sock, client_sock = socket.socketpair()
        with server_sock, client_sock:
            client_sock.settimeout(10.0)
            cli_r, cli_w = client_sock.makefile("rb"), client_sock.makefile("wb")
            srv_r, srv_w = server_sock.makefile("rb"), server_sock.makefile("wb")
            with cli_r, cli_w, srv_r, srv_w:
                thread = threading.Thread(target=client, daemon=True)
                thread.start()
                transcripts = engine._serve_sessions(
                    srv_r, VerdictFails(srv_w), SP4, master_seed, 2
                )
                server_sock.shutdown(socket.SHUT_RDWR)
                thread.join(10.0)
        assert not thread.is_alive()
        # the verdict stands as recorded and session 1 is never started
        assert transcripts == [run_session(SP4, HONEST, master_seed, 0)]
        assert transcripts[0].abort is None and transcripts[0].accept
        assert len(client_errors) == 1 and "VERDICT" in str(client_errors[0])

    def test_huge_integer_frame_aborts_the_served_session(self):
        wfile = io.BytesIO()
        transcripts = engine._serve_sessions(io.BytesIO(HUGE_COMMIT), wfile, SP4, 2121, 3)
        assert len(transcripts) == 1
        assert transcripts[0].abort.startswith("TransportError: undecodable frame")
        assert Message.decode(wfile.getvalue()).kind == "KEYS"  # and no VERDICT after it

    @pytest.mark.parametrize("constant", [b"Infinity", b"-Infinity", b"NaN", b"1e999"])
    def test_json_constant_sid_aborts_the_served_session(self, constant):
        frame = b'{"v":1,"sid":' + constant + b',"seq":1,"kind":"COMMIT","payload":{}}\n'
        transcripts = engine._serve_sessions(io.BytesIO(frame), io.BytesIO(), SP4, 2121, 3)
        assert len(transcripts) == 1
        assert transcripts[0].abort.startswith("TransportError: undecodable frame")

    def test_boolean_wire_version_aborts_the_served_session(self):
        frame = b'{"kind":"COMMIT","payload":{},"seq":1,"sid":"%d","v":true}\n' % derive_seed(
            2121, 0)
        transcripts = engine._serve_sessions(io.BytesIO(frame), io.BytesIO(), SP4, 2121, 3)
        assert len(transcripts) == 1
        assert transcripts[0].abort == "TransportError: unsupported wire version True"

    @pytest.mark.parametrize("field", ["index", "lam"])
    def test_json_constant_in_keys_raises_transport_error(self, field):
        master_seed = 1717
        payload = {"index": 0, "lam": 4, "keys": [], field: "CONSTANT"}
        keys = Message(sid=derive_seed(master_seed, 0), seq=0, kind="KEYS",
                       payload=payload).encode().replace(b'"CONSTANT"', b"Infinity")
        with pytest.raises(TransportError, match="undecodable frame"):
            engine._client_sessions(io.BytesIO(keys), io.BytesIO(), HONEST, master_seed)

    def test_unwritable_local_answer_raises_malformed_answer_error(self):
        master_seed = 2222
        unwritable = lambda reg, rng, idx: ScriptedProver({"ys": [99999, 0, 0]})
        holder = {}
        server_sock, client_sock = socket.socketpair()
        with server_sock, client_sock:
            server_sock.settimeout(10.0)
            client_sock.settimeout(10.0)
            cli_r, cli_w = client_sock.makefile("rb"), client_sock.makefile("wb")
            srv_r, srv_w = server_sock.makefile("rb"), server_sock.makefile("wb")
            with cli_r, cli_w, srv_r, srv_w:
                thread = threading.Thread(target=lambda: holder.__setitem__(
                    "served", engine._serve_sessions(srv_r, srv_w, SP4, master_seed, 1)),
                    daemon=True)
                thread.start()
                with pytest.raises(MalformedAnswerError, match="cannot be sent"):
                    engine._client_sessions(cli_r, cli_w, unwritable, master_seed)
                client_sock.shutdown(socket.SHUT_RDWR)
                thread.join(10.0)
        assert not thread.is_alive()
        assert holder["served"][0].abort.startswith("TransportError")

    def test_wrong_master_seed_fails_replay_check(self):
        thread, holder = serve_in_thread(SP4, 888, 1)
        with pytest.raises(TransportError):
            engine.connect(f"127.0.0.1:{holder['port']}", "honest", 999)
        thread.join(10.0)
        stats, transcripts = holder["result"]
        assert transcripts[0].abort is not None

    def test_truncated_frame_aborts_session(self):
        thread, holder = serve_in_thread(SP4, 1010, 1)
        with socket.create_connection(("127.0.0.1", holder["port"])) as conn:
            rfile = conn.makefile("rb")
            assert rfile.readline()  # KEYS
            conn.sendall(b'{"v":1,"sid":"12","seq":1,"kind":"COM')
            conn.shutdown(socket.SHUT_RDWR)
            rfile.close()
        thread.join(10.0)
        _, transcripts = holder["result"]
        assert transcripts[0].abort is not None and not transcripts[0].accept

    def test_malformed_commit_aborts_but_keeps_stream(self):
        master_seed = 1111
        thread, holder = serve_in_thread(SP4, master_seed, 2)

        with socket.create_connection(("127.0.0.1", holder["port"])) as conn:
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            # session 0: commit with a wrong-width bit string
            keys = Message.decode(rfile.readline())
            bad = Message(sid=keys.sid, seq=1, kind="COMMIT", payload={"ys": ["01", "01", "01"]})
            wfile.write(bad.encode())
            wfile.flush()
            verdict = Message.decode(rfile.readline())
            assert verdict.kind == "VERDICT" and verdict.payload["abort"]
            # session 1 still served: play it honestly through the client core
            keys2 = engine._recv(rfile)
            assert keys2 is not None and keys2.kind == "KEYS"
            engine._client_one(rfile, wfile, HONEST, master_seed, keys2)
        thread.join(10.0)
        _, transcripts = holder["result"]
        assert transcripts[0].abort is not None
        assert transcripts[1].abort is None and transcripts[1].accept

    @pytest.mark.parametrize("bad", UNPARSEABLE_BITS)
    def test_unparseable_bit_strings_abort_and_keep_serving(self, bad):
        master_seed, n = 1214, 5  # sessions 1-3 hold both round types
        thread, holder = serve_in_thread(SP4, master_seed, n)
        rounds = set()
        with socket.create_connection(("127.0.0.1", holder["port"]), timeout=10.0) as conn:
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")

            def send(keys, seq, kind, payload):
                wfile.write(Message(sid=keys.sid, seq=seq, kind=kind, payload=payload).encode())
                wfile.flush()

            for index in range(n - 1):
                keys = Message.decode(rfile.readline())
                if index == 0:
                    send(keys, 1, "COMMIT", {"ys": [bad] * 3})
                else:
                    send(keys, 1, "COMMIT", {"ys": ["00000"] * 3})
                    round_msg = Message.decode(rfile.readline())
                    rounds.add(round_msg.payload["round"])
                    if round_msg.payload["round"] == "preimage":
                        send(keys, 3, "PREIMAGES", {"answers": [["0", bad]] * 3})
                    else:
                        send(keys, 3, "HADAMARD_D", {"ds": [bad] * 3})
                verdict = Message.decode(rfile.readline())
                assert verdict.kind == "VERDICT"
                assert verdict.payload["abort"].startswith("MalformedAnswerError")
            keys = engine._recv(rfile)
            assert keys is not None and keys.kind == "KEYS"
            engine._client_one(rfile, wfile, HONEST, master_seed, keys)
        thread.join(10.0)
        assert not thread.is_alive()
        _, transcripts = holder["result"]
        assert rounds == {"preimage", "hadamard"}
        assert len(transcripts) == n
        assert all(t.abort.startswith("MalformedAnswerError") for t in transcripts[:-1])
        assert transcripts[-1].abort is None and transcripts[-1].accept

    @pytest.mark.parametrize("bad", UNPARSEABLE_BITS)
    def test_bad_preimage_bit_records_its_abort_text(self, bad):
        master_seed = 1214
        index = next(i for i in range(20)
                     if run_session(SP4, HONEST, master_seed, i).round == "preimage")
        thread, holder = serve_in_thread(SP4, master_seed, index + 1)
        with socket.create_connection(("127.0.0.1", holder["port"]), timeout=10.0) as conn:
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            for _ in range(index):
                engine._client_one(rfile, wfile, HONEST, master_seed, engine._recv(rfile))
            keys = Message.decode(rfile.readline())

            def send(seq, kind, payload):
                wfile.write(Message(sid=keys.sid, seq=seq, kind=kind, payload=payload).encode())
                wfile.flush()

            send(1, "COMMIT", {"ys": ["00000"] * 3})
            assert Message.decode(rfile.readline()).payload == {"round": "preimage"}
            send(3, "PREIMAGES", {"answers": [[bad, "0000"]] * 3})
            verdict = Message.decode(rfile.readline())
        thread.join(10.0)
        assert not thread.is_alive()
        _, transcripts = holder["result"]
        # the served transcript records the wire parser's text as is
        abort = f"MalformedAnswerError: bad preimage bit {bad!r}"
        assert verdict.payload["abort"] == transcripts[index].abort == abort

    @pytest.mark.parametrize("q", [7, None, ["0", "1", "0"], "0a1"])
    def test_malformed_questions_raise_transport_error(self, q):
        master_seed = 1313
        # play the server by hand for a session whose round coin says Hadamard
        index, sess = next((i, t) for i in range(20)
                           if (t := run_session(SP4, HONEST, master_seed, i)).round == "hadamard")
        seed = derive_seed(master_seed, index)
        server_sock, client_sock = socket.socketpair()
        with server_sock, client_sock:
            client_sock.settimeout(10.0)
            srv_r, srv_w = server_sock.makefile("rb"), server_sock.makefile("wb")
            cli_r, cli_w = client_sock.makefile("rb"), client_sock.makefile("wb")
            keys = Message(sid=seed, seq=0, kind="KEYS", payload={
                "index": index, "lam": 4,
                "keys": [{"id": k["id"], "w": 4} for k in sess.keys],
            })
            srv_w.write(Message(sid=seed, seq=2, kind="ROUND",
                                payload={"round": "hadamard"}).encode())
            srv_w.write(Message(sid=seed, seq=4, kind="QUESTIONS", payload={"q": q}).encode())
            srv_w.flush()
            with pytest.raises(TransportError, match="QUESTIONS"):
                engine._client_one(cli_r, cli_w, HONEST, master_seed, keys)
            assert Message.decode(srv_r.readline()).kind == "COMMIT"

    def test_keys_that_differ_from_the_replayed_oracle_raise_transport_error(self):
        # the right session id and width, but key ids the master seed never generates
        master_seed = 1616
        keys = Message(sid=derive_seed(master_seed, 0), seq=0, kind="KEYS", payload={
            "index": 0, "lam": 4, "keys": [{"id": str(k), "w": 4} for k in (1, 2, 3)]})
        wfile = io.BytesIO()
        with pytest.raises(TransportError, match="advertised keys do not match the replayed"):
            engine._client_one(io.BytesIO(), wfile, HONEST, master_seed, keys)
        assert wfile.getvalue() == b""  # no COMMIT leaves before the keys check

    @pytest.mark.parametrize("round_value", ["bogus", None, ["preimage"]])
    def test_malformed_round_raises_transport_error(self, round_value):
        master_seed = 1616
        sess = run_session(SP4, HONEST, master_seed, 0)
        seed = derive_seed(master_seed, 0)
        keys = Message(sid=seed, seq=0, kind="KEYS", payload={
            "index": 0, "lam": 4, "keys": [{"id": k["id"], "w": 4} for k in sess.keys]})
        round_frame = Message(sid=seed, seq=2, kind="ROUND", payload={"round": round_value})
        wfile = io.BytesIO()
        with pytest.raises(TransportError, match="^malformed ROUND payload "):
            engine._client_one(io.BytesIO(round_frame.encode()), wfile, HONEST, master_seed,
                               keys)
        assert Message.decode(wfile.getvalue()).kind == "COMMIT"

    @pytest.mark.parametrize("answers, abort", [
        ([["0", "0000"]] * 2, "expected 3 preimage answers"),
        ("0000", "expected 3 preimage answers"),
        ([["0", "0000"], ["1", "00000"], ["0", "0000"]], "preimage '00000' is not 4 bits"),
        ([["0", "000"]] * 3, "preimage '000' is not 4 bits"),
    ])
    def test_preimage_answers_of_the_wrong_shape_abort_the_served_session(self, answers, abort):
        master_seed = next(m for m in range(100)
                           if run_session(SP4, HONEST, m, 0).round == "preimage")
        seed = derive_seed(master_seed, 0)
        frames = b"".join(Message(sid=seed, seq=seq, kind=kind, payload=payload).encode()
                          for seq, kind, payload in [(1, "COMMIT", {"ys": ["00000"] * 3}),
                                                     (3, "PREIMAGES", {"answers": answers})])
        wfile = io.BytesIO()
        transcripts = engine._serve_sessions(io.BytesIO(frames), wfile, SP4, master_seed, 1)
        assert transcripts[0].abort == f"MalformedAnswerError: {abort}"
        assert transcripts[0].round == "preimage" and transcripts[0].preimages is None
        verdict = Message.decode(wfile.getvalue().splitlines(keepends=True)[-1])
        assert verdict.kind == "VERDICT" and verdict.payload["abort"] == transcripts[0].abort

    def test_a_preimage_answer_that_is_not_a_pair_aborts_and_the_next_session_is_served(self):
        master_seed = next(m for m in range(100)
                           if run_session(SP4, HONEST, m, 0).round == "preimage")
        thread, holder = serve_in_thread(SP4, master_seed, 2)
        with socket.create_connection(("127.0.0.1", holder["port"]), timeout=10.0) as conn:
            rfile = conn.makefile("rb")
            wfile = conn.makefile("wb")
            keys = Message.decode(rfile.readline())

            def send(seq, kind, payload):
                wfile.write(Message(sid=keys.sid, seq=seq, kind=kind, payload=payload).encode())
                wfile.flush()

            send(1, "COMMIT", {"ys": ["00000"] * 3})
            assert Message.decode(rfile.readline()).payload == {"round": "preimage"}
            send(3, "PREIMAGES", {"answers": [["0", "0000"], "x", ["1", "0000"]]})
            verdict = Message.decode(rfile.readline())
            engine._client_one(rfile, wfile, HONEST, master_seed, engine._recv(rfile))
        thread.join(10.0)
        assert not thread.is_alive()
        _, transcripts = holder["result"]
        assert transcripts[0].abort == "MalformedAnswerError: bad preimage answer 'x'"
        assert verdict.kind == "VERDICT" and verdict.payload["abort"] == transcripts[0].abort
        assert len(transcripts) == 2
        assert transcripts[1].abort is None and transcripts[1].accept

    def test_deeply_nested_frame_ends_serve_with_transport_error(self):
        thread, holder = serve_in_thread(SP4, 1515, 2)
        with socket.create_connection(("127.0.0.1", holder["port"]), timeout=10.0) as conn:
            rfile = conn.makefile("rb")
            assert Message.decode(rfile.readline()).kind == "KEYS"
            conn.sendall(DEEP_FRAME)
            thread.join(10.0)
        assert not thread.is_alive()
        _, transcripts = holder["result"]
        assert len(transcripts) == 1
        assert transcripts[0].abort.startswith("TransportError: undecodable frame")

    def test_deeply_nested_frame_ends_connect_with_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]

            def peer():
                conn, _ = listener.accept()
                with conn:
                    conn.sendall(DEEP_FRAME)

            thread = threading.Thread(target=peer, daemon=True)
            thread.start()
            with pytest.raises(TransportError, match="undecodable frame"):
                engine.connect(f"127.0.0.1:{port}", "honest", 1616)
            thread.join(10.0)

    def test_unterminated_line_ends_serve_with_transport_error(self):
        thread, holder = serve_in_thread(SP4, 1818, 2)
        with socket.create_connection(("127.0.0.1", holder["port"]), timeout=10.0) as conn:
            rfile = conn.makefile("rb")
            assert Message.decode(rfile.readline()).kind == "KEYS"
            with contextlib.suppress(OSError):  # the server hangs up mid-send
                conn.sendall(UNTERMINATED)
            thread.join(10.0)
        assert not thread.is_alive()
        _, transcripts = holder["result"]
        assert len(transcripts) == 1
        assert transcripts[0].abort.startswith("TransportError: frame longer than")

    def test_unterminated_line_ends_connect_with_transport_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]

            def peer():
                conn, _ = listener.accept()
                with conn, contextlib.suppress(OSError):  # the client hangs up mid-send
                    conn.sendall(UNTERMINATED)

            thread = threading.Thread(target=peer, daemon=True)
            thread.start()
            with pytest.raises(TransportError, match="frame longer than"):
                engine.connect(f"127.0.0.1:{port}", "honest", 1919)
            thread.join(10.0)
            assert not thread.is_alive()

    @pytest.mark.parametrize("edit", [
        {"index": "0"}, {"index": False}, {"lam": "4"}, {"lam": True}, {"id": "int"},
        {"w": "string"}, {"w": True},
    ], ids=["string-index", "bool-index", "string-lam", "bool-lam", "int-id", "string-w",
            "bool-w"])
    def test_keys_numbers_are_read_by_their_schema_types(self, edit):
        master_seed = 1717
        seed, sess, _ = engine._session_lanes(SP4, master_seed, 0)
        payload = {"index": 0, "lam": 4,
                   "keys": [{"id": str(h.key_id), "w": h.w} for h in sess.handles]}
        honest, out = Message(sid=seed, seq=0, kind="KEYS", payload=payload).encode(), io.BytesIO()
        with pytest.raises(TransportError, match="waiting for ROUND"):  # it commits
            engine._client_sessions(io.BytesIO(honest), out, HONEST, master_seed)
        assert Message.decode(out.getvalue()).kind == "COMMIT"
        key = payload["keys"][1]
        if "id" in edit:
            key["id"] = int(key["id"])
        elif "w" in edit:
            key["w"] = str(key["w"]) if edit["w"] == "string" else edit["w"]
        else:
            payload.update(edit)
        keys, out = Message(sid=seed, seq=0, kind="KEYS", payload=payload).encode(), io.BytesIO()
        with pytest.raises(TransportError, match="malformed KEYS payload"):
            engine._client_sessions(io.BytesIO(keys), out, HONEST, master_seed)
        assert out.getvalue() == b""

    @pytest.mark.parametrize("lam", [0, 3, -3, 10**6])
    def test_unsupported_lam_in_keys_raises_transport_error(self, lam):
        master_seed, index = 1717, 0
        keys = Message(sid=derive_seed(master_seed, index), seq=0, kind="KEYS",
                       payload={"index": index, "lam": lam, "keys": []})
        server_sock, client_sock = socket.socketpair()
        with server_sock, client_sock:
            client_sock.settimeout(10.0)
            server_sock.sendall(keys.encode())
            server_sock.shutdown(socket.SHUT_WR)
            cli_r, cli_w = client_sock.makefile("rb"), client_sock.makefile("wb")
            with pytest.raises(TransportError, match="KEYS"):
                engine._client_sessions(cli_r, cli_w, HONEST, master_seed)

    def test_silent_peer_ends_serve_with_one_aborted_session(self, monkeypatch):
        monkeypatch.setattr(engine, "IDLE_TIMEOUT", 0.5)
        thread, holder = serve_in_thread(SP4, 2323, 3)
        with socket.create_connection(("127.0.0.1", holder["port"]), timeout=10.0):
            thread.join(5.0)
        assert not thread.is_alive()
        _, transcripts = holder["result"]
        assert len(transcripts) == 1
        assert transcripts[0].abort.startswith("TransportError: connection lost")

    def test_silent_server_ends_connect_with_transport_error(self, monkeypatch):
        monkeypatch.setattr(engine, "IDLE_TIMEOUT", 0.5)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            done = threading.Event()

            def peer():  # silent until the client gives up, or 5 s at most
                conn, _ = listener.accept()
                with conn:
                    done.wait(5.0)

            thread = threading.Thread(target=peer, daemon=True)
            thread.start()
            try:
                with pytest.raises(TransportError, match="connection lost"):
                    engine.connect(f"127.0.0.1:{listener.getsockname()[1]}", "honest", 2424)
            finally:
                done.set()
            thread.join(5.0)
            assert not thread.is_alive()

    def test_negative_session_count_raises_before_listening(self):
        errors, listened = [], []

        def target():
            try:
                engine.serve(SP4, "127.0.0.1:0", 1, -3, on_listen=listened.append)
            except ParameterError as exc:
                errors.append(exc)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(5.0)
        assert not thread.is_alive() and not listened
        assert len(errors) == 1 and "negative" in str(errors[0])

    def test_a_sink_no_file_can_take_raises_before_listening(self, tmp_path):
        def listened(port):
            raise AssertionError("serve listened before it opened its sink")

        with pytest.raises(OSError):
            engine.serve(SP4, "127.0.0.1:0", 1, 1, sink=tmp_path / "missing" / "s.jsonl",
                         on_listen=listened)

    # at master seed 3, sessions 3 and 4 of 6 are Hadamard rounds, the rest preimage rounds
    @pytest.mark.parametrize("script, aborted_round", [
        ({"ys": [1, 2]}, None),
        ({"ys": [0, 0, 0], "preimages": [[0, 0]] * 3, "ds": [1, 2]}, "hadamard"),
    ], ids=["where-round-is-due", "where-questions-are-due"])
    def test_an_aborting_verdict_before_the_answers_ends_only_its_session(
            self, tmp_path, script, aborted_round):
        path = tmp_path / "script.json"
        path.write_text(json.dumps(script))
        thread, holder = serve_in_thread(SP4, 3, 6)
        verdicts = engine.connect(f"127.0.0.1:{holder['port']}", f"scripted:{path}", 3)
        thread.join(10.0)
        assert not thread.is_alive()
        _, transcripts = holder["result"]
        assert len(verdicts) == len(transcripts) == 6
        assert [v["abort"] for v in verdicts] == [t.abort for t in transcripts]
        aborted = [t for t in transcripts if t.abort is not None]
        assert len(aborted) == (6 if aborted_round is None else 2)
        assert all(t.round == aborted_round and t.abort.startswith("MalformedAnswerError")
                   for t in aborted)

    @pytest.mark.parametrize("due", ["ROUND", "QUESTIONS"])
    def test_a_flag_before_the_answers_raises_transport_error(self, due):
        master_seed = 1717
        seed, sess, _ = engine._session_lanes(SP4, master_seed, 0)
        frames = [Message(sid=seed, seq=0, kind="KEYS", payload={
            "index": 0, "lam": 4, "keys": [{"id": str(h.key_id), "w": h.w} for h in sess.handles]})]
        if due == "QUESTIONS":
            frames.append(Message(sid=seed, seq=2, kind="ROUND", payload={"round": "hadamard"}))
        frames.append(Message(sid=seed, seq=2 * len(frames), kind="VERDICT",
                              payload={"accept": True, "flag": "none", "abort": None}))
        stream = io.BytesIO(b"".join(m.encode() for m in frames))
        with pytest.raises(TransportError, match="a flag before the round is answered"):
            engine._client_sessions(stream, io.BytesIO(), HONEST, master_seed)

    def test_a_server_session_that_raises_ends_connect_at_once(self, monkeypatch):
        # a fault that is no protocol error escapes serve; the socket closes as it goes,
        # so the client reads the end of the stream instead of waiting out IDLE_TIMEOUT
        def broken(self, ys, round=None):
            raise RuntimeError("verifier fault")

        monkeypatch.setattr(verifier.VerifierSession, "receive_commit", broken)
        errors, ports, listening = [], [], threading.Event()

        def target():
            try:
                engine.serve(SP4, "127.0.0.1:0", 2525, 3,
                             on_listen=lambda port: (ports.append(port), listening.set()))
            except RuntimeError as exc:
                errors.append(exc)

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        assert listening.wait(5.0)
        began = time.monotonic()
        with pytest.raises(TransportError, match="connection closed while waiting for ROUND"):
            engine.connect(f"127.0.0.1:{ports[0]}", "honest", 2525)
        assert time.monotonic() - began < 5.0
        thread.join(5.0)
        assert not thread.is_alive() and [str(exc) for exc in errors] == ["verifier fault"]

    def test_parse_endpoint_forms(self):
        assert parse_endpoint("stdio") == ("stdio",)
        assert parse_endpoint("127.0.0.1:88") == ("tcp", "127.0.0.1", 88)
        assert parse_endpoint("tcp:localhost:9001") == ("tcp", "localhost", 9001)
        assert parse_endpoint("host:65535") == ("tcp", "host", 65535)
        assert parse_endpoint("b\u00fccher.example:1") == ("tcp", "b\u00fccher.example", 1)
        for bad in ("", "nohost", "host:", ":99", "host:notaport", "host:65536", "host:000080",
                    "host:\u00b2", "host:\uff10"):
            with pytest.raises(ParameterError):
                parse_endpoint(bad)

    @pytest.mark.parametrize("spec", ["a\x00b:0", "tcp:a\x00b:0", "\ud800:0"],
                             ids=["nul", "tcp-nul", "lone-surrogate"])
    def test_parse_endpoint_refuses_a_host_no_socket_can_take(self, spec):
        """The socket module raises TypeError or UnicodeError on such a host, neither an
        OSError; parse_endpoint refuses it before any socket sees it."""
        with pytest.raises(ParameterError):
            parse_endpoint(spec)


# ---------------------------------------------------------- hostile input

PEER_SEED, PEER_SESSIONS = 1214, 5  # sessions 1-3 hold both round types
# where a replacement may land: every field SCHEMA.md gives a frame or a record
FRAME_PATHS = [
    ("v",), ("sid",), ("seq",), ("kind",), ("payload",),
    ("payload", "index"), ("payload", "lam"), ("payload", "keys"), ("payload", "keys", 0),
    ("payload", "keys", 1, "id"), ("payload", "keys", 2, "w"), ("payload", "ys"),
    ("payload", "ys", 0), ("payload", "round"), ("payload", "answers"),
    ("payload", "answers", 1), ("payload", "answers", 2, 0), ("payload", "answers", 0, 1),
    ("payload", "ds"), ("payload", "ds", 2), ("payload", "q"), ("payload", "vs"),
    ("payload", "accept"), ("payload", "flag"), ("payload", "abort"),
]
RECORD_PATHS = [
    ("index",), ("seed",), ("lam",), ("theta",), ("keys",), ("keys", 0), ("keys", 1, "w"),
    ("ys",), ("ys", 0), ("round",), ("test_index",), ("preimages",), ("preimages", 0),
    ("preimages", 1, 0), ("ds",), ("ds", 1), ("q",), ("vs",), ("flag",), ("accept",),
    ("abort",),
]
RAW_VALUES = st.one_of(
    st.sampled_from([b"NaN", b"Infinity", b"-Infinity", b"1e999", HUGE_INT,
                     b"[" * 3000 + b"]" * 3000, b"null", b"true", b"2.5", b"[]", b"{}",
                     b'""', b'"01"', b'"0x1"', b'["0","1"]']),
    st.integers().map(lambda n: str(n).encode()),
    st.text(max_size=6).map(lambda text: json.dumps(text).encode()),
)
HOLE = "\0hole\0"


def mutations(paths, values=RAW_VALUES):
    """Edits of a list of lines: drop, duplicate, swap, replace a field, truncate, insert bytes."""
    index = st.integers(0, 99)
    return st.lists(st.one_of(
        st.tuples(st.just("drop"), index),
        st.tuples(st.just("duplicate"), index),
        st.tuples(st.just("swap"), index, index),
        st.tuples(st.just("replace"), index, st.sampled_from(paths), values),
        st.tuples(st.just("truncate"), index, st.integers(0, 300)),
        st.tuples(st.just("insert"), index, st.integers(0, 300),
                  st.binary(min_size=1, max_size=4) | st.just(b"\xff\xfe")),
    ), min_size=1, max_size=4)


def replaced(line: bytes, path, raw: bytes) -> bytes:
    """line with the value at path swapped for the raw JSON text; as is when there is none."""
    try:
        body = json.loads(line)
        node = body
        for key in path[:-1]:
            node = node[key]
        node[path[-1]]  # the field is there
        node[path[-1]] = HOLE
    except (ValueError, RecursionError, LookupError, TypeError):
        return line
    text = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return text.replace(json.dumps(HOLE).encode(), raw) + b"\n"


def mutate(lines, ops) -> bytes:
    lines = list(lines)
    for op, i, *args in ops:
        if not lines:
            break
        i %= len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = args[0] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace":
            lines[i] = replaced(lines[i], *args)
        elif op == "truncate":  # may cut the newline and glue two lines
            lines[i] = lines[i][:args[0]]
        else:
            at, junk = args
            lines[i] = lines[i][:at] + junk + lines[i][at:]
    return b"".join(lines)


class _Recording:
    """A write end that keeps a copy of every frame written through it."""

    def __init__(self, inner):
        self.inner, self.frames = inner, []

    def write(self, data):
        self.frames.append(bytes(data))
        return self.inner.write(data)

    def flush(self):
        self.inner.flush()


@functools.lru_cache(maxsize=None)
def honest_frames():
    """(server frames, client frames) of a real honest wire run."""
    server_sock, client_sock = socket.socketpair()
    with server_sock, client_sock:
        client_sock.settimeout(10.0)
        srv_r, srv_w = server_sock.makefile("rb"), server_sock.makefile("wb")
        cli_r, cli_w = client_sock.makefile("rb"), client_sock.makefile("wb")
        with srv_r, srv_w, cli_r, cli_w:
            server, client = _Recording(srv_w), _Recording(cli_w)
            thread = threading.Thread(target=engine._client_sessions,
                                      args=(cli_r, client, HONEST, PEER_SEED), daemon=True)
            thread.start()
            transcripts = engine._serve_sessions(srv_r, server, SP4, PEER_SEED, PEER_SESSIONS)
            server_sock.shutdown(socket.SHUT_WR)
            thread.join(10.0)
    assert not thread.is_alive()
    assert {t.round for t in transcripts} == {"preimage", "hadamard"}
    assert all(t.accept for t in transcripts)
    return tuple(server.frames), tuple(client.frames)


@functools.lru_cache(maxsize=None)
def honest_lines():
    _, transcripts = run_batch(SP4, "honest", PEER_SESSIONS, PEER_SEED, collect=True)
    return tuple(json.dumps(t.to_record(), sort_keys=True).encode() + b"\n" for t in transcripts)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile") / "lines.jsonl"


class TestHostileInput:
    """Hypothesis edits of real honest traffic; only the documented outcomes may occur."""

    @settings(max_examples=300, deadline=None)
    @given(ops=mutations(FRAME_PATHS))
    @example(ops=[("replace", 0, ("sid",), b"Infinity")])
    def test_server_returns_verdicts_or_aborts(self, ops):
        _, client_frames = honest_frames()
        transcripts = engine._serve_sessions(
            io.BytesIO(mutate(client_frames, ops)), io.BytesIO(), SP4, PEER_SEED, PEER_SESSIONS)
        assert len(transcripts) <= PEER_SESSIONS
        for t in transcripts:
            if t.abort is None:
                assert t.flag is not None and t.accept == (t.flag == "none")
            else:
                assert t.flag is None and not t.accept
                assert t.abort.split(":")[0] in ("TransportError", "MalformedAnswerError")
            assert SessionTranscript.from_record(json.loads(json.dumps(t.to_record()))) == t

    @settings(max_examples=300, deadline=None)
    @given(ops=mutations(FRAME_PATHS))
    @example(ops=[("replace", 0, ("payload", "index"), b"Infinity")])
    @example(ops=[("replace", 0, ("payload", "lam"), b"Infinity")])
    def test_client_returns_verdicts_or_raises_transport_error(self, ops):
        server_frames, _ = honest_frames()
        try:
            verdicts = engine._client_sessions(
                io.BytesIO(mutate(server_frames, ops)), io.BytesIO(), HONEST, PEER_SEED)
        except TransportError:
            return
        for v in verdicts:
            assert set(v) == {"accept", "flag", "abort"}
            assert isinstance(v["accept"], bool)
            assert v["flag"] in (None, "none", "fail_pre", "fail_test", "fail_hyper")
            assert v["abort"] is None or isinstance(v["abort"], str)
            assert (v["flag"] is None) != (v["abort"] is None)
            assert v["accept"] == (v["flag"] == "none")

    @pytest.mark.parametrize("edit", [
        {"abort": "\u001b[2J\u001b[31mfake"},
        {"accept": False},
        {"accept": 1},
        {"flag": "maybe"},
        {"flag": None},
        {"abort": ["text"]},
    ])
    def test_client_refuses_a_verdict_that_breaks_the_rules(self, edit):
        server_frames, _ = honest_frames()
        frames = []
        for frame in server_frames:
            body = json.loads(frame)
            if body["kind"] == "VERDICT":
                body["payload"].update(edit)
                frame = json.dumps(body, sort_keys=True, separators=(",", ":")).encode() + b"\n"
            frames.append(frame)
        with pytest.raises(TransportError, match="malformed VERDICT"):
            engine._client_sessions(io.BytesIO(b"".join(frames)), io.BytesIO(), HONEST,
                                    PEER_SEED)

    @settings(max_examples=300, deadline=None)
    @given(ops=mutations(RECORD_PATHS))
    @example(ops=[("replace", 0, ("index",), b"Infinity")])
    def test_read_transcripts_returns_or_raises_parse_error(self, scratch_file, ops):
        scratch_file.write_bytes(mutate(honest_lines(), ops))
        try:
            transcripts = read_transcripts(scratch_file)
        except TranscriptParseError:
            return
        assert len(transcripts) <= len(scratch_file.read_bytes().splitlines())


# ------------------------------------------------------------ reader oracle


def reference_bits(text) -> int:
    """SCHEMA.md's bit-string rule read character by character: a nonempty str of 0s and
    1s, MSB first, with util.bits_value's errors."""
    if not isinstance(text, str):
        raise TypeError(f"not a bit string: {text!r}")
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"not a bit string: {text!r}")
    value = 0
    for ch in text:
        value = 2 * value + (ch == "1")
    return value


def reference_from_record(rec: dict) -> SessionTranscript:
    """The reader's reference: SessionTranscript.from_record written plainly. It builds
    the transcript through the frozen __init__, parses each bit string with
    reference_bits, then checks SCHEMA.md's rules on the built transcript, in the
    reader's order."""
    try:
        ys, preimages, ds = rec["ys"], rec["preimages"], rec["ds"]
        t = SessionTranscript(
            index=rec["index"],
            seed=engine._u64_decimal(rec["seed"]),
            lam=rec["lam"],
            theta=engine._parsed(engine._THREE_BITS, rec["theta"], "theta is not a 3-bit string"),
            keys=tuple(rec["keys"]),
            ys=None if ys is None else tuple(map(reference_bits, ys)),
            round=rec["round"],
            test_index=rec["test_index"],
            preimages=None if preimages is None
            else tuple((engine._parsed(engine._BIT, b, "a preimage bit is not 0 or 1"),
                        reference_bits(x)) for b, x in preimages),
            ds=None if ds is None else tuple(map(reference_bits, ds)),
            q=engine._parsed(engine._NULL_OR_THREE_BITS, rec["q"], "q is not null or a 3-bit string"),
            vs=engine._parsed(engine._NULL_OR_THREE_BITS, rec["vs"],
                              "vs is not null or a 3-bit string"),
            flag=rec["flag"],
            accept=rec["accept"],
            abort=rec["abort"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TranscriptParseError(f"bad transcript record: {exc}") from exc
    rule = ("index is not an integer" if type(t.index) is not int
            else "seed is not a decimal string below 2^64" if t.seed is None
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
            else "round is not null, preimage or hadamard" if t.round not in engine._ROUNDS
            else engine._broken_verdict_rule(t.accept, t.flag, t.abort)
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


def reference_read(data: bytes):
    """(transcripts, error): what the reference reader makes of a file's bytes, read line
    by line as iter_transcripts does; error is the first bad line's message, or None."""
    out = []
    for lineno, line in enumerate(io.BytesIO(data), start=1):
        try:
            text = line.decode("utf-8")
            if not text.strip(" \t\n\r"):  # JSON whitespace alone
                continue
            out.append(reference_from_record(engine._JSON.decode(text)))
        except (ValueError, RecursionError) as exc:
            return out, f"line {lineno}: {exc}"
    return out, None


def engine_read(path):
    """(transcripts, error) as iter_transcripts reads the file at path."""
    out = []
    try:
        out.extend(iter_transcripts(path))
    except TranscriptParseError as exc:
        return out, str(exc)
    return out, None


@functools.lru_cache(maxsize=None)
def oracle_lines():
    """Record lines of honest, stabilizer and noisy sessions, flagged ones among them,
    and of a session a scripted prover aborts."""
    transcripts = []
    for spec, lam in [("honest", 4), ("stabilizer", 4), ("noisy:bitflip:0.3", 8),
                      ("noisy:depol:0.2", 16)]:
        transcripts += run_batch(SecurityParam(lam), spec, 6, 77, collect=True)[1]
    transcripts += run_batch(SecurityParam(4), "stabilizer", 3, 5, collect=True,
                             theta=(1, 1, 1), round=RoundType.HADAMARD)[1]
    aborted = lambda reg, rng, idx: ScriptedProver({"ys": [0, 1]})
    transcripts.append(run_session(SP4, aborted, master_seed=900, index=3))
    assert {t.flag for t in transcripts} >= {"none", "fail_hyper", None}
    assert {t.round for t in transcripts} == {"preimage", "hadamard", None}
    return tuple(json.dumps(t.to_record(), sort_keys=True).encode() + b"\n" for t in transcripts)


# values a bit-string, bit or three-bit field must refuse, or must read as the reference does
BIT_FIELD_VALUES = [b'""', b'"0"', b'"1"', b'"2"', b'"012"', b'"0_1"', b'" 01"', b'"01 "',
                    b'"+1"', b'"-1"', b'"0b1"', b'"\\u0661\\u0660"', b'"110"', b'"111"',
                    b'"011"', b'["1", "0", "1"]', b'["1", "0"]', b'["", "0", "1"]',
                    b'["0_1", "0", "1"]', b'["2", "0", "1"]', b'["1", "0", 1]', b'[0, 1, 1]',
                    b'[["1", "0101"], ["0", "0000"], ["1", "1111"]]',
                    b'[["2", "0"], ["0", "x"], ["1", "1"]]', b'[["1", "0"], ["0", ""], ["1"]]',
                    b'[["1", "01", "1"], ["0", "0"], ["1", "1"]]', b'[[1, "0"], ["0", "0"], 7]',
                    b'["10", "01", "11"]', b'[{}, {}, {}]', b'{"a": 1}', b'7', b'true', b'null']
ORACLE_VALUES = st.one_of(RAW_VALUES, st.sampled_from(BIT_FIELD_VALUES))


class TestReaderOracle:
    """iter_transcripts and from_record against the reference reader: the same transcripts,
    or TranscriptParseError for the same line with the same message."""

    def check(self, path, data: bytes):
        path.write_bytes(data)
        expected, error = reference_read(data)
        got, got_error = engine_read(path)
        assert got_error == error
        assert got == expected
        assert list(map(repr, got)) == list(map(repr, expected))

    def test_every_field_edited_to_each_value(self):
        # one line of each (lam, round, flag) kind, each field set to each value in turn
        kinds = {}
        for line in oracle_lines():
            rec = json.loads(line)
            kinds.setdefault((rec["lam"], rec["round"], rec["flag"]), line)
        paths = RECORD_PATHS + [("preimages", 0, 1), ("preimages", 2), ("ds", 0), ("keys", 2)]
        values = sorted(set(BIT_FIELD_VALUES) | {
            b"-3", b"3", b"2.5", b"[]", b"{}", b'"\\u0663"', b'"18446744073709551615"',
            b'"18446744073709551616"', b'"hadamard"', b'"fail_test"', b"false"})
        checked = 0
        for line in kinds.values():
            for path in paths:
                for raw in values:
                    edited = replaced(line, path, raw)
                    if edited == line:
                        continue
                    rec = json.loads(edited)
                    assert self.outcome(SessionTranscript.from_record, rec) == \
                        self.outcome(reference_from_record, rec), (path, raw)
                    checked += 1
        assert len(kinds) >= 6 and checked > 3000

    @staticmethod
    def outcome(reader, rec):
        try:
            t = reader(rec)
        except TranscriptParseError as exc:
            return str(exc)
        return t, repr(t)

    @settings(max_examples=300, deadline=None)
    @given(ops=mutations(RECORD_PATHS, ORACLE_VALUES))
    @example(ops=[("replace", 0, ("ys", 0), b'"0_1"')])
    @example(ops=[("insert", 3, 0, b" "), ("replace", 3, ("preimages", 1, 0), b'"2"')])
    def test_mutated_files_read_as_the_reference_reads_them(self, scratch_file, ops):
        self.check(scratch_file, mutate(oracle_lines(), ops))

    def test_whitespace_around_a_line_reads_as_the_reference_reads_it(self, scratch_file):
        line = oracle_lines()[1]
        for data in [b" " + line, line[:-1] + b" \r\n", b"\t\n" + line, line[:-1] + b"x\n",
                     line[:-1], b"\x0b\n" + line, line[:-1] + b"\x0b\n", b"\n\n"]:
            self.check(scratch_file, oracle_lines()[0] + data)

    @pytest.mark.parametrize("blank", [b"\x0b\n", b"\x1c\n", b"\x1f\r\n", b" \x0b \n",
                                       "\u2028\n".encode(), "\u3000\n".encode()])
    def test_a_line_of_other_whitespace_is_refused_by_its_number(self, scratch_file, blank):
        scratch_file.write_bytes(oracle_lines()[0] + b" \t\r\n" + blank + oracle_lines()[1])
        with pytest.raises(TranscriptParseError, match="^line 3: "):
            read_transcripts(scratch_file)


# ----------------------------------------------------------- template reader


def json_read(line: str):
    """What the JSON path makes of one line: from_record of the decoded value."""
    return SessionTranscript.from_record(engine._decoded(line))


def read_outcome(reader, line: str):
    """(transcript, repr) as reader reads line, or its exception's type and message."""
    try:
        t = reader(line)
    except (ValueError, RecursionError) as exc:
        return type(exc), str(exc)
    return t, repr(t)


def template_read(line: str):
    """(_record_from_line's transcript, whether it read line on the template path): the
    template path never calls the decoder."""
    with patch.object(engine, "_decoded", wraps=engine._decoded) as decoded:
        t = engine._record_from_line(line)
    return t, decoded.call_count == 0


class TestTemplateReader:
    """_record_from_line reads every line the writer emits on the template path, into the
    transcript the JSON path reads, and leaves every other line to the JSON path."""

    @settings(max_examples=40, deadline=None)
    @given(lam=st.integers(entcf.W_MIN, entcf.W_MAX), seed=st.integers(0, 2**64 - 1),
           decimals=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
           start=st.integers(0, 2**64 - 7), form=st.sampled_from(COVERED),
           pins=st.sampled_from(RENDER_PINS), flag=st.sampled_from(list(verifier.Flag)))
    @example(lam=4, seed=0, decimals=[0, 2**64 - 1], start=2**64 - 7, form="honest", pins={},
             flag=verifier.Flag.FAIL_PRE)
    def test_written_lines_read_on_the_template_path(self, lam, seed, decimals, start, form,
                                                     pins, flag):
        # _chunk_lines of hand-built columns: both rounds, every flag, claw and injective
        # keys, every decimal width; then _transcript_line of run_session's transcripts,
        # pinned or not, each also with the drawn flag
        cols = hand_built_columns(lam, decimals, seed)
        lines = bytes(engine._chunk_lines(lam, cols, start)).decode().splitlines(True)
        stand_ins = {w: (_XorBase(), _XorBase()) for w in range(17, entcf.W_MAX + 1)}
        with patch.dict(entcf._base_tables, stand_ins):
            transcripts = [run_session(SecurityParam(lam), parse_prover_spec(form), seed, i,
                                       **pins) for i in range(3)]
        for t in transcripts:
            edited = dataclasses.replace(t, flag=flag.value, accept=flag is verifier.Flag.NONE)
            lines += [engine._transcript_line(t), engine._transcript_line(edited)]
        hits = 0
        for line in lines:
            t, fast = template_read(line)
            hits += fast
            expected = json_read(line)
            assert t == expected and repr(t) == repr(expected)
        assert hits == len(lines)

    # (field, its new JSON text, whether the JSON path reads the line): each edit is read
    # or refused by _record_from_line as the JSON path does, with its message, with the
    # writer's line end, a CR before it, and none
    EDITS = {
        "index-4301-digits": ("index", "1" * 4301, False),
        "index-21-digits": ("index", "1" * 21, True),
        "index-negative": ("index", "-3", True),
        "index-leading-zero": ("index", "007", False),
        "seed-21-digits": ("seed", '"%s"' % ("1" * 21), False),
        "seed-2^64": ("seed", '"18446744073709551616"', False),
        "seed-2^64-1": ("seed", '"18446744073709551615"', True),
        "seed-arabic-indic": ("seed", '"\\u0661\\u0662"', False),
        "seed-arabic-indic-raw": ("seed", '"\u0661\u0662"', False),
        "lam-3": ("lam", "3", False),
        "lam-25": ("lam", "25", False),
        "accept-against-flag": ("accept", "false", False),
        "key-escaped-family": ("keys", '{"family": "\\u0046", "id": "1", "perm_seed": "2", '
                                       '"w": "4"}', True),
        "key-escaped-quote": ("keys", '{"family": "F", "id": "\\"", "perm_seed": "2", '
                                      '"w": "4"}', True),
        "key-control-character": ("keys", '{"family": "F", "id": "\x01", "perm_seed": "2", '
                                          '"w": "4"}', False),
        "abort-quoted": ("abort", '"ScriptError: \\"ys\\" is \\\\ short"', True),
    }

    @staticmethod
    def writer_line() -> str:
        """A line the writer emits, with a claw key; read on the template path."""
        line = next(text for text in map(bytes.decode, oracle_lines())
                    if '"flag": "none"' in text and '"shift"' in text)
        assert template_read(line)[1]
        return line

    def test_other_line_ends_read_as_the_json_path_reads_them(self):
        line = self.writer_line()
        for text in (line.replace("\n", "\r\n"), line.rstrip("\n")):
            t, fast = template_read(text)
            assert not fast
            assert (t, repr(t)) == read_outcome(json_read, text) == read_outcome(json_read, line)

    @pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
    def test_an_edited_line_reads_as_the_json_path_reads_it(self, edit):
        field, value, read = edit
        line = self.writer_line()
        if field == "keys":
            value = "[%s]" % ", ".join([value] * 3)
        start = line.index(f'"{field}": ') + len(f'"{field}": ')
        end = start + len(json.dumps(json.loads(line)[field]))
        edited = line[:start] + value + line[end:]
        if field == "abort":  # an aborted record has no flag
            edited = edited.replace('"flag": "none"', '"flag": null').replace(
                '"accept": true', '"accept": false')
        for text in (edited, edited.replace("\n", "\r\n"), edited.rstrip("\n")):
            outcome = read_outcome(json_read, text)
            assert isinstance(outcome[0], SessionTranscript) == read
            assert read_outcome(engine._record_from_line, text) == outcome


# ---------------------------------------------------------------- threads


class TestReusedGenerators:
    @pytest.mark.parametrize("draws", [
        lambda g: None,
        lambda g: g.integers(0, 2),          # leaves half a 64-bit word pending
        lambda g: g.random(3),               # leaves the Philox buffer part-used
        lambda g: g.integers(0, 1 << 63, size=9),
    ])
    def test_rekeyed_stream_matches_a_fresh_generator(self, draws):
        seed = 2**63 + 12345
        draws(_rekeyed(99, "test"))

        def stream(g):
            return [int(g.integers(0, 2)), int(g.integers(0, 1 << 17)), g.random(),
                    int(g.integers(0, 1 << 63)), int(g.integers(0, 2))]

        assert stream(_rekeyed(seed, "test")) == stream(rng_from(seed))

    def test_concurrent_sessions_match_their_sequential_runs(self):
        n = 150
        jobs = {"honest": (SP4, "honest", 11), "stabilizer": (SecurityParam(8), "stabilizer", 22)}

        def records(sp, spec, seed):
            _, transcripts = run_batch(sp, spec, n, seed, collect=True)
            return [t.to_record() for t in transcripts]

        expected = {name: records(*job) for name, job in jobs.items()}
        wire_expected = [run_session(SP4, HONEST, 33, i) for i in range(n)]

        results = {}
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            server, holder = serve_in_thread(SP4, 33, n)
            workers = [
                threading.Thread(target=lambda name=name: results.__setitem__(
                    name, records(*jobs[name])), daemon=True)
                for name in jobs
            ]
            for t in workers:
                t.start()
            verdicts = engine.connect(f"127.0.0.1:{holder['port']}", "honest", 33)
            for t in [server, *workers]:
                t.join(60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert results == expected
        assert len(verdicts) == n
        assert list(holder["result"][1]) == wire_expected
