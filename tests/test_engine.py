"""Engine tests: codec, transcripts, batch determinism, stats, wire transport."""

import contextlib
import functools
import io
import json
import socket
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicert import engine, entcf
from magicert.engine import (
    FlagStats,
    Message,
    SessionTranscript,
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
from magicert.provers import ScriptedProver, parse_prover_spec
from magicert.util import _rekeyed, parse_bits, rng_from
from magicert.verifier import RoundType

SP4 = SecurityParam(4)
HONEST = parse_prover_spec("honest")
DEEP_FRAME = b"[" * 100000 + b"]" * 100000 + b"\n"
UNTERMINATED = b"0" * (8 << 20)  # no newline: eight times the frame cap
# past CPython's 4,300-digit cap on int parsing, where json.loads raises a plain ValueError
HUGE_INT = b"1" * 5000
HUGE_COMMIT = b'{"v":1,"sid":"1","seq":1,"kind":"COMMIT","payload":{"ys":[' + HUGE_INT + b']}}\n'
UNWRITABLE_PREIMAGES = [[0, 99999], [1, 0], [0, 0]]  # 99999 is wider than w at lam 4


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


    def test_frame_cap_counts_the_newline(self):
        at_cap = b"x" * (engine.MAX_FRAME - 1) + b"\n"
        with pytest.raises(TransportError, match="undecodable frame"):
            engine._recv(io.BytesIO(at_cap))
        with pytest.raises(TransportError, match="frame longer than"):
            engine._recv(io.BytesIO(b"x" + at_cap))


class TestParseBits:
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
            assert parse_bits(s) == (int(s, 2), len(s))
        else:
            with pytest.raises(ValueError, match="not a bit string"):
                parse_bits(s)

    @pytest.mark.parametrize("bad", [None, 7, b"01", ["0", "1"]])
    def test_non_text_raises_type_error(self, bad):
        with pytest.raises(TypeError):
            parse_bits(bad)


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
        assert t.abort.startswith("MalformedAnswerError") and t.flag is None and not t.accept
        assert t.ys == (0, 0, 0) and t.preimages is None
        path = tmp_path / "aborted.jsonl"
        write_transcripts(path, [t])
        assert read_transcripts(path) == [t]

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

    def test_merge_is_associative_and_commutative(self):
        parts = [
            FlagStats.from_transcripts([synthetic(i, (1, 1, 1), "hadamard", f)])
            for i, f in enumerate(["none", "fail_hyper", "none"])
        ]
        a, b, c = parts
        ab_c = a.merge(b).merge(c)
        a_bc = a.merge(b.merge(c))
        ba_c = b.merge(a).merge(c)
        assert ab_c.as_dict() == a_bc.as_dict() == ba_c.as_dict()

    def test_empty_stats(self):
        stats = FlagStats()
        assert stats.n_sessions == 0
        assert stats.as_dict()["sessions"] == 0


# --------------------------------------------------------------------- batch


class TestRunBatch:
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


# ---------------------------------------------------------------------- wire


def serve_in_thread(sp, master_seed, n_sessions):
    """Start a loopback server; returns (thread, port, result holder)."""
    holder = {}
    port_ready = threading.Event()

    def on_listen(port):
        holder["port"] = port
        port_ready.set()

    def target():
        holder["result"] = engine.serve(
            sp, "127.0.0.1:0", master_seed, n_sessions, on_listen=on_listen
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

    @pytest.mark.parametrize("field", ["index", "lam"])
    def test_json_constant_in_keys_raises_transport_error(self, field):
        master_seed = 1717
        payload = {"index": 0, "lam": 4, "keys": [], field: "CONSTANT"}
        keys = Message(sid=engine.session_seed(master_seed, 0), seq=0, kind="KEYS",
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

    @pytest.mark.parametrize("bad", ["", "0x1", None, 7])
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

    @pytest.mark.parametrize("q", [7, None, ["0", "1", "0"], "0a1"])
    def test_malformed_questions_raise_transport_error(self, q):
        master_seed = 1313
        # play the server by hand for a session whose round coin says Hadamard
        index, sess = next((i, t) for i in range(20)
                           if (t := run_session(SP4, HONEST, master_seed, i)).round == "hadamard")
        seed = engine.session_seed(master_seed, index)
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

    @pytest.mark.parametrize("lam", [0, 3, -3, 10**6])
    def test_unsupported_lam_in_keys_raises_transport_error(self, lam):
        master_seed, index = 1717, 0
        keys = Message(sid=engine.session_seed(master_seed, index), seq=0, kind="KEYS",
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

    def test_parse_endpoint_forms(self):
        assert parse_endpoint("stdio") == ("stdio",)
        assert parse_endpoint("127.0.0.1:88") == ("tcp", "127.0.0.1", 88)
        assert parse_endpoint("tcp:localhost:9001") == ("tcp", "localhost", 9001)
        for bad in ("", "nohost", "host:", ":99", "host:notaport"):
            with pytest.raises(ParameterError):
                parse_endpoint(bad)


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


def mutations(paths):
    """Edits of a list of lines: drop, duplicate, swap, replace a field, truncate, insert bytes."""
    index = st.integers(0, 99)
    return st.lists(st.one_of(
        st.tuples(st.just("drop"), index),
        st.tuples(st.just("duplicate"), index),
        st.tuples(st.just("swap"), index, index),
        st.tuples(st.just("replace"), index, st.sampled_from(paths), RAW_VALUES),
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
        assert all(isinstance(v, dict) for v in verdicts)

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
