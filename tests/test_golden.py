"""Golden transcript digests: the bytes a fixed seed produces never change.

Each case runs a 200-session batch at master seed 2111 and hashes the
transcript file it would write. A change that alters any draw, any record
field or the record encoding moves a digest; SCHEMA.md is the contract.
Covered provers' batches take the array path, and the digest is taken
twice: of write_transcripts of the collected transcripts, and of what the
batch itself writes to a sink, as `run --out` does. Each case's 200
sessions run one by one through run_session must give the same bytes.

Every draw is made from raw Philox words by SCHEMA.md's rules, not by a
NumPy Generator method, so run_session keeps these bytes when handed
Generators whose integers and random raise.
"""

import hashlib
import io
import json
import socket
import threading

import numpy as np
import pytest

from magicert import engine, util, verifier
from magicert.engine import (
    Message,
    read_transcripts,
    run_batch,
    run_session,
    write_transcripts,
)
from magicert.entcf import Family, SecurityParam
from magicert.provers import parse_prover_spec
from magicert.util import bits_str, derive_seed
from magicert.verifier import RoundType
from test_engine import serve_in_thread

GOLDEN = [
    (16, "honest", {},
     "75e7018d726f7bd00e76821bf65ac56407226b8dd1d77a1c2b7e8d2817833588"),
    (4, "stabilizer", {},
     "3337c626a5593b4b7b1dd5aa95a627b6726dc35bb24126fe4cd6cb9ae84ea0f5"),
    (16, "noisy:depol:0.05", {},
     "ecc0a0716663d39059d31fd555ab381ad1542dfc66caac8e1b666532ca3241d1"),
    (8, "noisy:bitflip:0.1", {},
     "db3dece36fcba357eab9463b5912555c681ec60b52774c65c8e615eb8af201ee"),
    (4, "stabilizer", {"theta": (1, 1, 1), "round": RoundType.HADAMARD},
     "566b709e2cbe57c2b075bd2d1a28ce717636c013df0f55c43a55d1b954058deb"),
    (4, "noisy:depol:0.3", {"theta": (1, 1, 1), "round": RoundType.HADAMARD},
     "75f3d853f91e3e53b126962be1fc24bcac5dd5b2ef15f4e33f15499bbd7737e6"),
]


def transcript_digest(lam, spec, master_seed=2111, n=200, **pins) -> str:
    _, transcripts = run_batch(SecurityParam(lam), spec, n, master_seed, collect=True, **pins)
    buf = io.StringIO()
    write_transcripts(buf, transcripts)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def sink_digest(lam, spec, master_seed=2111, n=200, **pins) -> str:
    buf = io.StringIO()
    run_batch(SecurityParam(lam), spec, n, master_seed, sink=buf, **pins)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def session_digest(lam, spec, master_seed=2111, n=200, **pins) -> str:
    factory, buf = parse_prover_spec(spec), io.StringIO()
    write_transcripts(buf, [run_session(SecurityParam(lam), factory, master_seed, index, **pins)
                            for index in range(n)])
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


IDS = ["honest-l16", "stabilizer-l4", "depol-l16", "bitflip-l8", "stabilizer-l4-hyper",
       "depol-l4-hyper"]


@pytest.mark.parametrize("lam, spec, pins, digest", GOLDEN, ids=IDS)
def test_transcript_digest_is_pinned(lam, spec, pins, digest):
    assert transcript_digest(lam, spec, **pins) == digest


@pytest.mark.parametrize("lam, spec, pins, digest", GOLDEN, ids=IDS)
def test_sink_digest_is_pinned(lam, spec, pins, digest):
    assert sink_digest(lam, spec, **pins) == digest


@pytest.mark.parametrize("lam, spec, pins, digest", GOLDEN, ids=IDS)
def test_session_digest_is_pinned(lam, spec, pins, digest):
    assert session_digest(lam, spec, **pins) == digest


class Refusing(np.random.Generator):
    """A Generator whose own draws raise: only its bit generator's words may be read."""

    def integers(self, *args, **kwargs):
        raise AssertionError("a draw through Generator.integers")

    def random(self, *args, **kwargs):
        raise AssertionError("a draw through Generator.random")


class RefusingSlots(threading.local):
    """util._rekeyed's per-thread generators, each one Refusing."""

    def __getattr__(self, slot):
        gen = Refusing(np.random.Philox(key=0))
        setattr(self, slot, gen)
        return gen


@pytest.mark.parametrize("lam, spec, pins, digest", GOLDEN, ids=IDS)
def test_sessions_from_refusing_generators_keep_the_digest(monkeypatch, lam, spec, pins, digest):
    monkeypatch.setattr(util, "_reused", RefusingSlots())
    assert session_digest(lam, spec, **pins) == digest
    assert isinstance(util._rekeyed(1, "verifier"), Refusing)


# 12 loopback sessions at lam 8, master seed 4242, as served before draws left the Generator
WIRE_GOLDEN = [("honest", "89e9c17023f4e7224dc784df5edc2513309def365aa9a48a420fcd61073421c8"),
               ("noisy:bitflip:0.3",
                "7f6f186a8ab0ebd83c7ad1edea697bef92e82a6fa808187bf94c548edd41d206")]


@pytest.mark.parametrize("spec, digest", WIRE_GOLDEN, ids=["honest", "bitflip"])
def test_loopback_sessions_from_refusing_generators_keep_the_digest(monkeypatch, spec, digest):
    monkeypatch.setattr(util, "_reused", RefusingSlots())  # on the server's thread as well
    thread, holder = serve_in_thread(SecurityParam(8), 4242, 12)
    engine.connect(f"127.0.0.1:{holder['port']}", spec, 4242)
    thread.join(10.0)
    buf = io.StringIO()
    write_transcripts(buf, holder["result"][1])
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def key_map(h, k) -> dict:
    """A key's record as SCHEMA.md gives it: flat text, a claw key's shift included."""
    rec = {"id": str(h.key_id), "w": str(h.w), "family": k.family.value,
           "perm_seed": str(k.perm_seed)}
    if k.family is Family.CLAW:
        rec["shift"] = bits_str(k.shift, h.w)
    return rec


def test_direct_calls_on_refusing_generators_draw_the_pinned_sessions():
    """begin and a prover given Generators directly, as criterion 6 gives them, draw what
    the array path draws for the bitflip case above (its digest is pinned)."""
    sp, spec = SecurityParam(8), "noisy:bitflip:0.1"
    _, batch = run_batch(sp, spec, 60, 2111, collect=True)
    factory = parse_prover_spec(spec)
    for t in batch:
        def lane(tag):
            return Refusing(np.random.Philox(key=derive_seed(t.seed, tag)))

        sess = verifier.begin(sp, lane(engine._VERIFIER_LANE))
        prover = factory(sess.registry, lane(engine._PROVER_LANE), t.index)
        if sess.receive_commit(prover.commit(sess.handles)) is RoundType.PREIMAGE:
            sess.check_preimage(prover.answer_preimage())
        else:
            ds = prover.answer_hadamard()
            sess.check_hadamard(ds, prover.answer_questions(sess.send_questions()))
        keys = tuple(map(key_map, sess.handles, sess.trapdoors))
        assert (sess.theta, keys, sess.ys, sess.round.value, sess.preimages, sess.ds, sess.q,
                sess.test_index, sess.vs, sess.flag.value) == \
            (t.theta, t.keys, t.ys, t.round, t.preimages, t.ds, t.q, t.test_index, t.vs, t.flag)
    assert {t.round for t in batch} == {"preimage", "hadamard"}
    assert {t.test_index for t in batch} >= {0, 1, 2}


# ------------------------------------------------------------ aborted records

# script values that the aborts quote: each holds characters that json escapes
QUOTED = ['"', "\\", "\x00\t\x1f\x7f", "\u2028\u2029", "é ü 中 😀", "'\"\\\n"]
COMPLETES = {"ys": [0, 1, 2], "preimages": [[0, 1], [1, 0], [0, 3]], "ds": [1, 2, 3],
             "vs": [0, 1, 1]}


def aborting_script() -> list:
    """A script whose sessions abort on a commitment, a preimage or an answer that quotes
    one of QUOTED, on a record that lacks ys or is no mapping, on a commitment too wide,
    or complete."""
    records = []
    for value in QUOTED:
        records += [{"ys": [value, 0, 0]}, {**COMPLETES, "preimages": [[value, 0]] * 3},
                    {**COMPLETES, "vs": [0, value, 1]}, {value: 1}, COMPLETES]
    return [*records, QUOTED[3], {"ys": [1 << 9, 0, 0]}]


def test_scripted_aborts_digest_is_pinned(tmp_path):
    """A lambda 8 scripted batch whose aborts quote QUOTED: the sink's bytes, as `run --out`
    writes them, and write_transcripts of the collected transcripts."""
    script = tmp_path / "script.json"
    script.write_text(json.dumps(aborting_script()), encoding="utf-8")
    sink, again = io.StringIO(), io.StringIO()
    _, transcripts = run_batch(SecurityParam(8), f"scripted:{script}", len(aborting_script()),
                               2111, sink=sink, collect=True)
    assert sum(t.abort is not None for t in transcripts) > 3 * len(QUOTED)
    write_transcripts(again, transcripts)
    digest = "bd3ccaf1b9e7dd08f11b98ab065efffd2f6d7f0401af105f5b7f62edb3d215d1"
    assert [hashlib.sha256(buf.getvalue().encode()).hexdigest() for buf in (sink, again)] == [
        digest, digest]


# each session's COMMIT payload from a hostile peer; None plays the session honestly
HOSTILE_COMMITS = [{"ys": ['"\\\u2028é😀\x00', "0", "0"]}, {"ys": "\u2028"},
                   {"ys": ["00000"] * 3}, None, {"ys": [{"é": "\x1f"}, "0", "0"]}]


def test_served_file_of_a_hostile_peer_is_pinned(tmp_path):
    """serve --out's file at lambda 8 after a peer's malformed COMMITs: four sessions abort
    with the wire parser's text, one runs honestly, and a COMMIT of an unknown kind ends
    the stream."""
    out, master_seed = tmp_path / "served.jsonl", 4343
    thread, holder = serve_in_thread(SecurityParam(8), master_seed, len(HOSTILE_COMMITS) + 1,
                                     sink=out)
    with socket.create_connection(("127.0.0.1", holder["port"]), timeout=10.0) as conn:
        rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
        with rfile, wfile:
            for payload in HOSTILE_COMMITS:
                keys = engine._recv(rfile)
                if payload is None:
                    engine._client_one(rfile, wfile, parse_prover_spec("honest"), master_seed,
                                       keys)
                    continue
                wfile.write(Message(sid=keys.sid, seq=1, kind="COMMIT", payload=payload).encode())
                wfile.flush()
                assert engine._recv(rfile).payload["abort"].startswith("MalformedAnswerError")
            keys = engine._recv(rfile)
            wfile.write(Message(sid=keys.sid, seq=1, kind="COMMIT", payload={}).encode()
                        .replace(b'"COMMIT"', b'"COMM\\u2028IT"'))
            wfile.flush()
    thread.join(10.0)
    assert not thread.is_alive()
    transcripts = holder["result"][1]
    assert [t.abort is None for t in transcripts] == [False, False, False, True, False, False]
    assert transcripts[-1].abort == "TransportError: unknown message kind 'COMM\\u2028IT'"
    digest = "d799183589c2750dec887cba4184ad2a0cbffcda711867e886bd1ea3971c550f"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# records whose bit texts are wider than lambda 4 allows: no decision reads the widths
OVER_WIDE = [
    '{"abort": null, "accept": true, "ds": ["111111111", "0001", "0000"], "flag": "none", '
    '"index": 0, "keys": [{}, {}, {}], "lam": 4, "preimages": null, "q": "000", '
    '"round": "hadamard", "seed": "5", "test_index": 0, "theta": "000", "vs": "000", '
    '"ys": ["111111111", "00000", "00001"]}\n',
    '{"abort": null, "accept": false, "ds": null, "flag": "fail_pre", "index": 1, '
    '"keys": [{}, {}, {}], "lam": 4, "preimages": [["1", "111111111"], ["0", "0001"], '
    '["0", "0000"]], "q": null, "round": "preimage", "seed": "6", "test_index": null, '
    '"theta": "001", "vs": null, "ys": ["00000", "1111111111", "00001"]}\n',
]


def test_over_wide_bit_values_write_back_as_they_read(tmp_path):
    path = tmp_path / "wide.jsonl"
    path.write_text("".join(OVER_WIDE), encoding="utf-8")
    transcripts = read_transcripts(path)
    buf = io.StringIO()
    write_transcripts(buf, transcripts)
    assert buf.getvalue() == "".join(OVER_WIDE)
    assert [json.dumps(t.to_record(), sort_keys=True) + "\n" for t in transcripts] == OVER_WIDE
