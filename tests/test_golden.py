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
import threading

import numpy as np
import pytest

from magicert import engine, util, verifier
from magicert.engine import run_batch, run_session, write_transcripts
from magicert.entcf import SecurityParam, key_record
from magicert.provers import parse_prover_spec
from magicert.util import derive_seed
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
        keys = tuple(key_record(h.key_id, h.w, k.family, k.perm_seed, k.shift)
                     for h, k in zip(sess.handles, sess.trapdoors))
        assert (sess.theta, keys, sess.ys, sess.round.value, sess.preimages, sess.ds, sess.q,
                sess.test_index, sess.vs, sess.flag.value) == \
            (t.theta, t.keys, t.ys, t.round, t.preimages, t.ds, t.q, t.test_index, t.vs, t.flag)
    assert {t.round for t in batch} == {"preimage", "hadamard"}
    assert {t.test_index for t in batch} >= {0, 1, 2}
