"""Golden transcript digests: the bytes a fixed seed produces never change.

Each case runs a 200-session batch at master seed 2111 and hashes the
transcript file it would write. A change that alters any draw, any record
field or the record encoding moves a digest; SCHEMA.md is the contract.
Covered provers' batches take the array path; each case also runs with
every session replayed through run_session, which must give the same bytes.
Both ways the digest is taken twice: of write_transcripts of the collected
transcripts, and of what the batch itself writes to a sink, as `run --out`
does.
"""

import hashlib
import io

import numpy as np
import pytest

from magicert import engine
from magicert.engine import run_batch, write_transcripts
from magicert.entcf import SecurityParam
from magicert.verifier import RoundType

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


IDS = ["honest-l16", "stabilizer-l4", "depol-l16", "bitflip-l8", "stabilizer-l4-hyper",
       "depol-l4-hyper"]


@pytest.mark.parametrize("lam, spec, pins, digest", GOLDEN, ids=IDS)
def test_transcript_digest_is_pinned(lam, spec, pins, digest):
    assert transcript_digest(lam, spec, **pins) == digest


@pytest.mark.parametrize("lam, spec, pins, digest", GOLDEN, ids=IDS)
def test_sink_digest_is_pinned(lam, spec, pins, digest):
    assert sink_digest(lam, spec, **pins) == digest


@pytest.mark.parametrize("lam, spec, pins, digest", GOLDEN, ids=IDS)
def test_transcript_digest_is_pinned_when_every_session_replays(monkeypatch, lam, spec, pins,
                                                                 digest):
    replays = []
    run_session = engine.run_session

    def counted(*args, **kwargs):
        replays.append(args[3])
        return run_session(*args, **kwargs)

    monkeypatch.setattr(engine, "lemire_rejects", lambda x, k: np.ones(np.shape(x), dtype=bool))
    monkeypatch.setattr(engine, "run_session", counted)
    assert transcript_digest(lam, spec, **pins) == digest
    assert replays == list(range(200))
    assert sink_digest(lam, spec, **pins) == digest
    assert replays == list(range(200)) * 2
