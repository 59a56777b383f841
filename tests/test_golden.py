"""Golden transcript digests: the bytes a fixed seed produces never change.

Each case runs a 200-session batch at master seed 2111 and hashes the
transcript file it would write. A change that alters any draw, any record
field or the record encoding moves a digest; SCHEMA.md is the contract.
"""

import hashlib
import io

import pytest

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
]


def transcript_digest(lam, spec, master_seed=2111, n=200, **pins) -> str:
    _, transcripts = run_batch(SecurityParam(lam), spec, n, master_seed, collect=True, **pins)
    buf = io.StringIO()
    write_transcripts(buf, transcripts)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize(
    "lam, spec, pins, digest", GOLDEN,
    ids=["honest-l16", "stabilizer-l4", "depol-l16", "bitflip-l8", "stabilizer-l4-hyper"],
)
def test_transcript_digest_is_pinned(lam, spec, pins, digest):
    assert transcript_digest(lam, spec, **pins) == digest
