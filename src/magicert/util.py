"""Deterministic seeding, bit-string codecs and small sampling helpers.

Every random choice in the package flows through a counter-based
generator (Philox) keyed by 64-bit seeds derived with `derive_seed`,
so identical seeds reproduce identical runs bit for bit on a given
platform.

`rng_from` builds a fresh generator. Internal sites that need a generator
for one call only use `_rekeyed` instead: it resets a reused per-thread
Philox to the same key at counter 0, so the documented streams are
unchanged while construction (a SeedSequence with an OS entropy read) is
paid once per thread and slot.
"""

from __future__ import annotations

import threading

import numpy as np

MASK64 = (1 << 64) - 1

# splitmix64 increment; any odd constant with good avalanche would do
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: scramble a 64-bit integer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *lanes: int) -> int:
    """Fold lane indices into a seed, one splitmix64 step per lane.

    derive_seed(s, a, b) == derive_seed(derive_seed(s, a), b); the lane
    tuple addresses a node in a seed tree (session index, role, ...).
    """
    s = seed & MASK64
    for lane in lanes:
        s = mix64((s + _GOLDEN + (lane & MASK64)) & MASK64)
    return s


def rng_from(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


_ZEROS4 = np.zeros(4, dtype=np.uint64)
_reused = threading.local()


def _rekeyed(seed: int, slot: str) -> np.random.Generator:
    """The stream of rng_from(seed), drawn from a generator reused per thread.

    Philox is counter-based, so setting key=[seed, 0], a zero counter, an
    empty buffer and no pending 32-bit half reproduces a fresh generator's
    state exactly. Each (thread, slot) owns one generator, and rekeying it
    restarts any stream handed out earlier from that slot: a caller may
    only use the result until it next asks for the same slot.
    """
    gen = getattr(_reused, slot, None)
    if gen is None:
        gen = np.random.Generator(np.random.Philox(key=0))
        setattr(_reused, slot, gen)
    key = np.zeros(2, dtype=np.uint64)
    key[0] = seed & MASK64
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": key},
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def rand_bits(rng: np.random.Generator, width: int) -> int:
    """One uniform draw from {0,1}^width, packed MSB-first into an int."""
    if width <= 0:
        raise ValueError("width must be positive")
    return int(rng.integers(0, 1 << width))


def rand_u64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 1 << 63)) << 1 | int(rng.integers(0, 2))


def parity(x: int) -> int:
    return x.bit_count() & 1


def bits_str(x: int, width: int) -> str:
    """Render an integer as MSB-first 0/1 characters of fixed width."""
    if not 0 <= x < (1 << width):
        raise ValueError(f"{x} does not fit in {width} bits")
    return format(x, f"0{width}b")


def parse_bits(s: str) -> tuple[int, int]:
    """Parse an MSB-first 0/1 string; returns (value, width)."""
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"not a bit string: {s!r}")
    return int(s, 2), len(s)


def int_to_tuple(x: int, width: int) -> tuple[int, ...]:
    return tuple((x >> (width - 1 - i)) & 1 for i in range(width))


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector with a single uniform."""
    edges = np.cumsum(probs)
    r = rng.random() * edges[-1]
    idx = int(np.searchsorted(edges, r, side="right"))
    return min(idx, len(probs) - 1)
