"""Deterministic seeding, random draws, bit-string codecs and sampling helpers.

Every random choice in the package flows through a counter-based
generator (Philox) keyed by 64-bit seeds derived with `derive_seed`,
so identical seeds reproduce identical runs bit for bit on a given
platform.

`rng_from` builds a fresh generator. Internal sites that need a generator
for one call only use `_rekeyed` instead: it resets a reused per-thread
Philox to the same key at counter 0, so the documented streams are
unchanged while construction (a SeedSequence with an OS entropy read) is
paid once per thread and slot.

`_Stream` makes every draw from a stream's raw 64-bit words by SCHEMA.md's
rules, on one stream or on many at once (their words from `philox_words`);
only entcf's base permutation is left to a Generator, its shuffle. The seed
derivation and Lemire's bounded draw run unchanged on Python ints and on
uint64 arrays, so a batch of sessions is drawn as array operations.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

MASK64 = (1 << 64) - 1

# splitmix64 increment; any odd constant with good avalanche would do
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x):
    """splitmix64 finalizer: scramble a 64-bit integer (an int, or each of a uint64 array)."""
    x = x & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, *lanes: int) -> int:
    """Fold lane indices into a seed, one splitmix64 step per lane.

    derive_seed(s, a, b) == derive_seed(derive_seed(s, a), b); the lane
    tuple addresses a node in a seed tree (session index, role, ...). The
    seed or any lane may be a uint64 array, giving one seed per element.
    """
    s = seed & MASK64
    for lane in lanes:
        s = mix64(s + (_GOLDEN + lane & MASK64))
    return s


def rng_from(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


_ZEROS4 = (0, 0, 0, 0)
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
    # plain tuples: the state setter reads them element by element, and
    # building uint64 arrays per call cost more than the rekey itself
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS4, "key": (seed & MASK64, 0)},
        "buffer": _ZEROS4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


# Philox4x64-10 round multipliers, split into 32-bit limbs, and the two key
# increments (Salmon et al., SC'11); NumPy scalars, because a Python int
# operand costs a range check on every array operation
_U64 = np.uint64
_PHILOX_M = tuple((_U64(m), _U64(m & 0xFFFFFFFF), _U64(m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W0 = _U64(0x9E3779B97F4A7C15)
_PHILOX_W1 = tuple(_U64(r * 0xBB67AE8584CAA73B & MASK64) for r in range(10))
_LO32, _32 = _U64(0xFFFFFFFF), _U64(32)


def _mulhilo(a: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of each a * m, from 32-bit limb products.

    No sum below can wrap: (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64.
    """
    m, m_lo, m_hi = m
    a_lo, a_hi = a & _LO32, a >> _32
    carry = a_lo * m_hi + (a_lo * m_lo >> _32)
    mid = a_hi * m_lo + (carry & _LO32)
    return a_hi * m_hi + (carry >> _32) + (mid >> _32), a * m


# NumPy's own Philox(key=k).random_raw gives the same words, one key at a time:
# over 16,384 keys of two blocks each it took about 21 us a key fresh, and
# 2.5-3.4 us rekeying one reused generator (_rekeyed), against 0.7-1.0 us a key
# here (NumPy 2.4, 2-core Xeon). A session reads about eight keys, so either
# would cost more than the array path's whole time per session: about 4 us for
# stats-only honest chunks of 2,048 sessions at lam 4 and 16.
def philox_words(keys: np.ndarray, first_block: int, blocks: int) -> np.ndarray:
    """Raw words 4*first_block .. 4*(first_block+blocks)-1 of rng_from(k), per uint64 key k.

    Row j of the result is word 4*first_block + j of every key's stream:
    NumPy's Philox keys its stream (k, 0), raises the counter before each
    block, and hands a block's four words out in order, so block b is
    Philox4x64-10 of the counter (b + 1, 0, 0, 0).
    """
    # Round 0 of the counter (b + 1, 0, 0, 0) gives (key, 0, hi, lo) of (b + 1)·M0, and
    # round 1's M1 product of that hi is per block too: start from round 1, with the
    # block constants as a (blocks, 1) column and each key's as an (n,) row
    block = np.arange(first_block + 1, first_block + blocks + 1, dtype=_U64)[:, None]
    hi, lo = _mulhilo(block, _PHILOX_M[0])
    hi1, lo1 = _mulhilo(hi, _PHILOX_M[1])
    hi0, lo0 = _mulhilo(keys, _PHILOX_M[0])
    key = keys + _PHILOX_W0
    c = (hi1 ^ key, lo1, hi0 ^ lo ^ _PHILOX_W1[1], lo0)
    for r in range(2, 10):
        key = key + _PHILOX_W0
        hi0, lo0 = _mulhilo(c[0], _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c[2], _PHILOX_M[1])
        c = (hi1 ^ c[1] ^ key, lo1, hi0 ^ c[3] ^ _PHILOX_W1[r], lo0)
    return np.stack(c).transpose(1, 0, 2).reshape(4 * blocks, len(keys))


def lemire(x, k: int):
    """NumPy's bounded draw integers(0, k), 1 < k < 2^32, from one 32-bit half x."""
    return x * k >> 32


def lemire_rejects(x, k: int):
    """Whether that draw rejects x and reads another half: (x*k mod 2^32) < 2^32 mod k.

    It never does when k is a power of two.
    """
    return (x * k & 0xFFFFFFFF) < (1 << 32) % k


class _Stream:
    """The draws of rng_from(k) by SCHEMA.md's rules, on one stream or on many at once.

    Given a bit generator with no pending 32-bit half (rng_from's and
    _rekeyed's have none), it reads that one stream's words through
    random_raw(), and a draw is an int. Given an array, column i is session
    i's stream (from philox_words, which says why NumPy's own Philox does
    not make them), and a draw is an array. Each stream keeps its own place:
    its next word, and whether it holds a pending high half. A 32-bit draw
    takes the pending half if there is one, else the low half of the next
    word; a 64-bit draw takes the next word and leaves a pending half
    pending. A draw given a session mask is made by the masked sessions
    only: the others keep their places, and its values there mean nothing.
    While every session is at the same place, that place is an int and a
    bool, and a draw reads one row of words. A read past the words held
    appends the next block of the streams' Philox keys.
    """

    def __init__(self, words, keys=None):
        if isinstance(words, np.ndarray):
            self.words, self.keys, self.lanes = words, keys, np.arange(words.shape[1])
            self.low, self.high = _LO32, _32
        else:  # one stream, which draws unmasked: _take is called only to move past a word
            self._take, self.low, self.high = lambda moved: words.random_raw(), 0xFFFFFFFF, 32
        self.next, self.held, self.pending = 0, False, 0

    @staticmethod
    def _parted(mask):
        """True if every session draws, False if none does, else the mask."""
        if type(mask) is bool:
            return mask
        return False if not mask.any() else True if mask.all() else mask

    def _take(self, moved) -> np.ndarray:
        """Each session's next word; the sessions in moved go past it."""
        try:
            word = (self.words[self.next] if type(self.next) is int
                    else self.words[self.next, self.lanes])
        except IndexError:  # only a redrawn half reads past the first blocks
            self.words = np.vstack([self.words, philox_words(self.keys, len(self.words) // 4, 1)])
            return self._take(moved)
        self.next = self.next + moved
        return word

    def word(self, mask=True):
        return self._take(self._parted(mask))

    def half(self, mask=True):
        mask = self._parted(mask)
        if mask is False:
            return self.words[0]
        if self.held is True:
            half = self.pending
        else:
            fresh = mask & (self.held ^ True)
            word = self._take(fresh)
            if fresh is True:
                half, self.pending = word & self.low, word >> self.high
            else:
                half = np.where(self.held, self.pending, word & self.low)
                self.pending = np.where(fresh, word >> self.high, self.pending)
        self.held = self._parted(self.held ^ mask)
        return half

    def bits(self, width: int, mask=True):
        """integers(0, 2^width): Lemire's draw on a power-of-two range never rejects."""
        return lemire(self.half(mask), 1 << width)

    def uniform(self, mask=True):
        """random(): the next word's top 53 bits over 2^53."""
        return (self.word(mask) >> 11) * 2.0 ** -53

    def u64(self, mask=True):
        """A 64-bit seed: integers(0, 2^63) shifted left once, or'd with a coin."""
        return self.word(mask) >> 1 << 1 | self.bits(1, mask)

    def below(self, k: int):
        """integers(0, k), 1 < k < 2^32: Lemire's draw, each stream reading halves until
        it accepts one."""
        half = self.half()
        again = self._parted(lemire_rejects(half, k))
        while again is not False:
            redrawn = self.half(again)
            half = redrawn if again is True else np.where(again, redrawn, half)
            again = self._parted(again & lemire_rejects(half, k))
        return lemire(half, k)


def parity(x: int) -> int:
    return x.bit_count() & 1


def bits_str(x: int, width: int) -> str:
    """Render an integer as MSB-first 0/1 characters of fixed width."""
    if not 0 <= x < (1 << width):
        raise ValueError(f"{x} does not fit in {width} bits")
    return format(x, f"0{width}b")


def parse_bits(s: str) -> tuple[int, int]:
    """Parse an MSB-first 0/1 string; returns (value, width)."""
    if not isinstance(s, str):
        raise TypeError(f"not a bit string: {s!r}")
    if not s or s.strip("01"):
        raise ValueError(f"not a bit string: {s!r}")
    return int(s, 2), len(s)


def int_to_tuple(x: int, width: int) -> tuple[int, ...]:
    return tuple((x >> (width - 1 - i)) & 1 for i in range(width))


def sample_edges(edges: Sequence[float], u: float) -> int:
    """Draw an index from cumulative weights with a single uniform u.

    The index is the first edge above u * edges[-1], capped at the last
    index for a product that rounds up to edges[-1].
    """
    r = u * edges[-1]
    return min(bisect_right(edges, r), len(edges) - 1)


def sample_edges_rows(rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sample_edges for many draws: row i holds draw i's edges and u[i] its uniform.

    The search repeats bisect_right's halving step for step, so each index
    equals sample_edges' even where a row's edges are not sorted.
    """
    r = u * rows[:, -1]
    width, lanes = rows.shape[1], np.arange(len(r))
    lo, hi = np.zeros(len(r), dtype=np.intp), np.full(len(r), width, dtype=np.intp)
    for _ in range(width.bit_length()):
        mid = (lo + hi) // 2
        below = r < rows[lanes, np.minimum(mid, width - 1)]
        live = lo < hi
        lo, hi = np.where(live & ~below, mid + 1, lo), np.where(live & below, mid, hi)
    return np.minimum(lo, width - 1)
