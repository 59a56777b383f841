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
only entcf's base permutation is left to a Generator, its shuffle. On many
streams, `_Stream.halves` makes a run of masked 32-bit draws in one gather.
The seed derivation and Lemire's bounded draw run on Python ints and on
uint64 arrays, so a batch of sessions is drawn as array operations; on
arrays the derivation takes 0-d constants and no 64-bit masks, since
uint64 arithmetic wraps by itself.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

MASK64 = (1 << 64) - 1

# splitmix64 increment; any odd constant with good avalanche would do
_GOLDEN = 0x9E3779B97F4A7C15
# mix64's shifts and multipliers, then _GOLDEN, as 0-d uint64 arrays for the array path:
# NumPy takes a 0-d operand faster than a Python int, and without a scalar's wrap warning
_MIX = tuple(np.array(c, dtype=np.uint64)
             for c in (30, 27, 31, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, _GOLDEN))


def mix64(x):
    """splitmix64 finalizer: scramble a 64-bit integer (an int, or each of a uint64 array)."""
    if isinstance(x, np.ndarray):  # uint64 arithmetic wraps by itself: no mask to take
        x = (x ^ x >> _MIX[0]) * _MIX[3]
        x = (x ^ x >> _MIX[1]) * _MIX[4]
        return x ^ x >> _MIX[2]
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
    s = seed if isinstance(seed, np.ndarray) else seed & MASK64
    for lane in lanes:
        s = mix64(s + lane + _MIX[5] if isinstance(lane, np.ndarray)
                  else s + (_GOLDEN + lane & MASK64))
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


# Philox4x64-10's round multipliers M0, M1 and key increments W0, W1 (Salmon et al., SC'11).
# From them, as Python ints masked to 64 bits: philox_words' multiplier tables (M0 and M1,
# their low limbs, their high limbs), W0, and round r's second key word r W1. A lone
# operand is a 0-d array, which NumPy takes faster than a NumPy scalar or a Python int
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = np.uint64
_LO32, _32 = np.array(0xFFFFFFFF, dtype=_U64), np.array(32, dtype=_U64)
_PHILOX_TABLES = np.array([[m >> s & 0xFFFFFFFF if s < 64 else m for m in _PHILOX_M]
                           for s in (64, 0, 32)], dtype=_U64)[:, :, None, None]
_PHILOX_W0 = np.array(_PHILOX_W[0], dtype=_U64)
_PHILOX_K1 = tuple(np.array(r * _PHILOX_W[1] & MASK64, dtype=_U64) for r in range(10))


# NumPy's own Philox(key=k).random_raw gives the same words, one key at a time: over
# 16,384 keys of two blocks each it took about 21 us a key fresh, and 2.5-3.4 us
# rekeying one reused generator (_rekeyed). A call here makes about 185 NumPy calls
# whatever its size, so a small one is mostly their dispatch: about 66 us for one key
# of two blocks, 125 us for 300 keys, 240 us for 900 and 0.86 ms for 4,096 (NumPy 2.4,
# 2-core x86-64; a session reads about eight keys).
def philox_words(keys: np.ndarray, first_block: int, blocks: int) -> np.ndarray:
    """Raw words 4*first_block .. 4*(first_block+blocks)-1 of rng_from(k), per uint64 key k.

    Row j of the result is word 4*first_block + j of every key's stream:
    NumPy's Philox keys its stream (k, 0), raises the counter before each
    block, and hands a block's four words out in order, so block b is
    Philox4x64-10 of the counter (b + 1, 0, 0, 0).
    """
    # The state's multiplied words (c0, c2) are one contiguous (2, blocks, n) array, so a
    # round multiplies it by whole multiplier tables; the other two words are the
    # last round's low products, (c3, c1) in that order. A round's permutation is taken by
    # choosing rows as the new words are written. Every working buffer is a view of one
    # scratch array: one allocation per call, which malloc hands back without fresh pages (a
    # fresh buffer each cost more in page faults than the arithmetic)
    n = len(keys)
    size = 2 * blocks * n
    scratch = np.empty(9 * size + blocks * n, dtype=_U64)
    state = scratch[:9 * size].reshape(9, 2, blocks, n)
    np.copyto(state[:3], _PHILOX_TABLES)
    m, m_lo, m_hi, c, lo, prev, t, hi, t2 = state
    # round r's first key word k + r W0, whole-shape and raised by W0 each round: a ufunc
    # buffers an operand broadcast over the blocks (at 4,096 keys, twice the time and 64 KiB)
    key0 = scratch[9 * size:].reshape(blocks, n)
    np.copyto(key0, keys)
    out = np.empty((blocks, 4, n), dtype=_U64)  # block b's words c0, c1, c2, c3
    # round 0 of the counter (b + 1, 0, 0, 0) gives (k, 0, hi, lo) of (b + 1) M0
    block_hi, block_lo = np.array([divmod((b + 1) * _PHILOX_M[0], 1 << 64) for b in range(
        first_block, first_block + blocks)], dtype=_U64).T[:, :, None]
    np.copyto(c[0], keys)
    np.copyto(c[1], block_hi)
    np.copyto(prev[0], block_lo)
    prev[1] = 0
    # ufuncs and views bound once, outputs passed positionally: at a few keys a round is
    # mostly the dispatch of its 19 calls
    band, shr, mul, add, xor = np.bitwise_and, np.right_shift, np.multiply, np.add, np.bitwise_xor
    lo32, s32, c0, c2, hi0, hi1 = _LO32, _32, c[0], c[1], hi[0], hi[1]
    for key1 in _PHILOX_K1[1:]:
        add(key0, _PHILOX_W0, key0)
        # each c * m as 64-bit words from 32-bit limb products, its high word into hi and
        # its low into lo, c overwritten. No sum can wrap: (2^32 - 1)^2 + 2 (2^32 - 1) < 2^64
        band(c, lo32, t)
        shr(c, s32, hi)
        mul(c, m, lo)
        mul(t, m_lo, t2)
        shr(t2, s32, t2)
        mul(t, m_hi, c)
        add(c, t2, c)  # carry = c_lo m_hi + (c_lo m_lo >> 32)
        mul(hi, m_lo, t2)
        band(c, lo32, t)
        add(t2, t, t2)  # mid = c_hi m_lo + (carry & LO32)
        mul(hi, m_hi, hi)
        shr(c, s32, c)
        add(hi, c, hi)
        shr(t2, s32, t2)
        add(hi, t2, hi)
        xor(hi, prev, hi)  # (hi(c0 M0) ^ c3, hi(c2 M1) ^ c1)
        xor(hi1, key0, c0)
        xor(hi0, key1, c2)
        prev, lo = lo, prev
    np.copyto(out[:, 0::2], c.transpose(1, 0, 2))
    np.copyto(out[:, 1::2], prev[::-1].transpose(1, 0, 2))
    return out.reshape(4 * blocks, n)


@lru_cache(maxsize=None)
def _operand(c: int) -> np.ndarray:
    """c as a read-only 0-d uint64 array: NumPy takes it faster than a Python int."""
    a = np.array(c, dtype=_U64)
    a.flags.writeable = False
    return a


def lemire(x, k: int):
    """NumPy's bounded draw integers(0, k), 1 < k < 2^32, from one 32-bit half x: an int,
    or each of a uint64 array."""
    if isinstance(x, np.ndarray):
        return x * _operand(k) >> _32
    return x * k >> 32


def lemire_rejects(x, k: int):
    """Whether that draw rejects x and reads another half: (x*k mod 2^32) < 2^32 mod k.

    It never does when k is a power of two.
    """
    if isinstance(x, np.ndarray):
        return (x * _operand(k) & _LO32) < _operand((1 << 32) % k)
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
    appends the next blocks of the streams' Philox keys. halves makes a run
    of masked 32-bit draws at once, as one gather.
    """

    def __init__(self, words, keys=None):
        # a half's mask and shift, a seed's mask (its low bit clear) and random()'s shift
        constants = (0xFFFFFFFF, 32, MASK64 - 1, 11)
        if isinstance(words, np.ndarray):
            self.words, self.keys, self.lanes = words, keys, np.arange(words.shape[1])
            constants = map(_operand, constants)
        else:  # one stream, which draws unmasked: _take is called only to move past a word
            self._take = lambda moved: words.random_raw()
        self.low, self.high, self.even, self.top = constants
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
        except IndexError:  # only a redrawn half, or a draw past the first blocks, reads on
            self._hold(len(self.words) + 1)
            return self._take(moved)
        self.next = self.next + moved
        return word

    def _hold(self, rows: int) -> None:
        """Append the streams' next Philox blocks until at least rows words are held."""
        more = rows - len(self.words)
        if more > 0:
            self.words = np.vstack([self.words, philox_words(
                self.keys, len(self.words) // 4, -(-more // 4))])

    def word(self, mask=True):
        return self._take(self._parted(mask))

    def half(self, mask=True):
        mask = self._parted(mask)
        if mask is not True or type(self.held) is not bool:  # sessions at different places
            return self.halves(np.broadcast_to(mask, (1, len(self.lanes))))[0]
        if self.held:
            half = self.pending
        else:
            word = self._take(True)
            half, self.pending = word & self.low, word >> self.high
        self.held = not self.held
        return half

    def halves(self, masks: np.ndarray) -> np.ndarray:
        """D successive half(masks[d]) calls as one, masks a (D, n) session mask matrix:
        row d of the result is the d-th call's halves, and each stream ends where the D
        calls would leave it.

        A session's draws take its pending half, if it holds one, then its
        fresh halves in order: fresh half p is word next + p // 2's low half
        if p is even, else its high half. The mask rows' cumulative sum numbers
        each session's draws, so one gather reads every half; an extra row, a
        draw by every session, reads the half left pending. While the streams
        are at one place and each row is all-true or all-false, the numbering
        is a list of ints and the gather reads whole rows: a handful of NumPy
        calls, where the arrays' numbering takes about twenty.
        """
        aligned = type(self.next) is int and type(self.held) is bool
        counts = masks.sum(axis=1).tolist() if aligned else []
        # the fresh half each row's draw reads (-1: the held one), and the fresh halves each
        # stream takes (-1: none, and it still holds one); a half no draw takes may lie
        # past the words held, and any word will do for it
        # stabilizer-hyper-l4-p2 takes this branch on every chunk; without it they run ~9% slower
        if aligned and set(counts) <= {0, masks.shape[1]}:
            fresh, taken = [], -self.held
            for count in counts:
                fresh.append(taken)
                taken += count > 0
            fresh.append(taken)
            following = self.next + (taken + 1 >> 1)
            self._hold(following)
            rows = [min(self.next + (max(p, 0) >> 1), len(self.words) - 1) for p in fresh]
            halves = self.words[rows]
            halves >>= np.array([32 * (p & 1) for p in fresh], dtype=np.uint64)[:, None]
            halves &= self.low
            if self.held:
                halves[:fresh.count(-1)] = self.pending
        else:
            fresh = np.ones((len(masks) + 1, len(self.lanes)), dtype=np.intp)
            fresh[:-1] = masks
            fresh[0] -= 1 + self.held
            np.cumsum(fresh, axis=0, out=fresh)
            taken = fresh[-1]
            following = self.next + (taken + 1 >> 1)
            self._hold(int(following.max(initial=0)))
            read = np.maximum(fresh, 0)
            halves = self.words[np.minimum(self.next + (read >> 1), len(self.words) - 1),
                                self.lanes]
            halves >>= (read & 1).astype(np.uint64) * self.high
            halves &= self.low
            if self.held is not False:
                halves = np.where(fresh < 0, self.pending, halves)
        # an odd count leaves the last word's high half pending (row D), as does -1
        self.next, self.held, self.pending = following, self._parted(taken & 1 == 1), halves[-1]
        return halves[:-1]

    def bits(self, width: int, mask=True):
        """integers(0, 2^width): Lemire's draw on a power-of-two range never rejects."""
        return lemire(self.half(mask), 1 << width)

    def uniform(self, mask=True):
        """random(): the next word's top 53 bits over 2^53."""
        return (self.word(mask) >> self.top) * 2.0 ** -53

    def u64(self, mask=True):
        """A 64-bit seed: integers(0, 2^63) shifted left once, or'd with a coin."""
        return self.word(mask) & self.even | self.bits(1, mask)

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


def bits_value(text: str) -> int:
    """The integer an MSB-first 0/1 string of any width renders, bits_str's inverse.

    Among ASCII digit strings, int(text, 2) reads exactly the nonempty 0/1 strings.
    """
    if not isinstance(text, str):
        raise TypeError(f"not a bit string: {text!r}")
    if text.isascii() and text.isdigit():
        try:
            return int(text, 2)
        except ValueError:  # a digit 2-9
            pass
    raise ValueError(f"not a bit string: {text!r}")


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
    """sample_edges for many draws: row i holds draw i's non-decreasing edges and u[i]
    its uniform. On such a row bisect_right's index is the number of edges <= u * the
    last edge, so the index is that count, capped at the last index.
    """
    r = u * rows[:, -1]
    return np.minimum((rows <= r[:, None]).sum(1), rows.shape[1] - 1)
