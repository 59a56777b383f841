"""Idealized oracle for the two trapdoored function-pair families.

Each key names a pair of functions f_{k,0}, f_{k,1}: {0,1}^w -> {0,1}^{w+1}
realized through one random permutation P_k of {0,1}^{w+1}:

    injective family ("G"):  f_{k,b}(x) = P_k(b || x)
    claw family     ("F"):  f_{k,b}(x) = P_k(0 || (x ^ b*s_k)),  s_k != 0

so the injective family has disjoint branch images carrying the branch
bit, while the claw family's branches share one image set and collide
exactly on pairs x1 = x0 ^ s_k.  The permutation is exactly invertible,
which is all the trapdoor has to do.

Hardness is a modeling assumption here: callers that should not invert
simply never receive the Trapdoor, and prover-side code touches keys
only through eval/chk/sample_commitment/hadamard_open.

Permutation construction.  One base permutation per width is built by
seeded Fisher-Yates and cached; each key derives its own permutation
from the base with two xor masks drawn from the key's seed:

    P_k(z) = BASE_w[z ^ m_in] ^ m_out

This keeps per-key generation O(1) instead of O(2^w) (a fresh shuffle
per key costs milliseconds at w=16, far too slow for batch runs on one
core) while preserving bijectivity, exact inversion and uniform images.

Key material.  Key ids, permutation seeds and masks are computed from the
first raw words of freshly rekeyed Philox streams, with the arithmetic
NumPy's bounded draws would do (SCHEMA.md, "Seeds and randomness").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import FamilyMisuseError, KeyLookupError, ParameterError
from .util import _rekeyed, bits_str, derive_seed, parity, rand_bits, rng_from

W_MIN = 4
W_MAX = 24

# lane tags for deriving per-key seed streams; arbitrary fixed values
_BASE_LANE = 0x7AB1E
_LANE_BY_FAMILY = {"F": 0xC1A3, "G": 0x125E}


class Family(str, Enum):
    """Which of the two function-pair behaviors a key exhibits."""

    CLAW = "F"        # branches share one image; collisions form claws
    INJECTIVE = "G"   # branch images disjoint; image determines the branch bit

    def __str__(self) -> str:  # serialize as the single-letter tag
        return self.value


@dataclass(frozen=True)
class SecurityParam:
    """Preimage width configuration; w equals lam throughout."""

    lam: int

    def __post_init__(self) -> None:
        if not W_MIN <= self.lam <= W_MAX:
            raise ParameterError(
                f"lam={self.lam} outside [{W_MIN}, {W_MAX}] (table-backed permutation cap)"
            )

    @property
    def w(self) -> int:
        return self.lam


@dataclass(frozen=True)
class KeyHandle:
    """Public name of a generated key pair; reveals nothing but the width."""

    key_id: int
    w: int


@dataclass(frozen=True)
class Trapdoor:
    """Secret inversion material. Never serialized into protocol messages.

    mask_in and mask_out are the permutation masks, derived from perm_seed
    once at creation so that inversion never touches a generator. They are
    the two (w+1)-bit draws of rand_bits on rng_from(perm_seed), which take
    the top w+1 bits of the low and then the high 32-bit half of its first
    raw word (Lemire's method on a power-of-two range never rejects).
    """

    family: Family
    perm_seed: int
    w: int
    shift: int | None  # claw offset; None for the injective family
    mask_in: int = field(init=False, compare=False, repr=False)
    mask_out: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.family is Family.CLAW:
            if not self.shift or not 0 < self.shift < (1 << self.w):
                raise ParameterError("claw family requires a nonzero w-bit shift")
        elif self.shift is not None:
            raise ParameterError("injective family carries no shift")
        x = int(_rekeyed(self.perm_seed, "masks").bit_generator.random_raw())
        object.__setattr__(self, "mask_in", (x & 0xFFFFFFFF) >> (31 - self.w))
        object.__setattr__(self, "mask_out", x >> (63 - self.w))


@dataclass(frozen=True)
class ClawPair:
    """Both preimages of one image y under a claw-family key."""

    x0: int
    x1: int
    y: int


@dataclass(frozen=True)
class DefinitePreimage:
    """The single retained preimage (b, x) of y under an injective-family key."""

    b: int
    x: int


@dataclass(frozen=True)
class Commitment:
    """Prover-side residue of committing to one key: y plus what survives."""

    w: int
    held: DefinitePreimage | ClawPair


@dataclass(frozen=True)
class CollapsedQubit:
    """Post-opening single-qubit state: |b> in the Z basis or |(-)^u> in X."""

    basis: str  # "Z" or "X"
    bit: int

    def amplitudes(self) -> np.ndarray:
        if self.basis == "Z":
            a = np.zeros(2, dtype=np.complex128)
            a[self.bit] = 1.0
        else:
            a = np.array([1.0, 1.0 if self.bit == 0 else -1.0], dtype=np.complex128) / np.sqrt(2.0)
        return a


# one Fisher-Yates base permutation (and inverse) per width, process-wide
_base_lock = threading.Lock()
_base_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _base(w: int) -> tuple[np.ndarray, np.ndarray]:
    with _base_lock:
        cached = _base_tables.get(w)
        if cached is None:
            rng = rng_from(derive_seed(_BASE_LANE, w))
            perm = rng.permutation(1 << (w + 1)).astype(np.uint32)
            inv = np.empty_like(perm)
            inv[perm] = np.arange(perm.size, dtype=np.uint32)
            cached = (perm, inv)
            _base_tables[w] = cached
        return cached


def _perm_backward(t: Trapdoor, y: int) -> int:
    _, inv = _base(t.w)
    return int(inv[y ^ t.mask_out]) ^ t.mask_in


class OracleRegistry:
    """Append-only map from key ids to trapdoors.

    A registry serves one session and is not shared between threads.
    """

    def __init__(self) -> None:
        self._records: dict[int, Trapdoor] = {}

    def __len__(self) -> int:
        return len(self._records)

    def gen(self, family: Family, sp: SecurityParam, seed: int) -> tuple[KeyHandle, Trapdoor]:
        """Create one key pair; everything derives from (family, sp, seed)."""
        family = Family(family)
        w = sp.w
        rng = _rekeyed(derive_seed(seed, _LANE_BY_FAMILY[family.value], w), "keygen")
        # two rand_u64 draws: each is a 63-bit Lemire draw (the word >> 1,
        # never rejected) and a coin, the coins being the top bits of the
        # low and then the high 32-bit half of the second word; the shift
        # draw then starts where those draws would have left the stream
        w1, w2, w3 = rng.bit_generator.random_raw(3).tolist()
        key_id = w1 >> 1 << 1 | (w2 >> 31) & 1
        perm_seed = w3 >> 1 << 1 | w2 >> 63
        shift = None
        if family is Family.CLAW:
            shift = int(rng.integers(1, 1 << w))  # uniform over nonzero w-bit values
        trapdoor = Trapdoor(family=family, perm_seed=perm_seed, w=w, shift=shift)
        if self._records.setdefault(key_id, trapdoor) != trapdoor:
            raise KeyLookupError(f"key id collision: {key_id}")
        return KeyHandle(key_id=key_id, w=w), trapdoor

    def _trapdoor(self, k: KeyHandle) -> Trapdoor:
        t = self._records.get(k.key_id)
        if t is None:
            raise KeyLookupError(f"unknown key id {k.key_id}")
        return t

    def eval(self, k: KeyHandle, b: int, x: int) -> int:
        t = self._trapdoor(k)
        w = t.w
        _check_bit(b)
        _check_range(x, w, "x")
        if t.family is Family.INJECTIVE:
            z = (b << w) | x
        else:
            z = x ^ (t.shift if b else 0)
        perm, _ = _base(w)
        return int(perm[z ^ t.mask_in]) ^ t.mask_out

    def chk(self, k: KeyHandle, b: int, x: int, y: int) -> bool:
        fx = self.eval(k, b, x)
        _check_range(y, self._trapdoor(k).w + 1, "y")
        return fx == y

    def sample_commitment(self, k: KeyHandle, rng: np.random.Generator) -> tuple[int, Commitment]:
        """Classical stand-in for committing a uniform superposition to y.

        Injective key: the post-measurement state retains a definite (b, x).
        Claw key: both colliding preimages of y survive in superposition.
        """
        t = self._trapdoor(k)
        w = t.w
        if t.family is Family.INJECTIVE:
            b = rand_bits(rng, 1)
            x = rand_bits(rng, w)
            y = self.eval(k, b, x)
            return y, Commitment(w=w, held=DefinitePreimage(b=b, x=x))
        x0 = rand_bits(rng, w)
        y = self.eval(k, 0, x0)
        return y, Commitment(w=w, held=ClawPair(x0=x0, x1=x0 ^ t.shift, y=y))


def decode_b(t: Trapdoor, y: int) -> int:
    """Branch bit carried by y under an injective-family key."""
    if t.family is not Family.INJECTIVE:
        raise FamilyMisuseError("decode_b needs an injective-family trapdoor")
    _check_range(y, t.w + 1, "y")
    return _perm_backward(t, y) >> t.w


def decode_u(t: Trapdoor, y: int, d: int) -> int | None:
    """Claw parity bit <d, x0 ^ x1> = <d, s>; None when y outside the image."""
    if t.family is not Family.CLAW:
        raise FamilyMisuseError("decode_u needs a claw-family trapdoor")
    _check_range(y, t.w + 1, "y")
    _check_range(d, t.w, "d")
    if _perm_backward(t, y) >> t.w:
        return None
    return parity(d & t.shift)


def hadamard_open(c: Commitment, rng: np.random.Generator) -> tuple[int, CollapsedQubit]:
    """Open a commitment in the conjugate basis: a uniform d plus the qubit.

    A definite preimage leaves the committed bit in the Z basis (d carries
    no information); a claw collapses to |(-)^{d.(x0^x1)}> in the X basis.
    """
    d = rand_bits(rng, c.w)
    held = c.held
    if isinstance(held, DefinitePreimage):
        return d, CollapsedQubit(basis="Z", bit=held.b)
    return d, CollapsedQubit(basis="X", bit=parity(d & (held.x0 ^ held.x1)))


def export_key_record(handle: KeyHandle, t: Trapdoor) -> dict[str, str]:
    """Flat text map of the full key material, for transcript reproducibility."""
    rec = {
        "id": str(handle.key_id),
        "w": str(handle.w),
        "family": t.family.value,
        "perm_seed": str(t.perm_seed),
    }
    if t.family is Family.CLAW:
        rec["shift"] = bits_str(t.shift, t.w)
    return rec


def _check_bit(b: int) -> None:
    if b not in (0, 1):
        raise ParameterError(f"branch bit must be 0 or 1, got {b!r}")


def _check_range(v: int, width: int, name: str) -> None:
    if not isinstance(v, (int, np.integer)) or not 0 <= v < (1 << width):
        raise ParameterError(f"{name}={v!r} is not a {width}-bit value")
