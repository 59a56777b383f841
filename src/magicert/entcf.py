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

Key material.  Key ids, permutation seeds and masks are drawn by
util._Stream from the first raw words of freshly rekeyed Philox streams
(SCHEMA.md, "Seeds and randomness"), for one key or for a batch of keys.

The permutation and its inverse, and chk's rule, are written in bitwise
arithmetic on anything with a trapdoor's fields, so they run unchanged on
one Trapdoor with int arguments and on a batch of keys of both families
held as uint64 arrays.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import FamilyMisuseError, KeyLookupError, ParameterError
from .util import _rekeyed, _Stream, bits_str, derive_seed, parity, rng_from

W_MIN = 4
W_MAX = 24

# lane tags for deriving per-key seed streams; arbitrary fixed values
_BASE_LANE = 0x7AB1E
_LANE_BY_FAMILY = {"F": 0xC1A3, "G": 0x125E}


class Family(str, Enum):
    """Which of the two function-pair behaviors a key exhibits."""

    CLAW = "F"        # branches share one image; collisions form claws
    INJECTIVE = "G"   # branch images disjoint; image determines the branch bit


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
    the first two (w+1)-bit draws of rng_from(perm_seed).
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
        masks = _Stream(_rekeyed(self.perm_seed, "masks").bit_generator)
        object.__setattr__(self, "mask_in", masks.bits(self.w + 1))
        object.__setattr__(self, "mask_out", masks.bits(self.w + 1))

    @property
    def offset(self) -> int:
        """x ^ b*offset is branch b's input to P_k: the shift, or 2^w for the injective family."""
        return self.shift if self.family is Family.CLAW else 1 << self.w


@dataclass(frozen=True)
class Commitment:
    """Prover-side residue of committing to one key: the preimages (b, x) of y.

    An injective key leaves one, ((b, x),); a claw key leaves both branches,
    ((0, x0), (1, x0 ^ s)), in superposition.
    """

    w: int
    preimages: tuple[tuple[int, int], ...]


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
_INVERSE_SLICE = 1 << 20


def _base(w: int) -> tuple[np.ndarray, np.ndarray]:
    with _base_lock:
        cached = _base_tables.get(w)
        if cached is None:
            rng = rng_from(derive_seed(_BASE_LANE, w))
            # shuffling a uint32 arange in place draws what permutation(1 << (w + 1))
            # does, without its int64 copy
            perm = np.arange(1 << (w + 1), dtype=np.uint32)
            rng.shuffle(perm)
            inv = np.empty_like(perm)
            for start in range(0, perm.size, _INVERSE_SLICE):  # no full-size index array
                part = perm[start:start + _INVERSE_SLICE]
                inv[part] = np.arange(start, start + part.size, dtype=np.uint32)
            cached = (perm, inv)
            _base_tables[w] = cached
        return cached


def _gather(table: np.ndarray, i):
    """table[i]: an int for an int index (NumPy scalar arithmetic is slow), else an array."""
    return table.take(i) if isinstance(i, np.ndarray) else int(table[i])


def _image(t: Trapdoor, b, x):
    """f_{k,b}(x) for an in-range bit b and w-bit x: P_k(x ^ b*offset), which is P_k(b || x)
    for the injective family and P_k(0 || x ^ b*s) for the claw family."""
    perm, _ = _base(t.w)
    return _gather(perm, x ^ b * t.offset ^ t.mask_in) ^ t.mask_out


def _perm_backward(t: Trapdoor, y):
    """P_k^{-1}(y) for an in-range y; its top bit is b (injective) or 1 off a claw key's image."""
    _, inv = _base(t.w)
    return _gather(inv, y ^ t.mask_out) ^ t.mask_in


def _opens(t: Trapdoor, b, x, y):
    """chk's rule for an in-range b and x: f_{k,b}(x) == y, y a (w+1)-bit value."""
    return (_image(t, b, x) == y) & (y >> (t.w + 1) == 0)


class OracleRegistry:
    """Append-only map from key ids to trapdoors.

    A registry serves one session and is not shared between threads.
    """

    def __init__(self) -> None:
        self._records: dict[int, Trapdoor] = {}

    def gen(self, family: Family, sp: SecurityParam, seed: int) -> tuple[KeyHandle, Trapdoor]:
        """Create one key pair; everything derives from (family, sp, seed)."""
        family = Family(family)
        w = sp.w
        stream = _Stream(_rekeyed(derive_seed(seed, _LANE_BY_FAMILY[family.value], w),
                                  "keygen").bit_generator)
        key_id, perm_seed = stream.u64(), stream.u64()
        shift = None
        if family is Family.CLAW:
            shift = 1 + stream.below((1 << w) - 1)  # uniform over nonzero w-bit values
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
        _check_bit(b)
        _check_range(x, t.w, "x")
        return _image(t, int(b), int(x))

    def chk(self, k: KeyHandle, b: int, x: int, y: int) -> bool:
        t = self._trapdoor(k)
        _check_bit(b)
        _check_range(x, t.w, "x")
        _check_range(y, t.w + 1, "y")
        return bool(_opens(t, int(b), int(x), int(y)))

    def sample_commitment(self, k: KeyHandle, rng: _Stream) -> tuple[int, Commitment]:
        """Classical stand-in for committing a uniform superposition to y.

        Injective key: the post-measurement state retains a definite (b, x).
        Claw key: both colliding preimages of y survive in superposition.
        """
        t = self._trapdoor(k)
        w = t.w
        if t.family is Family.INJECTIVE:
            b, x = rng.bits(1), rng.bits(w)
            return _image(t, b, x), Commitment(w=w, preimages=((b, x),))
        x0 = rng.bits(w)
        return _image(t, 0, x0), Commitment(w=w, preimages=((0, x0), (1, x0 ^ t.shift)))


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


def hadamard_open(c: Commitment, rng: _Stream) -> tuple[int, CollapsedQubit]:
    """Open a commitment in the conjugate basis: a uniform d plus the qubit.

    A lone preimage leaves its bit b in the Z basis (d carries no
    information); a claw's two collapse to |(-)^{d.(x0^x1)}> in the X basis.
    """
    d = rng.bits(c.w)
    if len(c.preimages) == 1:
        return d, CollapsedQubit(basis="Z", bit=c.preimages[0][0])
    (_, x0), (_, x1) = c.preimages
    return d, CollapsedQubit(basis="X", bit=parity(d & (x0 ^ x1)))


def key_record(key_id: int, w: int, family: Family, perm_seed: int,
               shift: int | None) -> dict[str, str]:
    """Flat text map of one key's full material, for transcript reproducibility.

    It takes the fields as plain values because its callers hold them on two
    objects: key_id on the public KeyHandle, the rest on the verifier's
    Trapdoor. shift is read for the claw family only. The array path renders
    the same map as text through engine._KEY, without calling this.
    """
    rec = {"id": str(key_id), "w": str(w), "family": family.value, "perm_seed": str(perm_seed)}
    if family is Family.CLAW:
        rec["shift"] = bits_str(shift, w)
    return rec


def _check_bit(b: int) -> None:
    if b not in (0, 1):
        raise ParameterError(f"branch bit must be 0 or 1, got {b!r}")


def _check_range(v: int, width: int, name: str) -> None:
    if not isinstance(v, (int, np.integer)) or not 0 <= v < (1 << width):
        raise ParameterError(f"{name}={v!r} is not a {width}-bit value")
