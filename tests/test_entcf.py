"""Exhaustive and randomized checks of the trapdoored function-pair oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicert import entcf, util
from magicert.entcf import (
    CollapsedQubit,
    Commitment,
    Family,
    KeyHandle,
    OracleRegistry,
    SecurityParam,
    Trapdoor,
    decode_b,
    decode_u,
    hadamard_open,
    key_record,
)
from magicert.errors import FamilyMisuseError, KeyLookupError, ParameterError
from magicert.util import _Stream, bits_str, derive_seed, parity, rng_from
from test_golden import Refusing, RefusingSlots

SP4 = SecurityParam(4)
SP6 = SecurityParam(6)


def reader(seed: int) -> _Stream:
    """The one-lane reader of rng_from(seed)."""
    return _Stream(rng_from(seed).bit_generator)


def rand_bits(rng: np.random.Generator, width: int) -> int:
    """Reference: one uniform draw from {0,1}^width by NumPy's Generator."""
    return int(rng.integers(0, 1 << width))


def rand_u64(rng: np.random.Generator) -> int:
    """Reference: a 64-bit seed by NumPy's Generator, a draw below 2^63 shifted left once
    and or'd with a coin."""
    return int(rng.integers(0, 1 << 63)) << 1 | int(rng.integers(0, 2))


def permutation_table(t: Trapdoor) -> np.ndarray:
    """Materialize the key's full permutation of {0,1}^{w+1}."""
    perm, _ = entcf._base(t.w)
    idx = np.arange(perm.size, dtype=np.uint32) ^ np.uint32(t.mask_in)
    return perm[idx] ^ np.uint32(t.mask_out)


def invert(t: Trapdoor, b: int, y: int) -> int | None:
    """Trapdoor inversion of y on branch b; None when y has no preimage there.

    Injective family: y determines (b, x), so b is ignored and the x part is
    returned. Claw family: the branch-b member of the claw, or None when y
    lies outside the shared image.
    """
    entcf._check_bit(b)
    entcf._check_range(y, t.w + 1, "y")
    z = entcf._perm_backward(t, y)
    if t.family is Family.INJECTIVE:
        return z & ((1 << t.w) - 1)
    if z >> t.w:
        return None  # claw-family image is the top-bit-0 slice
    return z ^ (t.shift if b else 0)


def make(family, sp=SP4, seed=7):
    reg = OracleRegistry()
    handle, trap = reg.gen(family, sp, seed)
    return reg, handle, trap


def hoeffding_radius(n, delta=1e-6):
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


# ---------------------------------------------------------------- parameters


def test_security_param_bounds():
    assert SecurityParam(4).w == 4
    assert SecurityParam(24).w == 24
    for bad in (3, 25, 0, -1):
        with pytest.raises(ParameterError):
            SecurityParam(bad)


def test_handle_carries_no_family_tag():
    _, handle, _ = make(Family.INJECTIVE)
    assert set(vars(handle)) == {"key_id", "w"}


# ----------------------------------------------------------------------- gen


def test_gen_same_seed_identical_behavior():
    reg1, h1, t1 = make(Family.INJECTIVE, SP4, seed=7)
    reg2, h2, t2 = make(Family.INJECTIVE, SP4, seed=7)
    assert h1 == h2 and t1 == t2
    for b in (0, 1):
        for x in range(16):
            assert reg1.eval(h1, b, x) == reg2.eval(h2, b, x)


def test_gen_claw_shift_nonzero():
    for seed in range(40):
        _, _, trap = make(Family.CLAW, SP4, seed=seed)
        assert trap.shift != 0
        assert 0 < trap.shift < 16


def test_gen_injective_branches_never_collide_w4():
    reg, h, _ = make(Family.INJECTIVE)
    ys0 = {reg.eval(h, 0, x) for x in range(16)}
    ys1 = {reg.eval(h, 1, x) for x in range(16)}
    assert not ys0 & ys1
    assert len(ys0) == len(ys1) == 16


def test_gen_distinct_families_distinct_ids():
    reg = OracleRegistry()
    hg, tg = reg.gen(Family.INJECTIVE, SP4, seed=11)
    hf, tf = reg.gen(Family.CLAW, SP4, seed=11)
    assert hg.key_id != hf.key_id
    assert (reg._trapdoor(hg), reg._trapdoor(hf)) == (tg, tf)


# ---------------------------------------------------------------------- eval


def test_eval_claw_identity():
    reg, h, t = make(Family.CLAW)
    for x in range(16):
        assert reg.eval(h, 1, x) == reg.eval(h, 0, x ^ t.shift)


def test_eval_images_coincide_for_claw_family():
    reg, h, _ = make(Family.CLAW)
    ys0 = {reg.eval(h, 0, x) for x in range(16)}
    ys1 = {reg.eval(h, 1, x) for x in range(16)}
    assert ys0 == ys1


def test_eval_consistent_with_chk():
    for family in Family:
        reg, h, _ = make(family)
        for b in (0, 1):
            for x in range(16):
                assert reg.chk(h, b, x, reg.eval(h, b, x))


def test_eval_unknown_handle():
    reg, h, _ = make(Family.INJECTIVE)
    stranger = KeyHandle(key_id=h.key_id ^ 1, w=4)
    with pytest.raises(KeyLookupError):
        reg.eval(stranger, 0, 0)


def test_eval_rejects_out_of_range_inputs():
    reg, h, _ = make(Family.INJECTIVE)
    with pytest.raises(ParameterError):
        reg.eval(h, 2, 0)
    with pytest.raises(ParameterError):
        reg.eval(h, 0, 16)
    with pytest.raises(ParameterError):
        reg.eval(h, 0, -1)


# ----------------------------------------------------------------------- chk


def test_chk_matching_and_flipped():
    reg, h, _ = make(Family.INJECTIVE)
    y = reg.eval(h, 1, 9)
    assert reg.chk(h, 1, 9, y)
    assert not reg.chk(h, 1, 9, y ^ 0b1)


def test_chk_claw_both_branches():
    reg, h, t = make(Family.CLAW)
    x0 = 5
    y = reg.eval(h, 0, x0)
    assert reg.chk(h, 0, x0, y)
    assert reg.chk(h, 1, x0 ^ t.shift, y)


@pytest.mark.parametrize(
    "key_flip, b, x, y, error, match",
    [
        (1, 2, 16, 32, KeyLookupError, "unknown key id"),
        (0, 2, 16, 32, ParameterError, "branch bit"),
        (0, 0, 16, 32, ParameterError, "x=16"),
        (0, 0, 0, 32, ParameterError, "y=32"),
        (0, 0, 0, -1, ParameterError, "y=-1"),
    ],
)
def test_chk_rejects_bad_inputs_key_then_bit_then_x_then_y(key_flip, b, x, y, error, match):
    reg, h, _ = make(Family.CLAW)
    k = KeyHandle(key_id=h.key_id ^ key_flip, w=h.w)
    with pytest.raises(error, match=match):
        reg.chk(k, b, x, y)


# -------------------------------------------------------------------- invert


def test_invert_round_trip_injective():
    reg, h, t = make(Family.INJECTIVE)
    for b in (0, 1):
        for x in range(16):
            y = reg.eval(h, b, x)
            assert invert(t, b, y) == x
            assert decode_b(t, y) == b


def test_invert_round_trip_claw():
    reg, h, t = make(Family.CLAW)
    for b in (0, 1):
        for x in range(16):
            assert invert(t, b, reg.eval(h, b, x)) == x


def test_invert_outside_claw_image_is_none():
    reg, h, t = make(Family.CLAW)
    image = {reg.eval(h, 0, x) for x in range(16)}
    outside = set(range(32)) - image
    assert len(outside) == 16
    for y in outside:
        assert invert(t, 0, y) is None
        assert invert(t, 1, y) is None


# ---------------------------------------------------------- decode_b/decode_u


def test_decode_b_values():
    reg, h, t = make(Family.INJECTIVE)
    assert decode_b(t, reg.eval(h, 1, 3)) == 1
    assert decode_b(t, reg.eval(h, 0, 3)) == 0


def test_decode_b_rejects_claw_trapdoor_and_bad_y():
    _, _, t_claw = make(Family.CLAW)
    _, _, t_inj = make(Family.INJECTIVE)
    with pytest.raises(FamilyMisuseError):
        decode_b(t_claw, 0)
    with pytest.raises(ParameterError):
        decode_b(t_inj, 32)


def test_decode_u_parity_semantics():
    # <110, 101> = 1; the decode must agree with the plain parity oracle
    assert parity(0b110 & 0b101) == 1
    reg, h, t = make(Family.CLAW)
    y = reg.eval(h, 0, 0)
    for d in range(16):
        assert decode_u(t, y, d) == parity(d & t.shift)
    assert decode_u(t, y, 0) == 0


def test_decode_u_independent_of_y_w4():
    reg, h, t = make(Family.CLAW)
    image = sorted({reg.eval(h, 0, x) for x in range(16)})
    for d in range(16):
        us = {decode_u(t, y, d) for y in image}
        assert len(us) == 1


def test_decode_u_misuse_and_outside_image():
    reg, h, t = make(Family.CLAW)
    _, _, t_inj = make(Family.INJECTIVE)
    with pytest.raises(FamilyMisuseError):
        decode_u(t_inj, 0, 0)
    image = {reg.eval(h, 0, x) for x in range(16)}
    y_out = next(y for y in range(32) if y not in image)
    assert decode_u(t, y_out, 5) is None


# --------------------------------------------------------- sample_commitment


def test_sample_commitment_injective_marginal():
    reg, h, t = make(Family.INJECTIVE)
    rng = reader(2024)
    n = 10_000
    ones = 0
    for _ in range(n):
        y, c = reg.sample_commitment(h, rng)
        ((b, _),) = c.preimages
        assert decode_b(t, y) == b
        ones += b
    assert abs(ones / n - 0.5) <= hoeffding_radius(n)


def test_sample_commitment_claw_satisfies_both_branches():
    reg, h, _ = make(Family.CLAW)
    rng = reader(5)
    y, c = reg.sample_commitment(h, rng)
    (b0, x0), (b1, x1) = c.preimages
    assert (b0, b1) == (0, 1)
    assert reg.chk(h, 0, x0, y)
    assert reg.chk(h, 1, x1, y)


@pytest.mark.parametrize("family", list(Family))
def test_sample_commitment_holds_every_preimage_of_y(family):
    """The residue is f_k^{-1}(y): every (b, x) that maps to y, and nothing else."""
    for seed in range(100):
        reg, h, _ = make(family, seed=seed)
        y, c = reg.sample_commitment(h, reader(seed))
        opening = {(b, x) for b in (0, 1) for x in range(1 << SP4.w) if reg.eval(h, b, x) == y}
        assert len(c.preimages) == len(set(c.preimages)) == len(opening)
        assert set(c.preimages) == opening


def test_sample_commitment_deterministic():
    reg, h, _ = make(Family.CLAW)
    a = [reg.sample_commitment(h, reader(99)) for _ in range(1)]
    b = [reg.sample_commitment(h, reader(99)) for _ in range(1)]
    assert a == b


# ------------------------------------------------------------- hadamard_open


def test_hadamard_open_claw_zero_parity_gives_plus():
    c = Commitment(w=4, preimages=((0, 0b0101), (1, 0b0110)))
    rng = reader(1)
    seen_zero_parity = False
    for _ in range(64):
        d, qubit = hadamard_open(c, rng)
        assert qubit.basis == "X"
        if parity(d & (0b0101 ^ 0b0110)) == 0:
            seen_zero_parity = True
            assert qubit.bit == 0
            np.testing.assert_allclose(qubit.amplitudes(), np.ones(2) / np.sqrt(2))
    assert seen_zero_parity


def test_hadamard_open_definite_ignores_d():
    c = Commitment(w=4, preimages=((1, 7),))
    rng = reader(3)
    for _ in range(8):
        _, qubit = hadamard_open(c, rng)
        assert (qubit.basis, qubit.bit) == ("Z", 1)
        np.testing.assert_allclose(qubit.amplitudes(), np.array([0.0, 1.0]))


def test_hadamard_open_claw_parity_marginal():
    reg, h, _ = make(Family.CLAW)
    rng = reader(77)
    _, c = reg.sample_commitment(h, rng)
    n = 10_000
    ones = sum(hadamard_open(c, rng)[1].bit for _ in range(n))
    assert abs(ones / n - 0.5) <= hoeffding_radius(n)


# ------------------------------------------------------ exhaustive invariants


@pytest.mark.parametrize("sp", [SP4, SP6])
@pytest.mark.parametrize("family", list(Family))
def test_injectivity_and_image_structure_exhaustive(sp, family):
    reg, h, t = make(family, sp, seed=13)
    w = sp.w
    ys0 = [reg.eval(h, 0, x) for x in range(1 << w)]
    ys1 = [reg.eval(h, 1, x) for x in range(1 << w)]
    assert len(set(ys0)) == 1 << w
    assert len(set(ys1)) == 1 << w
    if family is Family.INJECTIVE:
        assert not set(ys0) & set(ys1)
    else:
        assert set(ys0) == set(ys1)


@pytest.mark.parametrize("sp", [SP4, SP6])
def test_claw_algebra_exhaustive(sp):
    reg, h, t = make(Family.CLAW, sp, seed=21)
    w = sp.w
    image = {reg.eval(h, 0, x) for x in range(1 << w)}
    for y in image:
        assert invert(t, 0, y) ^ invert(t, 1, y) == t.shift


@pytest.mark.parametrize("sp", [SP4, SP6])
@pytest.mark.parametrize("family", list(Family))
def test_chk_iff_eval_exhaustive(sp, family):
    reg, h, _ = make(family, sp, seed=3)
    w = sp.w
    for b in (0, 1):
        lookup = {x: reg.eval(h, b, x) for x in range(1 << w)}
        for x in range(1 << w):
            for y in range(1 << (w + 1)):
                assert reg.chk(h, b, x, y) == (lookup[x] == y)


@pytest.mark.parametrize("sp", [SP4, SP6])
def test_decode_u_matches_shift_parity_exhaustive(sp):
    reg, h, t = make(Family.CLAW, sp, seed=31)
    w = sp.w
    image = {reg.eval(h, 0, x) for x in range(1 << w)}
    for y in image:
        for d in range(1 << w):
            assert decode_u(t, y, d) == parity(d & t.shift)


def test_permutation_table_is_bijection_and_matches_eval():
    reg, h, t = make(Family.INJECTIVE)
    table = permutation_table(t)
    assert sorted(table.tolist()) == list(range(32))
    for b in (0, 1):
        for x in range(16):
            assert reg.eval(h, b, x) == int(table[(b << 4) | x])


@pytest.mark.parametrize("w", [4, 5, 8, 12])
def test_base_permutation_is_the_generators_permutation(w, monkeypatch):
    # a fresh table, its inverse built 7 indices at a time, the last slice short
    monkeypatch.setattr(entcf, "_base_tables", {})
    monkeypatch.setattr(entcf, "_INVERSE_SLICE", 7)
    perm, inv = entcf._base(w)
    expected = rng_from(derive_seed(entcf._BASE_LANE, w)).permutation(1 << (w + 1))
    assert perm.dtype == inv.dtype == np.uint32
    assert perm.tolist() == expected.tolist()
    assert inv[perm].tolist() == list(range(1 << (w + 1)))


# -------------------------------------------------------------- random seeds


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       family=st.sampled_from(list(Family)))
@settings(max_examples=25, deadline=None)
def test_random_seed_round_trip(seed, family):
    reg = OracleRegistry()
    h, t = reg.gen(family, SP4, seed)
    for x in (0, 7, 15):
        for b in (0, 1):
            y = reg.eval(h, b, x)
            assert invert(t, b, y) == x
            if family is Family.INJECTIVE:
                assert decode_b(t, y) == b


@given(seed=st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=25, deadline=None)
def test_random_seed_claw_shift_consistency(seed):
    reg = OracleRegistry()
    h, t = reg.gen(Family.CLAW, SP6, seed)
    rng = reader(seed ^ 0xABCD)
    y, c = reg.sample_commitment(h, rng)
    (_, x0), (_, x1) = c.preimages
    assert x0 ^ x1 == t.shift
    assert decode_u(t, y, t.shift) == parity(t.shift & t.shift)


def live_state(gen):
    """A Philox state's counter, key and buffer: the words it hands out next.

    A reader keeps a stream's pending 32-bit half itself, not in the bit
    generator, so the generator's own half is not compared.
    """
    s = gen.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(), s["buffer"].tolist(),
            s["buffer_pos"])


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       w=st.integers(min_value=entcf.W_MIN, max_value=entcf.W_MAX),
       family=st.sampled_from(list(Family)))
@settings(max_examples=200, deadline=None)
def test_key_material_equals_the_bounded_draws(seed, w, family):
    """gen and Trapdoor read raw words; the draws they stand for are the reference."""
    handle, trapdoor = OracleRegistry().gen(family, SecurityParam(w), seed)
    slots = live_state(util._reused.keygen), live_state(util._reused.masks)
    (key_id, perm_seed, shift, mask_in, mask_out), keygen, masks = bounded_draws(seed, w, family)
    assert handle == KeyHandle(key_id=key_id, w=w)
    assert trapdoor == Trapdoor(family=family, perm_seed=perm_seed, w=w, shift=shift)
    assert (trapdoor.mask_in, trapdoor.mask_out) == (mask_in, mask_out)
    assert slots == (live_state(keygen), live_state(masks))


def bounded_draws(seed, w, family):
    """((key_id, perm_seed, shift, mask_in, mask_out), keygen, masks): a key's material
    by NumPy's own draws, and the two Generators that drew it."""
    keygen = rng_from(derive_seed(seed, entcf._LANE_BY_FAMILY[family.value], w))
    key_id = rand_u64(keygen)
    perm_seed = rand_u64(keygen)
    shift = int(keygen.integers(1, 1 << w)) if family is Family.CLAW else None
    masks = rng_from(perm_seed)
    mask_in = rand_bits(masks, w + 1)
    mask_out = rand_bits(masks, w + 1)
    return (key_id, perm_seed, shift, mask_in, mask_out), keygen, masks


def test_key_material_from_refusing_generators_equals_the_bounded_draws(monkeypatch):
    """gen makes no Generator draw: with _rekeyed's generators refusing integers and
    random, it still makes every key the bounded draws make."""
    monkeypatch.setattr(util, "_reused", RefusingSlots())
    for i in range(300):
        seed, w, family = derive_seed(i), entcf.W_MIN + i % 21, list(Family)[i % 2]
        handle, trapdoor = OracleRegistry().gen(family, SecurityParam(w), seed)
        got = (handle.key_id, trapdoor.perm_seed, trapdoor.shift, trapdoor.mask_in,
               trapdoor.mask_out)
        assert got == bounded_draws(seed, w, family)[0]
    assert isinstance(util._reused.keygen, Refusing)


# -------------------------------------------------------------------- export


def record_of(h, t):
    return key_record(h.key_id, h.w, t.family, t.perm_seed, t.shift)


def test_key_record_flat_text_map():
    _, h, t = make(Family.CLAW, SP4, seed=40)
    rec = record_of(h, t)
    assert rec == {
        "id": str(h.key_id),
        "w": "4",
        "family": "F",
        "perm_seed": str(t.perm_seed),
        "shift": bits_str(t.shift, 4),
    }
    assert all(isinstance(k, str) and isinstance(v, str) for k, v in rec.items())
    _, hg, tg = make(Family.INJECTIVE, SP4, seed=41)
    recg = record_of(hg, tg)
    assert "shift" not in recg
    assert recg["family"] == "G"


def test_trapdoor_validation():
    with pytest.raises(ParameterError):
        Trapdoor(family=Family.CLAW, perm_seed=1, w=4, shift=0)
    with pytest.raises(ParameterError):
        Trapdoor(family=Family.INJECTIVE, perm_seed=1, w=4, shift=3)
