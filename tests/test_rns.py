import random
import sys
import threading
from functools import cache
from math import gcd, prod

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from rnskit import rns
from rnskit.moduli import GenerationRequest, ModuliSet, find_moduli, structural_faults
from rnskit.numbers import mod_inverse
from rnskit.rns import (
    _LEAF_BITS,
    RnsContext,
    RnsError,
    RnsNumber,
    from_rns,
    rns_add,
    rns_mul,
    rns_pow,
    rns_sub,
    to_rns,
)

from helpers import COPIERS

CTX = RnsContext(ModuliSet((8, 9, 7)))

WIDE_SETS = [
    pytest.param(find_moduli(GenerationRequest(bits, count))[0].moduli, id=f"find_moduli-{bits}-{count}")
    for bits, count in [(1024, 16), (2048, 24), (8192, 64)]
] + [
    pytest.param((67108863, 14, 5), id="unbalanced-narrow"),
    pytest.param((2**4000, 3, 5, 7, 11, 13, 17), id="one-4000-bit-modulus"),
]

LAW_SETS = [
    (8, 9, 7),
    (42, 43, 41),
    (16, 17, 15, 19),
    (8, 9, 7, 11, 5, 13),
]


def brute_force_from_rns(moduli, residues):
    """Independent oracle: scan [0, M) for the matching integer."""
    total = 1
    for m in moduli:
        total *= m
    for x in range(total):
        if all(x % m == r for m, r in zip(moduli, residues)):
            return x
    raise AssertionError("no preimage found")


# --- conversions ------------------------------------------------------------------


def test_forward_direct_remainders():
    assert to_rns(CTX, 36).residues == (4, 0, 1)


def test_forward_zero():
    assert to_rns(CTX, 0).residues == (0, 0, 0)


def test_forward_wraps_at_dynamic_range():
    assert to_rns(CTX, 504).residues == (0, 0, 0)


def test_forward_rejects_negative():
    with pytest.raises(RnsError):
        to_rns(CTX, -1)


def test_forward_rejects_non_int():
    with pytest.raises(TypeError, match="^value 7.5 is not an int$"):
        to_rns(CTX, 7.5)
    with pytest.raises(TypeError, match="^value True is not an int$"):
        to_rns(CTX, True)


def remainder_oracle(moduli, x):
    return tuple(x % m for m in moduli)


# 15 * 2**k is k + 4 bits wide: one set at _LEAF_BITS, one a bit past it
LEAF_EDGE_SETS = [
    pytest.param((2 ** (_LEAF_BITS - 4), 3, 5), id="one-leaf-at-leaf-bits"),
    pytest.param((2 ** (_LEAF_BITS - 3), 3, 5), id="two-leaves-past-leaf-bits"),
]


@pytest.mark.parametrize("moduli", WIDE_SETS + LEAF_EDGE_SETS)
def test_forward_wide_sets_match_remainders(moduli):
    ctx = RnsContext(ModuliSet(moduli))
    total = ctx.moduli_set.dynamic_range
    # to_rns walks the tree either way: one leaf up to _LEAF_BITS, more past it
    assert (tree_leaves(ctx._tree) == [tuple(moduli)]) == (total.bit_length() <= _LEAF_BITS)
    for x in (0, 1, total - 1, total, 2 * total + 7):
        assert to_rns(ctx, x).residues == remainder_oracle(moduli, x)


# no shrink phase, as for the reverse test below: shrinking values up to 4·M
# over 8192-bit sets costs seconds per failing row
@pytest.mark.parametrize("moduli", WIDE_SETS)
@given(data=st.data())
@settings(max_examples=50, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_forward_wide_sets_random(moduli, data):
    ctx = RnsContext(ModuliSet(moduli))
    x = data.draw(st.integers(min_value=0, max_value=4 * ctx.moduli_set.dynamic_range - 1))
    assert to_rns(ctx, x).residues == remainder_oracle(moduli, x)


def tree_leaves(node):
    product, moduli, halves = node
    assert product == prod(moduli)
    if not halves:
        return [moduli]
    return [leaf for half in halves for leaf in tree_leaves(half)]


@pytest.mark.parametrize("moduli", WIDE_SETS + LAW_SETS)
def test_remainder_tree_shape(moduli):
    ctx = RnsContext(ModuliSet(moduli))
    leaves = tree_leaves(ctx._tree)
    assert ctx._tree[0] == ctx.moduli_set.dynamic_range
    assert tuple(m for leaf in leaves for m in leaf) == tuple(moduli)
    for leaf in leaves:
        assert len(leaf) == 1 or prod(leaf).bit_length() <= _LEAF_BITS
    if ctx.moduli_set.dynamic_range.bit_length() <= _LEAF_BITS:
        assert leaves == [tuple(moduli)]


def test_context_equality_ignores_the_tree():
    moduli = find_moduli(GenerationRequest(2048, 24))[0].moduli
    a, b = RnsContext(ModuliSet(moduli)), RnsContext(ModuliSet(moduli))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == f"RnsContext(moduli_set={a.moduli_set!r})"


def test_reverse_matches_brute_force():
    assert brute_force_from_rns((8, 9, 7), (4, 0, 1)) == 36
    assert from_rns(CTX, RnsNumber((4, 0, 1), CTX.moduli_set)) == 36


def test_reverse_zero():
    assert from_rns(CTX, RnsNumber((0, 0, 0), CTX.moduli_set)) == 0


def test_reverse_maximal_residues():
    assert from_rns(CTX, RnsNumber((7, 8, 6), CTX.moduli_set)) == 503


@cache
def wide_context(moduli):
    return RnsContext(ModuliSet(moduli))


@cache
def flat_weights(moduli):
    """Test-side CRT weights M_i * (M_i^-1 mod m_i), the classic flat sum's."""
    total = prod(moduli)
    return tuple(total // m * pow(total // m, -1, m) for m in moduli)


# no shrink phase: shrinking draws of up to 8192-bit residues and values took
# minutes and most of a GB per failing row; the first failing draw is reported
@pytest.mark.parametrize("moduli", WIDE_SETS + LEAF_EDGE_SETS)
@given(data=st.data())
@settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_reverse_wide_sets_equal_the_flat_weighted_sum(moduli, data):
    ctx = wide_context(moduli)
    total = ctx.moduli_set.dynamic_range
    # from_rns sums flat on one leaf and splits at the root past it
    assert bool(ctx._tree[2]) == (total.bit_length() > _LEAF_BITS)
    residues = data.draw(st.tuples(*(st.integers(0, m - 1) for m in moduli)), label="residues")
    flat = sum(r * w for r, w in zip(residues, flat_weights(moduli))) % total
    assert from_rns(ctx, RnsNumber(residues, ctx.moduli_set)) == flat
    x = data.draw(st.integers(0, total - 1), label="x")
    assert from_rns(ctx, to_rns(ctx, x)) == x


@pytest.mark.parametrize("moduli", WIDE_SETS + LEAF_EDGE_SETS)
def test_crt_law_on_split_and_leaf_contexts(moduli):
    ctx = wide_context(moduli)
    total, _, halves = ctx._tree
    # from_rns weights a left-half coefficient by the right half's product and
    # a right-half one by the left's; a one-leaf set weights each by 1
    (left, left_moduli, _), (right, _, _) = halves or ((1, moduli, ()), (1, (), ()))
    weights = [right] * len(left_moduli) + [left] * (len(moduli) - len(left_moduli))
    assert len(ctx.crt_coeffs) == len(moduli)
    for i, (coeff, weight) in enumerate(zip(ctx.crt_coeffs, weights)):
        # weight * coefficient is M_i * y_i: 1 modulo its own modulus, 0 modulo every other
        assert weight * coeff == flat_weights(moduli)[i]
        for j, m in enumerate(moduli):
            assert weight * coeff % m == (1 if i == j else 0)
        # a split set's coefficient is below its own half's product
        assert coeff < total // weight


def test_residue_out_of_range_rejected():
    with pytest.raises(RnsError):
        RnsNumber((8, 0, 0), CTX.moduli_set)


def test_non_int_residue_rejected():
    with pytest.raises(TypeError):
        RnsNumber((1.5, 2, 3), CTX.moduli_set)
    with pytest.raises(TypeError, match="^residue True is not an int$"):
        RnsNumber((True, 0, 0), CTX.moduli_set)


def test_residues_given_as_list_become_a_tuple():
    number = RnsNumber([4, 0, 1], CTX.moduli_set)
    assert number.residues == (4, 0, 1)
    assert number == to_rns(CTX, 36)
    assert hash(number) == hash(to_rns(CTX, 36))


def test_length_mismatch_rejected():
    with pytest.raises(RnsError):
        RnsNumber((1, 2), CTX.moduli_set)


# Each position in which a channel op or from_rns takes an operand, as
# call(ok, other) with `other` in that position and ok formed by CTX, and
# the value it gives for ok = 20 and other = 11 over CTX's moduli.
OPERAND_POSITIONS = [
    pytest.param(lambda ok, other: rns_add(CTX, other, ok), 31, id="rns_add-a"),
    pytest.param(lambda ok, other: rns_add(CTX, ok, other), 31, id="rns_add-b"),
    pytest.param(lambda ok, other: rns_sub(CTX, other, ok), 495, id="rns_sub-a"),
    pytest.param(lambda ok, other: rns_sub(CTX, ok, other), 9, id="rns_sub-b"),
    pytest.param(lambda ok, other: rns_mul(CTX, other, ok), 220, id="rns_mul-a"),
    pytest.param(lambda ok, other: rns_mul(CTX, ok, other), 220, id="rns_mul-b"),
    pytest.param(lambda ok, other: rns_pow(CTX, other, 2), 121, id="rns_pow-a"),
    pytest.param(lambda ok, other: from_rns(CTX, other), 11, id="from_rns-a"),
]


@pytest.mark.parametrize("call,value", OPERAND_POSITIONS)
def test_context_mismatch_rejected(call, value):
    other = RnsContext(ModuliSet((5, 6, 7)))
    with pytest.raises(RnsError) as exc:
        call(to_rns(CTX, 20), to_rns(other, 11))
    assert str(exc.value) == "context mismatch: operand built over (5, 6, 7), context over (8, 9, 7)"


@pytest.mark.parametrize("call,value", OPERAND_POSITIONS)
def test_equal_set_accepted_in_every_operand_position(call, value):
    # an equal but distinct ModuliSet fails the identity test and passes by value
    twin = RnsContext(ModuliSet((8, 9, 7)))
    assert twin.moduli_set is not CTX.moduli_set
    result = call(to_rns(CTX, 20), to_rns(twin, 11))
    if isinstance(result, RnsNumber):
        assert result.moduli_set is CTX.moduli_set
        result = from_rns(CTX, result)
    assert result == value


def test_equal_sets_built_separately_mix():
    twin = RnsContext(ModuliSet((8, 9, 7)))
    assert twin.moduli_set is not CTX.moduli_set
    assert from_rns(CTX, rns_add(CTX, to_rns(twin, 12), to_rns(CTX, 24))) == 36


def test_context_rejects_non_coprime_moduli():
    with pytest.raises(RnsError):
        RnsContext(ModuliSet((6, 9, 5)))


def test_context_rejects_small_modulus():
    with pytest.raises(RnsError):
        RnsContext(ModuliSet((1, 3, 5)))


def test_context_rejects_an_empty_set():
    with pytest.raises(RnsError, match=r"^moduli set is empty$"):
        RnsContext(ModuliSet(()))


def test_crt_weights_law():
    moduli = CTX.moduli_set.moduli
    assert len(CTX.crt_coeffs) == len(moduli)
    for i, c in enumerate(CTX.crt_coeffs):
        for j, m in enumerate(moduli):
            assert c % m == (1 if i == j else 0)


def test_context_error_messages():
    with pytest.raises(RnsError, match=r"^modulus 1 < 2$"):
        RnsContext(ModuliSet((3, 1, 0)))
    with pytest.raises(RnsError, match=r"^moduli 6 and 9 are not coprime \(gcd = 3\)$"):
        RnsContext(ModuliSet((5, 6, 9, 4)))
    # the small-modulus check wins over a non-coprime pair
    with pytest.raises(RnsError, match=r"^modulus 1 < 2$"):
        RnsContext(ModuliSet((6, 9, 1)))
    with pytest.raises(RnsError, match=r"^moduli 7 and 7 are not coprime \(gcd = 7\)$"):
        RnsContext(ModuliSet((7, 7, 9)))


def test_wide_set_names_exactly_the_conflicting_pair():
    moduli = find_moduli(GenerationRequest(8192, 64))[0].moduli
    first = moduli[0]
    # the first modulus is the even center; every other one is odd and coprime to it
    bad = moduli[:-1] + (2 * first,)
    message = f"^moduli {first} and {2 * first} are not coprime \\(gcd = {first}\\)$"
    with pytest.raises(RnsError, match=message):
        RnsContext(ModuliSet(bad))


def test_valid_context_skips_the_pairwise_scan(monkeypatch):
    def forbidden(ms):
        raise AssertionError("pairwise scan ran on a coprime set")

    monkeypatch.setattr(rns, "structural_faults", forbidden)
    moduli_set = find_moduli(GenerationRequest(1024, 16))[0]
    assert len(RnsContext(moduli_set).crt_coeffs) == 16


def build_error(moduli):
    """RnsContext's message for the set, or None when it builds."""
    try:
        RnsContext(ModuliSet(moduli))
    except RnsError as exc:
        return str(exc)
    return None


def scan_error(moduli):
    """Each check's message in turn; a coprimality fault names the pairwise scan's first pair."""
    if not moduli:
        return "moduli set is empty"
    small, pairs = structural_faults(moduli)
    if small:
        return f"modulus {small[0]} < 2"
    if pairs:
        a, b = pairs[0]
        return f"moduli {a} and {b} are not coprime (gcd = {gcd(a, b)})"
    return None


@given(moduli=st.lists(st.integers(-2, 60), max_size=7))
@settings(max_examples=400)
def test_coprimality_test_agrees_with_the_pairwise_scan(moduli):
    # 0, 1, negatives, duplicates and shared factors all come up among small ints
    assert build_error(tuple(moduli)) == scan_error(tuple(moduli))


SPLIT_SET = find_moduli(GenerationRequest(2048, 24))[0].moduli


@given(i=st.integers(0, 23), j=st.integers(0, 23), k=st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_split_set_with_a_multiple_agrees_with_the_pairwise_scan(i, j, k):
    moduli = SPLIT_SET[:j] + (k * SPLIT_SET[i],) + SPLIT_SET[j + 1:]
    assert build_error(moduli) == scan_error(moduli)


def leaf_split(moduli):
    """The remainder tree's leaves, split by count while wider than _LEAF_BITS."""
    if prod(moduli).bit_length() <= _LEAF_BITS or len(moduli) == 1:
        return [moduli]
    half = len(moduli) // 2
    return leaf_split(moduli[:half]) + leaf_split(moduli[half:])


# (i, j, k): modulus j becomes k times modulus i, the set's one non-coprime pair,
# caught only by a leaf's running gcd, or only by the gcd at the root split
@pytest.mark.parametrize("i,j,k,where", [(2, 5, 5, "same-leaf"), (1, 20, 7, "across-halves")])
def test_split_set_names_a_pair_only_one_gcd_can_see(i, j, k, where):
    assert leaf_split(SPLIT_SET) == tree_leaves(RnsContext(ModuliSet(SPLIT_SET))._tree)
    moduli = SPLIT_SET[:j] + (k * SPLIT_SET[i],) + SPLIT_SET[j + 1:]
    a, b = SPLIT_SET[i], k * SPLIT_SET[i]
    assert structural_faults(moduli)[1] == ((a, b),)
    leaves = leaf_split(moduli)
    assert len(leaves) > 2
    if where == "same-leaf":
        assert any({a, b} <= set(leaf) for leaf in leaves)
    else:
        assert a in moduli[:12] and b in moduli[12:]
    assert build_error(moduli) == f"moduli {a} and {b} are not coprime (gcd = {a})"


def test_coefficients_wait_for_the_first_reverse_conversion(monkeypatch):
    calls = []

    def counting(a, m):
        calls.append(m)
        return mod_inverse(a, m)

    monkeypatch.setattr(rns, "mod_inverse", counting)
    moduli_set = find_moduli(GenerationRequest(2048, 24))[0]
    ctx = RnsContext(moduli_set)
    assert calls == []
    x = moduli_set.dynamic_range // 3
    assert from_rns(ctx, to_rns(ctx, x)) == x
    assert calls == list(moduli_set.moduli)
    assert from_rns(ctx, to_rns(ctx, x + 1)) == x + 1
    assert len(calls) == 24
    # read first, crt_coeffs builds the very tuple from_rns then uses
    calls.clear()
    read_first = RnsContext(moduli_set)
    coeffs = read_first.crt_coeffs
    assert len(calls) == 24 and coeffs == ctx.crt_coeffs
    assert from_rns(read_first, to_rns(read_first, x)) == x
    assert len(calls) == 24 and read_first._crt_coeffs is coeffs


@pytest.mark.parametrize("converted", [False, True], ids=["never-converted", "converted"])
@pytest.mark.parametrize("how", list(COPIERS))
def test_copies_of_a_context_before_and_after_its_first_conversion(how, converted):
    ctx = RnsContext(find_moduli(GenerationRequest(2048, 24))[0])
    x = ctx.moduli_set.dynamic_range - 12345
    if converted:
        assert from_rns(ctx, to_rns(ctx, x)) == x
    back = COPIERS[how](ctx)
    assert back == ctx and back._tree == ctx._tree
    # a copy carries the coefficients once built, and copying builds none
    assert bool(back._crt_coeffs) == bool(ctx._crt_coeffs) == converted
    assert back.crt_coeffs == ctx.crt_coeffs
    assert from_rns(back, to_rns(back, x)) == from_rns(ctx, to_rns(ctx, x)) == x


def test_racing_first_conversions_each_get_their_value():
    ctx = RnsContext(find_moduli(GenerationRequest(2048, 24))[0])
    values = [ctx.moduli_set.dynamic_range // (n + 2) for n in range(4)]
    numbers = [to_rns(ctx, x) for x in values]
    results = [None] * 4
    start = threading.Barrier(4)

    def convert(n):
        start.wait(timeout=10)
        results[n] = from_rns(ctx, numbers[n])

    threads = [threading.Thread(target=convert, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == values


# --- channel arithmetic --------------------------------------------------------------


def test_add_within_range():
    assert rns_add(CTX, to_rns(CTX, 12), to_rns(CTX, 24)) == to_rns(CTX, 36)


def test_sub_wraps():
    assert rns_sub(CTX, to_rns(CTX, 5), to_rns(CTX, 9)) == to_rns(CTX, 500)


def test_add_zero_identity():
    a = to_rns(CTX, 123)
    assert rns_add(CTX, a, to_rns(CTX, 0)) == a


def test_pow_cases():
    assert rns_pow(CTX, to_rns(CTX, 3), 4) == to_rns(CTX, 81)
    a = to_rns(CTX, 77)
    assert rns_pow(CTX, a, 0) == to_rns(CTX, 1)
    assert rns_pow(CTX, a, 1) == a


def test_pow_rejects_negative_exponent():
    with pytest.raises(RnsError):
        rns_pow(CTX, to_rns(CTX, 3), -1)


# --- ring laws ------------------------------------------------------------------------


@pytest.mark.parametrize("moduli", [(8, 9, 7), (6, 7, 5), (4, 5, 3, 7)])
def test_roundtrip_exhaustive_small_sets(moduli):
    ctx = RnsContext(ModuliSet(moduli))
    for x in range(ctx.moduli_set.dynamic_range):
        assert from_rns(ctx, to_rns(ctx, x)) == x


@pytest.mark.parametrize("moduli", LAW_SETS)
def test_homomorphism_randomized(moduli):
    ctx = RnsContext(ModuliSet(moduli))
    total = ctx.moduli_set.dynamic_range
    rng = random.Random(20260810)
    for _ in range(2000):
        a = rng.randrange(total)
        b = rng.randrange(total)
        ra, rb = to_rns(ctx, a), to_rns(ctx, b)
        assert from_rns(ctx, rns_add(ctx, ra, rb)) == (a + b) % total
        assert from_rns(ctx, rns_sub(ctx, ra, rb)) == (a - b) % total
        assert from_rns(ctx, rns_mul(ctx, ra, rb)) == (a * b) % total


@given(
    a=st.integers(min_value=0, max_value=360359),
    e=st.integers(min_value=0, max_value=64),
)
@settings(max_examples=300)
def test_pow_coherence(a, e):
    ctx = RnsContext(ModuliSet((8, 9, 7, 11, 5, 13)))
    total = ctx.moduli_set.dynamic_range
    assert from_rns(ctx, rns_pow(ctx, to_rns(ctx, a), e)) == pow(a, e, total)


@given(
    x=st.integers(min_value=0),
    y=st.integers(min_value=0),
    e=st.integers(min_value=0, max_value=64),
)
@settings(max_examples=200)
def test_outputs_stay_in_range(x, y, e):
    total = CTX.moduli_set.dynamic_range
    a, b = to_rns(CTX, x), to_rns(CTX, y)
    for r, m in zip(a.residues, CTX.moduli_set.moduli):
        assert 0 <= r < m
    assert 0 <= from_rns(CTX, a) < total
    results = [
        (rns_add(CTX, a, b), (x + y) % total),
        (rns_sub(CTX, a, b), (x - y) % total),
        (rns_mul(CTX, a, b), (x * y) % total),
        (rns_pow(CTX, a, e), pow(x, e, total)),
    ]
    for result, expected in results:
        # results skip RnsNumber's check; the public constructor must still accept them
        assert RnsNumber(result.residues, result.moduli_set) == result
        assert from_rns(CTX, result) == expected
