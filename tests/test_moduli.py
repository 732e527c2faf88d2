from collections import Counter
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnskit.moduli import (
    CardinalityError,
    ExtraChoice,
    GenerationRequest,
    GenerationTrace,
    ModuliSet,
    RangeTooSmallError,
    SchemeId,
    baseline,
    bit_cost,
    find_moduli,
    validate,
)
from rnskit.numbers import coprime_to_all, gcd


def gen(bits, cardinality):
    return find_moduli(GenerationRequest(bits, cardinality))


# --- generator outputs ----------------------------------------------------------


@pytest.mark.parametrize(
    "bits,cardinality,expected",
    [
        (32, 3, (1626, 1627, 1625)),
        (32, 4, (256, 257, 255, 259)),
        (32, 6, (42, 43, 41, 47, 37, 53)),
        (16, 6, (8, 9, 7, 11, 5, 13)),
        (12, 6, (4, 5, 3, 7, 11, 13)),  # final k = 1, floored to candidate 2
        (6, 3, (6, 7, 5)),  # 4*5*3 = 60 < 63 forces one increment
        (24, 3, (258, 259, 257)),  # 256*257*255 = 16776960 < 2**24 - 1
    ],
)
def test_generated_sets(bits, cardinality, expected):
    moduli_set, _ = gen(bits, cardinality)
    assert moduli_set.moduli == expected


def test_generated_set_range_and_product():
    moduli_set, _ = gen(24, 3)
    assert moduli_set.dynamic_range == 258 * 259 * 257
    assert moduli_set.dynamic_range >= 2**24 - 1
    assert 256 * 257 * 255 < 2**24 - 1  # why the smaller triple is rejected


def test_trace_fields():
    moduli_set, trace = gen(32, 6)
    assert trace.x == 41
    assert trace.center == 42
    assert [(e.k, e.k_root, e.chosen) for e in trace.extras] == [
        (58005, 39, 47),
        (1235, 36, 37),
        (34, 34, 53),
    ]
    assert len(trace.extras) == len(moduli_set) - 3


def test_trace_quadruple_intermediate():
    _, trace = gen(32, 4)
    assert [(e.k, e.k_root, e.chosen) for e in trace.extras] == [(257, 257, 259)]


def test_cardinality_below_three_rejected():
    with pytest.raises(CardinalityError):
        GenerationRequest(16, 2)


def test_bits_too_small_for_cardinality():
    with pytest.raises(RangeTooSmallError):
        gen(4, 7)


def test_bits_below_two_rejected():
    with pytest.raises(RangeTooSmallError):
        GenerationRequest(1, 3)


# --- baselines ------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,bits,expected",
    [
        ("sm1", 24, (512, 513, 511)),  # 256*257*255 falls 255 short, so n=9
        ("sm2", 16, (64, 63, 31)),
        ("sm3", 16, (257, 17, 15)),  # product 65535 meets the bound exactly
        ("sm2", 32, (4096, 4095, 2047)),  # n=11 gives 4288677888 < 2**32 - 1
    ],
)
def test_baseline_members(family, bits, expected):
    assert baseline(SchemeId.parse(family), bits).moduli == expected


def test_baseline_exact_bound():
    member = baseline(SchemeId.parse("sm3"), 16)
    assert member.dynamic_range == 2**16 - 1


def test_baseline_rejects_proposed():
    with pytest.raises(ValueError):
        baseline(SchemeId.parse("proposed3"), 16)


def test_scheme_parse():
    assert SchemeId.parse("proposed4") == SchemeId("proposed", 4)
    assert SchemeId.parse("SM1") == SchemeId("sm1")
    assert SchemeId.parse("proposed4").label == "proposed4"
    with pytest.raises(ValueError):
        SchemeId.parse("nonsense")
    with pytest.raises(CardinalityError):
        SchemeId.parse("proposed2")


@pytest.mark.parametrize("label", ["proposed-3", "proposed0", "proposed-0"])
def test_scheme_parse_leaves_the_cardinality_bound_to_scheme_id(label):
    message = f"^proposed scheme needs cardinality >= 3, got {int(label[len('proposed'):])}$"
    with pytest.raises(CardinalityError, match=message):
        SchemeId.parse(label)


@pytest.mark.parametrize("label", ["proposed", "proposed+4", "proposed4x", "proposed\u0664"])
def test_scheme_parse_rejects_a_non_decimal_cardinality(label):
    with pytest.raises(ValueError, match="^unknown scheme "):
        SchemeId.parse(label)


# the family forms written out independently of the library's table
FAMILY_FORMS = {
    "sm1": lambda n: (2**n, 2**n + 1, 2**n - 1),
    "sm2": lambda n: (2**n, 2**n - 1, 2 ** (n - 1) - 1),
    "sm3": lambda n: (2 ** (2 * n) + 1, 2**n + 1, 2**n - 1),
}


@pytest.mark.parametrize("family", sorted(FAMILY_FORMS))
def test_baseline_is_the_first_covering_family_member(family):
    form = FAMILY_FORMS[family]
    for bits in [*range(2, 300), 1024, 4096, 8192]:
        n = 1
        while min(form(n)) < 2 or prod(form(n)) < 2**bits - 1:
            n += 1
        assert baseline(SchemeId(family), bits).moduli == form(n), bits


# --- bit cost -------------------------------------------------------------------


@pytest.mark.parametrize(
    "moduli,expected",
    [
        ((42, 43, 41), 18),
        ((2048, 2049, 2047), 35),
        ((2,), 2),
    ],
)
def test_bit_cost(moduli, expected):
    assert bit_cost(ModuliSet(moduli)) == expected


@pytest.mark.parametrize("moduli", [(0,), (8, 0, 7), (8, 9, -7), (-1,)])
def test_bit_cost_rejects_modulus_below_one(moduli):
    with pytest.raises(ValueError, match=r"^bit_cost requires moduli >= 1, got -?\d+$"):
        bit_cost(ModuliSet(moduli))


@given(st.lists(st.integers(1, 2**70), max_size=8))
@example([1, 2, 3, 255, 256, 257, 2**20 - 1, 2**20, 2**20 + 1])
@settings(max_examples=200)
def test_bit_cost_is_the_sum_of_binary_digits(moduli):
    assert bit_cost(ModuliSet(tuple(moduli))) == sum(len(bin(m)) - 2 for m in moduli)


# --- validate -------------------------------------------------------------------


@pytest.mark.parametrize("moduli", [(8.5, 9, 7), (True, 9, 7), (8, "9", 7)])
def test_moduli_set_rejects_non_int(moduli):
    with pytest.raises(TypeError):
        ModuliSet(moduli)


def test_generated_set_is_not_bit_minimal():
    # The generator does not minimize the summed width: at 12 bits with
    # three moduli, (31, 29, 5) is valid and two bits cheaper.
    moduli_set, _ = gen(12, 3)
    assert moduli_set.moduli == (18, 19, 17)
    assert bit_cost(moduli_set) == 15
    cheaper = ModuliSet((31, 29, 5))
    assert validate(cheaper, 12).ok
    assert cheaper.dynamic_range == 4495
    assert bit_cost(cheaper) == 13
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert "minimize" not in readme


def test_validate_range_shortfall():
    report = validate(ModuliSet((256, 257, 255)), 24)
    assert report.moduli_ok and report.coprime_ok
    assert not report.range_ok
    assert report.shortfall == 255
    assert not report.ok


def test_validate_all_pass():
    report = validate(ModuliSet((8, 9, 7)), 6)
    assert report.ok
    assert report.shortfall == 0


def test_validate_coprimality_failure():
    report = validate(ModuliSet((6, 9, 5)), 4)
    assert not report.coprime_ok
    assert report.conflicting_pairs == ((6, 9),)


def test_validate_small_modulus():
    report = validate(ModuliSet((1, 3, 5)), 2)
    assert report.small_moduli == (1,)


# --- generator invariants ---------------------------------------------------------


@pytest.mark.parametrize("cardinality", [3, 4, 5, 6])
def test_generator_sweep_invariants(cardinality):
    for bits in range(4, 65):
        try:
            moduli_set, trace = gen(bits, cardinality)
        except RangeTooSmallError:
            # a handful of tiny widths cannot host the cardinality
            assert bits <= 6
            continue
        report = validate(moduli_set, bits)
        assert report.ok, (bits, cardinality, report)
        assert len(moduli_set) == cardinality
        c = trace.center
        assert c % 2 == 0
        assert c >= trace.x
        assert moduli_set.moduli[:3] == (c, c + 1, c - 1)
        assert len(trace.extras) == cardinality - 3
        for extra in trace.extras:
            assert extra.chosen >= max(extra.k_root, 2)


@pytest.mark.parametrize(
    "cells",
    [pytest.param([(bits, t) for bits in range(4, 65, 3)], id=str(t)) for t in (4, 5, 6)]
    + [pytest.param([(2048, 24), (2048, 9), (1537, 17), (640, 24), (333, 13)], id="wide")],
)
def test_each_extra_is_minimal(cells):
    # re-check by direct scan: nothing below the chosen candidate is
    # admissible, the even ones the generator skips without a gcd included
    for bits, cardinality in cells:
        try:
            moduli_set, trace = gen(bits, cardinality)
        except RangeTooSmallError:
            assert bits <= 6
            continue
        for i, extra in enumerate(trace.extras):
            earlier = moduli_set.moduli[: 3 + i]
            for c in range(max(extra.k_root, 2), extra.chosen):
                assert not coprime_to_all(c, earlier)


@pytest.mark.parametrize("bits,cardinality", [(2048, 24), (8192, 64), (300, 64), (640, 53)])
def test_no_candidate_reaches_the_full_gcd_twice(monkeypatch, bits, cardinality):
    # the product only grows, so a pick, or a candidate that once shared a
    # factor with it, fails every later slot too: one full-width gcd is
    # enough.  At (640, 53) later slots come back to 4399, a candidate that
    # failed on the factor 83, not to a pick.
    calls = []
    monkeypatch.setattr("rnskit.moduli.gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
    moduli_set, _ = gen(bits, cardinality)
    monkeypatch.undo()
    ms = moduli_set.moduli
    products = {prod(ms[:i]) for i in range(3, len(ms))}
    tested = Counter(a for a, b in calls if b in products)
    assert set(ms[3:]) <= set(tested)  # every pick passed one, so the spy saw them
    assert max(tested.values()) == 1, tested.most_common(1)


def bisection_ceil_root(v, n):
    """The binary-search root, as in tests/test_numbers.py."""
    if n == 1:
        return v
    lo, hi = 1, 1 << ((v.bit_length() + n - 1) // n)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n >= v:
            hi = mid
        else:
            lo = mid + 1
    return lo


def coprime_pick_by_pick(c, picked):
    # coprime_to_all's check as a plain loop, without the generator's call overhead
    for m in picked:
        if gcd(c, m) != 1:
            return False
    return True


def reference_generator(bits, cardinality):
    """find_moduli as first written: bisection roots, each candidate checked pick by pick.

    None where the center would force a modulus below 2.
    """
    target = (1 << bits) - 1
    x = bisection_ceil_root(target, cardinality)
    center = x + x % 2
    if cardinality == 3:
        while center * (center + 1) * (center - 1) < target:
            center += 2
    if center - 1 < 2:
        return None
    picked = [center, center + 1, center - 1]
    product = center * (center + 1) * (center - 1)
    extras = []
    for j in range(1, cardinality - 2):
        k = -(-target // product)
        k_root = bisection_ceil_root(k, cardinality - 2 - j)
        candidate = max(k_root, 2)
        while not coprime_pick_by_pick(candidate, picked):
            candidate += 1
        extras.append(ExtraChoice(k, k_root, candidate))
        picked.append(candidate)
        product *= candidate
    return ModuliSet(tuple(picked)), GenerationTrace(x, center, tuple(extras))


def test_generator_matches_reference_bit_for_bit():
    cells = [(bits, t) for bits in range(2, 301) for t in range(3, 25)]
    # from (64, 40) on, high cardinalities spread the picks, so the walk
    # crosses many earlier picks and candidates
    extra_cells = [(4096, 32), (8192, 3), (8192, 64), (64, 40), (300, 64), (1024, 48), (4096, 64)]
    for bits, t in cells + extra_cells:
        expected = reference_generator(bits, t)
        if expected is None:
            with pytest.raises(RangeTooSmallError):
                gen(bits, t)
        else:
            assert gen(bits, t) == expected, (bits, t)


@given(bits=st.integers(min_value=64, max_value=2048), t=st.integers(min_value=3, max_value=24))
@example(bits=64, t=24)
@example(bits=2048, t=24)
@settings(derandomize=True, max_examples=400)
def test_generator_matches_reference_across_gen_sweep(bits, t):
    # the gen-sweep benchmark's domain of generate requests
    assert gen(bits, t) == reference_generator(bits, t), (bits, t)


def test_generation_is_deterministic():
    assert gen(32, 5) == gen(32, 5)


def test_triple_cost_never_worse_than_power_of_two_family():
    sm1 = SchemeId.parse("sm1")
    for bits in range(4, 65):
        ours, _ = gen(bits, 3)
        assert bit_cost(ours) <= bit_cost(baseline(sm1, bits)), bits


@given(bits=st.integers(min_value=4, max_value=64))
@settings(max_examples=64)
def test_consecutive_triple_pairwise_coprime(bits):
    moduli_set, trace = gen(bits, 3)
    c = trace.center
    assert gcd(c - 1, c) == 1
    assert gcd(c, c + 1) == 1
    assert gcd(c - 1, c + 1) == 1  # both odd neighbours of an even center
