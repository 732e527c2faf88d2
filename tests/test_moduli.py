from collections import Counter
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rnskit.moduli import (
    SMALL_ODD_PRIMES,
    CardinalityError,
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
from rnskit.tables import DEVIATION_NOTES, ComparisonRow, rows_to_csv

from helpers import bisection_ceil_root


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
    assert moduli_set.moduli[0] == 42
    assert trace.extras == ((58005, 39), (1235, 36), (34, 34))
    assert moduli_set.moduli[3:] == (47, 37, 53)
    assert len(trace.extras) == len(moduli_set.moduli) - 3


def test_trace_quadruple_intermediate():
    moduli_set, trace = gen(32, 4)
    assert trace.extras == ((257, 257),)
    assert moduli_set.moduli[3:] == (259,)


def test_cardinality_below_three_rejected():
    with pytest.raises(CardinalityError):
        GenerationRequest(16, 2)


def test_bits_too_small_for_cardinality():
    with pytest.raises(RangeTooSmallError):
        gen(4, 7)


def test_bits_below_two_rejected():
    with pytest.raises(RangeTooSmallError):
        GenerationRequest(1, 3)


@pytest.mark.parametrize(
    "bits,cardinality,field",
    [
        (32.0, 6, "bits"),
        (32, 6.0, "cardinality"),
        ("32", 6, "bits"),
        (True, 3, "bits"),
        (64, True, "cardinality"),
    ],
)
def test_request_rejects_a_field_that_is_not_an_int(bits, cardinality, field):
    with pytest.raises(TypeError, match=f"^{field} .+ is not an int$"):
        GenerationRequest(bits, cardinality)


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
    # every family's label, spelled as the CSV scheme column and DEVIATION_NOTES spell it
    spellings = {family: SchemeId(family) for family in ("sm1", "sm2", "sm3")} | {
        f"proposed{t}": SchemeId("proposed", t) for t in (3, 4, 5, 6, 64)
    }
    assert {label for _, label in DEVIATION_NOTES} <= spellings.keys()
    for text, scheme in spellings.items():
        assert scheme.label == text
        assert SchemeId.parse(scheme.label) == scheme == SchemeId.parse(text.upper())
        assert rows_to_csv([ComparisonRow(24, scheme, (), 0)]).splitlines()[1].split(",")[1] == text
    with pytest.raises(ValueError):
        SchemeId.parse("nonsense")
    with pytest.raises(CardinalityError):
        SchemeId.parse("proposed2")


@pytest.mark.parametrize("label", ["proposed-3", "proposed0", "proposed-0"])
def test_scheme_parse_leaves_the_cardinality_bound_to_scheme_id(label):
    message = f"^cardinality must be >= 3, got {int(label[len('proposed'):])}$"
    with pytest.raises(CardinalityError, match=message):
        SchemeId.parse(label)


@pytest.mark.parametrize("label", ["proposed", "proposed+4", "proposed4x", "proposed\u0664"])
def test_scheme_parse_rejects_a_non_decimal_cardinality(label):
    with pytest.raises(ValueError, match="^unknown scheme "):
        SchemeId.parse(label)


@pytest.mark.parametrize(
    "args,message",
    [
        (("sm1", 3), "^sm1 does not take a cardinality$"),
        (("sm4",), "^unknown scheme family 'sm4'$"),
    ],
)
def test_scheme_id_rejects_a_baseline_cardinality_or_an_unknown_family(args, message):
    with pytest.raises(ValueError, match=message):
        SchemeId(*args)


# the family forms written out independently of the library's table
FAMILY_FORMS = {
    "sm1": lambda n: (2**n, 2**n + 1, 2**n - 1),
    "sm2": lambda n: (2**n, 2**n - 1, 2 ** (n - 1) - 1),
    "sm3": lambda n: (2 ** (2 * n) + 1, 2**n + 1, 2**n - 1),
}


@pytest.mark.parametrize("family", sorted(FAMILY_FORMS))
def test_baseline_is_the_first_covering_family_member(family):
    form = FAMILY_FORMS[family]
    # 12288 lies past the CLI's 8192 cap, where no CLI row checks the bisection window
    for bits in [*range(2, 300), 1024, 4096, 8192, 12288]:
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
    assert report.small_moduli == () and report.conflicting_pairs == ()
    assert report.shortfall > 0
    assert report.shortfall == 255
    assert not report.ok


def test_validate_all_pass():
    report = validate(ModuliSet((8, 9, 7)), 6)
    assert report.ok
    assert report.shortfall == 0


def test_validate_coprimality_failure():
    report = validate(ModuliSet((6, 9, 5)), 4)
    assert report.conflicting_pairs
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
        assert len(moduli_set.moduli) == cardinality
        c = moduli_set.moduli[0]
        assert c % 2 == 0
        assert c >= trace.x
        assert moduli_set.moduli[:3] == (c, c + 1, c - 1)
        assert len(trace.extras) == cardinality - 3
        for (_, k_root), chosen in zip(trace.extras, moduli_set.moduli[3:]):
            assert chosen >= max(k_root, 2)


# cells with many extra slots; at (640, 53) later slots come back to
# 4399, a candidate that failed on the factor 83, not to a pick
SEARCH_CELLS = [(2048, 24), (8192, 64), (300, 64), (640, 53)]


def gen_recording_gcd(monkeypatch, bits, cardinality):
    """The generated set and every (a, b) the generator passed to gcd."""
    calls = []
    monkeypatch.setattr("rnskit.moduli.gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))
    moduli_set, _ = gen(bits, cardinality)
    monkeypatch.undo()
    return moduli_set, calls


@pytest.mark.parametrize("bits,cardinality", SEARCH_CELLS)
def test_no_candidate_reaches_the_full_gcd_twice(monkeypatch, bits, cardinality):
    # the product only grows, so a pick, or a candidate that once shared a
    # factor with it, fails every later slot too: one full-width gcd is
    # enough
    moduli_set, calls = gen_recording_gcd(monkeypatch, bits, cardinality)
    ms = moduli_set.moduli
    products = {prod(ms[:i]) for i in range(3, len(ms))}
    tested = Counter(a for a, b in calls if b in products)
    assert set(ms[3:]) <= set(tested)  # every pick passed one, so the spy saw them
    assert max(tested.values()) == 1, tested.most_common(1)


@pytest.mark.parametrize("bits,cardinality", SEARCH_CELLS)
def test_small_primes_never_meet_a_product_wider_than_the_triple(monkeypatch, bits, cardinality):
    # each pick is coprime to the product, so the screen's small primes are
    # carried pick by pick and only the triple's product is reduced by them
    moduli_set, calls = gen_recording_gcd(monkeypatch, bits, cardinality)
    ms = moduli_set.moduli
    triple = prod(ms[:3])
    screened = [a if b == SMALL_ODD_PRIMES else b for a, b in calls if SMALL_ODD_PRIMES in (a, b)]
    assert triple in screened
    assert max(x.bit_length() for x in screened) <= triple.bit_length()
    # and the screen before each full gcd holds exactly that product's small primes
    products = {prod(ms[:i]) for i in range(3, len(ms))}
    full = [i for i, (a, b) in enumerate(calls) if b in products]
    assert full
    for i in full:
        candidate, product = calls[i]
        assert calls[i - 1] == (candidate, gcd(product, SMALL_ODD_PRIMES))


@pytest.mark.parametrize("bits,cardinality", SEARCH_CELLS)
def test_walk_never_visits_a_multiple_of_3(monkeypatch, bits, cardinality):
    # 3 divides (c - 1)c(c + 1), so the walk steps around the multiples of 3:
    # after the triple's screen, no gcd is taken of one
    moduli_set, calls = gen_recording_gcd(monkeypatch, bits, cardinality)
    assert calls[0] == (prod(moduli_set.moduli[:3]), SMALL_ODD_PRIMES)
    assert len(calls) > 1
    assert [a for a, b in calls[1:] if a % 3 == 0] == []


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
        extras.append((k, k_root))
        picked.append(candidate)
        product *= candidate
    return ModuliSet(tuple(picked)), GenerationTrace(x, tuple(extras))


def test_generator_matches_reference_bit_for_bit():
    cells = [(bits, t) for bits in range(2, 301) for t in range(3, 25)]
    # from (64, 40) on, high cardinalities spread the picks, so the walk
    # crosses many earlier picks and candidates; the reference takes each
    # extra as the least coprime candidate from max(k_root, 2), so a match
    # also shows every extra minimal, at the five wide cells last too
    extra_cells = [(4096, 32), (8192, 3), (8192, 64), (64, 40), (300, 64), (1024, 48), (4096, 64),
                   (2048, 24), (2048, 9), (1537, 17), (640, 24), (333, 13)]
    for bits, t in cells + extra_cells:
        expected = reference_generator(bits, t)
        if expected is None:
            with pytest.raises(RangeTooSmallError):
                gen(bits, t)
        else:
            # ModuliSet equality leaves dynamic_range out, so it is compared too
            got = gen(bits, t)
            assert got == expected, (bits, t)
            assert got[0].dynamic_range == expected[0].dynamic_range, (bits, t)


@given(bits=st.integers(min_value=64, max_value=2048), t=st.integers(min_value=3, max_value=24))
@example(bits=64, t=24)
@example(bits=2048, t=24)
@settings(derandomize=True, max_examples=400)
def test_generator_matches_reference_across_gen_sweep(bits, t):
    # the gen-sweep benchmark's domain of generate requests
    got = gen(bits, t)
    assert got == reference_generator(bits, t), (bits, t)
    # each slot's root is the Newton start of the next: c + 1 bounds the first,
    # and every later root is at most the one before it
    roots = [got[0].moduli[0] + 1] + [k_root for _, k_root in got[1].extras]
    assert all(a >= b for a, b in zip(roots, roots[1:])), (bits, t, roots)


def test_generation_is_deterministic():
    assert gen(32, 5) == gen(32, 5)


def test_triple_cost_never_worse_than_power_of_two_family():
    sm1 = SchemeId.parse("sm1")
    for bits in range(4, 65):
        ours, _ = gen(bits, 3)
        assert bit_cost(ours) <= bit_cost(baseline(sm1, bits)), bits


def test_triple_cost_against_every_baseline_family_at_widths_4_to_1024():
    # README's numbers: (cheaper, tied, dearer) widths per family, and where
    # proposed3 loses to sm3, by how many bits
    tally = {family: [0, 0, 0] for family in ("sm1", "sm2", "sm3")}
    dearer = {}
    for bits in range(4, 1025):
        ours = bit_cost(gen(bits, 3)[0])
        for family, counts in tally.items():
            diff = ours - bit_cost(baseline(SchemeId.parse(family), bits))
            counts[(diff > 0) - (diff < 0) + 1] += 1
            if diff > 0:
                dearer[family, bits] = diff
    assert tally == {"sm1": [1018, 3, 0], "sm2": [341, 680, 0], "sm3": [765, 170, 86]}
    assert dearer == {("sm3", bits): 1 for bits in [8, *range(12, 1025, 12)]}
    assert baseline(SchemeId.parse("sm3"), 12).moduli == (65, 9, 7)
    assert gen(12, 3)[0].moduli == (18, 19, 17)


@given(bits=st.integers(min_value=4, max_value=64))
@settings(max_examples=64)
def test_consecutive_triple_pairwise_coprime(bits):
    moduli_set, _ = gen(bits, 3)
    c = moduli_set.moduli[0]
    assert gcd(c - 1, c) == 1
    assert gcd(c, c + 1) == 1
    assert gcd(c - 1, c + 1) == 1  # both odd neighbours of an even center
