"""Acceptance sweep for the whole toolkit.

Each test covers one exit criterion and prints a single PASS line (visible
with `pytest -s`); a failed assertion keeps the line from printing.  The
expected moduli sets and bit counts below are the published reference
values; the three cells that contradict the generation rules they
illustrate are asserted in their rule-faithful form, with the deviation
notes checked for the quantitative justification.
"""

import random
import time

from rnskit.datapath import (
    Microprogram,
    Source,
    Step,
    builtin_function1,
    builtin_function2,
    run,
)
from rnskit.moduli import (
    GenerationRequest,
    ModuliSet,
    SchemeId,
    baseline,
    bit_cost,
    find_moduli,
    validate,
)
from rnskit.numbers import coprime_to_all
from rnskit.rns import (
    RnsContext,
    from_rns,
    rns_add,
    rns_mul,
    rns_pow,
    rns_sub,
    to_rns,
)
from rnskit.tables import comparison_rows

# Reference sweep over bits x cardinality (moduli in generation order).
# Cells marked in DEVIATIONS below disagree with the generation rules;
# the generator is asserted against the rule-faithful values instead.
EXTENDED_SWEEP = {
    (12, 3): (18, 19, 17),
    (12, 4): (8, 9, 7, 11),
    (12, 5): (6, 7, 5, 11, 13),
    (12, 6): (4, 5, 3, 7, 11, 13),
    (16, 3): (42, 43, 41),
    (16, 4): (16, 17, 15, 19),
    (16, 5): (10, 11, 9, 13, 7),
    (16, 6): (8, 9, 7, 11, 5, 13),
    (20, 3): (102, 103, 101),
    (20, 4): (32, 33, 31, 35),
    (20, 5): (16, 17, 15, 19, 23),
    (20, 6): (12, 13, 11, 17, 7, 19),
    (24, 3): (256, 257, 255),
    (24, 4): (64, 65, 63, 67),
    (24, 5): (28, 29, 27, 31, 25),
    (24, 6): (16, 17, 15, 19, 23, 11),
    (28, 3): (646, 647, 645),
    (28, 4): (128, 129, 127, 131),
    (28, 5): (50, 51, 49, 47, 53),
    (28, 6): (26, 27, 25, 29, 23, 31),
    (32, 3): (1626, 1627, 1625),
    (32, 4): (256, 257, 255, 259),
    (32, 5): (86, 87, 85, 89, 77),
    (32, 6): (42, 43, 41, 47, 37, 53),
}

# Rule-faithful outputs for the two disputed generator cells.
DEVIATIONS = {
    (24, 3): (258, 259, 257),
    (32, 5): (86, 87, 85, 83, 89),
}

# Reference bit counts for the bits in {16, 20, 32} sweep.
CARDINALITY_SWEEP_BITS = {
    (16, 3): 18, (16, 4): 19, (16, 5): 19, (16, 6): 22,
    (20, 3): 21, (20, 4): 23, (20, 5): 24, (20, 6): 25,
    (32, 3): 33, (32, 4): 35, (32, 5): 35, (32, 6): 36,
}

# Reference three-moduli comparison: scheme -> bits -> (moduli, bit count).
THREE_MODULI = {
    "proposed": {
        6: ((6, 7, 5), 9),
        10: ((12, 13, 11), 12),
        16: ((42, 43, 41), 18),
        24: ((256, 257, 255), 26),  # disputed, see DEVIATIONS
        32: ((1626, 1627, 1625), 33),
    },
    "sm1": {
        6: ((8, 9, 7), 11),
        10: ((16, 17, 15), 14),
        16: ((64, 65, 63), 20),
        24: ((512, 513, 511), 29),
        32: ((2048, 2049, 2047), 35),
    },
    "sm2": {
        6: ((8, 7, 3), 9),
        10: ((16, 15, 7), 12),
        16: ((64, 63, 31), 18),
        24: ((512, 511, 255), 27),
        32: ((4096, 4097, 2047), 37),  # disputed: not of the family form
    },
    "sm3": {
        6: ((17, 5, 3), 10),
        10: ((65, 9, 7), 14),
        16: ((257, 17, 15), 18),
        24: ((4097, 65, 63), 26),
        32: ((65537, 257, 255), 34),
    },
}


def generate(bits, cardinality):
    return find_moduli(GenerationRequest(bits, cardinality))


def expected_set(bits, cardinality):
    return DEVIATIONS.get((bits, cardinality), EXTENDED_SWEEP[(bits, cardinality)])


def arithmetic_set_universe():
    """Every distinct moduli set appearing in the reference tables."""
    seen = {}
    for cell in EXTENDED_SWEEP.values():
        seen[cell] = ModuliSet(cell)
    for cell in DEVIATIONS.values():
        seen[cell] = ModuliSet(cell)
    for column in THREE_MODULI.values():
        for cell, _ in column.values():
            seen[cell] = ModuliSet(cell)
    seen[(4096, 4095, 2047)] = ModuliSet((4096, 4095, 2047))
    return list(seen.values())


def report(number, detail):
    print(f"acceptance {number}: PASS — {detail}")


def test_criterion_1_cardinality_sweep():
    started = time.perf_counter()
    results = {
        key: generate(*key) for key in CARDINALITY_SWEEP_BITS
    }
    elapsed = time.perf_counter() - started
    for (bits, cardinality), (moduli_set, _) in results.items():
        assert moduli_set.moduli == expected_set(bits, cardinality), (bits, cardinality)
        assert bit_cost(moduli_set) == CARDINALITY_SWEEP_BITS[(bits, cardinality)]
    # the one disputed cell costs exactly what the reference prints
    disputed, _ = results[(32, 5)]
    assert disputed.moduli == (86, 87, 85, 83, 89)
    assert bit_cost(disputed) == 35 == CARDINALITY_SWEEP_BITS[(32, 5)]
    assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"
    report(1, f"12-cell sweep exact (one flagged cell at equal cost) in {elapsed * 1000:.0f} ms")


def test_criterion_2_extended_sweep_and_deviation_reports():
    for (bits, cardinality), reference in EXTENDED_SWEEP.items():
        moduli_set, _ = generate(bits, cardinality)
        assert moduli_set.moduli == expected_set(bits, cardinality), (bits, cardinality)
        if (bits, cardinality) not in DEVIATIONS:
            assert moduli_set.moduli == reference

    # both deviations carry the quantitative justification
    row24 = comparison_rows([24], [SchemeId("proposed", 3)])[0]
    assert row24.moduli == (258, 259, 257)
    assert row24.deviation_note is not None
    for fragment in ("16776960", "255 short", "16777215", "(258,259,257)"):
        assert fragment in row24.deviation_note

    row32 = comparison_rows([32], [SchemeId("proposed", 5)])[0]
    assert row32.moduli == (86, 87, 85, 83, 89)
    assert row32.deviation_note is not None
    for fragment in ("83", "(86,87,85,83,89)", "equal cost"):
        assert fragment in row32.deviation_note

    report(2, "24-cell sweep exact except the two flagged cells; notes carry the numbers")


def test_criterion_3_three_moduli_comparison():
    for bits, (reference, cost) in THREE_MODULI["proposed"].items():
        if bits == 24:
            continue
        moduli_set, _ = generate(bits, 3)
        assert moduli_set.moduli == reference
        assert bit_cost(moduli_set) == cost

    for family, expected_bits in (
        ("sm1", (11, 14, 20, 29, 35)),
        ("sm3", (10, 14, 18, 26, 34)),
    ):
        scheme = SchemeId.parse(family)
        for (bits, (reference, cost)), expect in zip(
            sorted(THREE_MODULI[family].items()), expected_bits
        ):
            member = baseline(scheme, bits)
            assert member.moduli == reference, (family, bits)
            assert bit_cost(member) == cost == expect

    sm2 = SchemeId.parse("sm2")
    for bits in (6, 10, 16, 24):
        reference, cost = THREE_MODULI["sm2"][bits]
        member = baseline(sm2, bits)
        assert member.moduli == reference
        assert bit_cost(member) == cost

    # flagged cells: the rule-faithful values, with notes present
    ours24 = comparison_rows([24], [SchemeId("proposed", 3)])[0]
    assert (ours24.moduli, ours24.bit_cost) == ((258, 259, 257), 27)
    assert ours24.deviation_note

    ours32 = comparison_rows([32], [sm2])[0]
    assert ours32.moduli == (4096, 4095, 2047)
    # 13 + 12 + 11; the reference cell (4096,4097,2047) prints 37
    assert ours32.bit_cost == 36
    assert ours32.deviation_note and "(4096,4097,2047)" in ours32.deviation_note

    report(3, "three-moduli comparison reproduced; flagged cells at 27 and 36 bits")


def test_criterion_4_triple_always_beats_power_of_two_family():
    sm1 = SchemeId.parse("sm1")
    violations = [
        bits
        for bits in range(4, 65)
        if bit_cost(generate(bits, 3)[0]) > bit_cost(baseline(sm1, bits))
    ]
    assert violations == []
    report(4, "bit cost <= power-of-two triple family for every width 4..64")


def test_criterion_5_rns_roundtrip_and_ring_laws():
    started = time.perf_counter()
    universe = arithmetic_set_universe()

    small = [ms for ms in universe if ms.dynamic_range <= 10**6]
    assert len(small) >= 15
    roundtrips = 0
    for moduli_set in small:
        ctx = RnsContext(moduli_set)
        for x in range(moduli_set.dynamic_range):
            assert from_rns(ctx, to_rns(ctx, x)) == x
        roundtrips += moduli_set.dynamic_range

    rng = random.Random(0xC0FFEE)
    pair_trials = 10_000
    for moduli_set in universe:
        ctx = RnsContext(moduli_set)
        total = moduli_set.dynamic_range
        for _ in range(pair_trials):
            a = rng.randrange(total)
            b = rng.randrange(total)
            ra, rb = to_rns(ctx, a), to_rns(ctx, b)
            assert from_rns(ctx, rns_add(ctx, ra, rb)) == (a + b) % total
            assert from_rns(ctx, rns_sub(ctx, ra, rb)) == (a - b) % total
            assert from_rns(ctx, rns_mul(ctx, ra, rb)) == (a * b) % total

    for moduli_set in universe:
        ctx = RnsContext(moduli_set)
        total = moduli_set.dynamic_range
        for _ in range(200):
            a = rng.randrange(total)
            e = rng.randrange(65)
            assert from_rns(ctx, rns_pow(ctx, to_rns(ctx, a), e)) == pow(a, e, total)

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion took {elapsed:.1f}s"
    report(
        5,
        f"{roundtrips} exhaustive roundtrips over {len(small)} sets, "
        f"{pair_trials} pairs x 3 ops x {len(universe)} sets, pow coherence; "
        f"{elapsed:.1f}s",
    )


def test_criterion_6_simulator_matches_integer_oracle():
    universe = [ms for ms in arithmetic_set_universe() if ms.dynamic_range <= 10**9]
    assert len(universe) >= 20
    rng = random.Random(0xDA7A)
    trials = 1000
    scale_by_third = builtin_function1()
    for moduli_set in universe:
        ctx = RnsContext(moduli_set)
        total = moduli_set.dynamic_range
        for _ in range(trials):
            x, y, z = (rng.randrange(total) for _ in range(3))
            outputs, _ = run(ctx, scale_by_third, {"X": x, "Y": y, "Z": z})
            assert outputs == [((x + y) * z) % total]
        for _ in range(trials):
            x = rng.randrange(total)
            e = rng.randrange(33)
            outputs, _ = run(ctx, builtin_function2(e), {"X": x})
            assert outputs == [pow(x, e, total)]

    # read-before-write: cross-reading units see the previous step's latches
    ctx = RnsContext(ModuliSet((8, 9, 7)))
    cross = Microprogram(
        name="crossread",
        steps=(
            Step(inject_a=3, inject_b=5,
                 add_l=Source.IN1, add_r=Source.IN2,
                 mul_l=Source.IN1, mul_r=Source.IN2),
            Step(add_l=Source.MUL, add_r=Source.IN1,
                 mul_l=Source.ADD, mul_r=Source.IN1),
            Step(emit=Source.ADD),
            Step(emit=Source.MUL),
        ),
    )
    outputs, _ = run(ctx, cross, {})
    assert outputs == [3 * 5 + 3, (3 + 5) * 3]

    report(
        6,
        f"{trials} trials x 2 programs x {len(universe)} sets match the exact-integer "
        "oracle; cross-read latch test confirms simultaneous latching",
    )


def test_criterion_7_minimality_audit_and_trace_intermediates():
    for bits, cardinality in EXTENDED_SWEEP:
        moduli_set, trace = generate(bits, cardinality)
        for i, (_, k_root) in enumerate(trace.extras):
            earlier = moduli_set.moduli[: 3 + i]
            chosen = moduli_set.moduli[3 + i]
            floor = max(k_root, 2)
            assert chosen >= floor
            for candidate in range(floor, chosen):
                assert not coprime_to_all(candidate, earlier), (
                    bits, cardinality, candidate,
                )
        report_obj = validate(moduli_set, bits)
        assert report_obj.ok

    _, trace5 = generate(32, 5)
    assert trace5.extras[0] == (6754, 83)
    _, trace6 = generate(32, 6)
    assert list(trace6.extras) == [(58005, 39), (1235, 36), (34, 34)]
    _, trace4 = generate(32, 4)
    assert trace4.extras == ((257, 257),)

    report(7, "no smaller admissible extra exists in any of the 24 sets; "
              "trace intermediates match the printed values")
