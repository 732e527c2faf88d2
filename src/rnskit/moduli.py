"""Moduli-set generation, baseline families, bit-cost, and validation.

The generator pivots on an even integer near the n-th root of the target
range: the consecutive triple (c, c+1, c-1) around an even c is always
pairwise coprime, and for cardinalities above three the remaining slots
are filled greedily with the smallest integers that stay coprime to the
set while covering what is left of the range.

A set of t moduli represents every integer in [0, M) where M is the
product of the moduli (the dynamic range); the total width of the set is
the sum of the moduli's binary bit-lengths, and lower is better.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, prod

from ._record import Record
from .numbers import ceil_nth_root, check_int, parse_decimal

__all__ = [
    "ModuliSet",
    "GenerationRequest",
    "GenerationTrace",
    "SchemeId",
    "ValidationReport",
    "CardinalityError",
    "RangeTooSmallError",
    "find_moduli",
    "baseline",
    "bit_cost",
    "validate",
]

# Power-of-two baseline families: each member as a function of p = 2**n.
BASELINE_FAMILIES = {
    "sm1": lambda p: (p, p + 1, p - 1),
    "sm2": lambda p: (p, p - 1, (p >> 1) - 1),
    "sm3": lambda p: (p * p + 1, p + 1, p - 1),
}

# The odd primes below 60; the generator screens candidates against those
# dividing the product before the full-width gcd.
SMALL_ODD_PRIMES = prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59))


class CardinalityError(ValueError):
    """Requested cardinality is below the minimum of three."""


class RangeTooSmallError(ValueError):
    """The bit budget is too small for the request (a modulus < 2 would result)."""


def check_bits(bits) -> int:
    """Return the target 2**bits - 1; bits is an int >= 2, else TypeError or RangeTooSmallError."""
    check_int("bits", bits, 2, RangeTooSmallError)
    return (1 << bits) - 1


class ModuliSet(Record):
    """Ordered moduli; dynamic_range is their cached exact product.

    Read the moduli and their count from `.moduli`; they must be ints (not
    bools) but may fail `validate`'s >= 2 / coprimality / range checks.
    """

    FIELDS = ("moduli",)
    __slots__ = (*FIELDS, "dynamic_range")

    def __init__(self, moduli: tuple[int, ...]) -> None:
        ms = tuple(moduli)
        for m in ms:
            check_int("modulus", m)
        self.__setstate__((ms, prod(ms)))


class GenerationRequest(Record):
    """Target width in bits and the number of moduli to generate."""

    __slots__ = FIELDS = ("bits", "cardinality")

    def __init__(self, bits: int, cardinality: int) -> None:
        check_int("cardinality", cardinality, 3, CardinalityError)
        check_bits(bits)
        self.__setstate__((bits, cardinality))


class GenerationTrace(Record):
    """Intermediate generator quantities, kept for inspection and audits.

    x is the cardinality-th root of the target, rounded up; the even
    center that the set is built on is moduli[0].  extras holds one
    (k, k_root) pair per slot beyond the triple: k is the exact ceiling of
    remaining-range over product-so-far, k_root its descending-index
    integer root (k itself for the final slot).  Extra slot j (1-based)
    picked moduli[2 + j], the smallest candidate >= max(k_root, 2)
    coprime to everything picked before it.
    """

    __slots__ = FIELDS = ("x", "extras")

    def __init__(self, x: int, extras: tuple[tuple[int, int], ...]) -> None:
        self.__setstate__((x, extras))


class SchemeId(Record):
    """Identifies a generation scheme: ours at some cardinality, or a baseline.

    family is "proposed" (cardinality an int >= 3, not a bool) or one of
    the power-of-two baseline families "sm1", "sm2", "sm3".  label is the
    derived spelling, "proposed<t>" or the family, that `parse` reads.
    """

    FIELDS = ("family", "cardinality")
    __slots__ = (*FIELDS, "label")

    def __init__(self, family: str, cardinality: int | None = None) -> None:
        if family == "proposed":
            check_int("cardinality", cardinality, 3, CardinalityError)
        elif family in BASELINE_FAMILIES:
            if cardinality is not None:
                raise ValueError(f"{family} does not take a cardinality")
        else:
            raise ValueError(f"unknown scheme family {family!r}")
        label = family if cardinality is None else f"proposed{cardinality}"
        self.__setstate__((family, cardinality, label))

    @classmethod
    def parse(cls, label: str) -> "SchemeId":
        """Parse labels like "proposed4" or "sm1" (case-insensitive)."""
        text = label.strip().lower()
        if text in BASELINE_FAMILIES:
            return cls(text)
        digits = text[len("proposed"):] if text.startswith("proposed") else ""
        if (cardinality := parse_decimal(digits)) is not None:
            return cls("proposed", cardinality)
        raise ValueError(f"unknown scheme {label!r}")


class ValidationReport(Record):
    """Outcome of the three structural checks on a candidate set."""

    __slots__ = FIELDS = ("small_moduli", "conflicting_pairs", "shortfall")

    def __init__(
        self, small_moduli: tuple[int, ...], conflicting_pairs: tuple[tuple[int, int], ...],
        shortfall: int,
    ) -> None:
        self.__setstate__((small_moduli, conflicting_pairs, shortfall))

    @property
    def ok(self) -> bool:
        return not self.small_moduli and not self.conflicting_pairs and self.shortfall == 0


def find_moduli(req: GenerationRequest) -> tuple[ModuliSet, GenerationTrace]:
    """Generate a pairwise-coprime moduli set covering 2**bits - 1.

    Steps: take x = ceil(cardinality-th root of 2**bits - 1) and round it
    up to an even center c.  For cardinality 3, grow c by 2 until
    c(c+1)(c-1) covers the target, and return (c, c+1, c-1).  For larger
    cardinalities keep the triple and append, one slot at a time, the
    smallest integer >= max(k_root, 2) coprime to all earlier picks,
    where k is the exact ceiling of target / product-so-far and k_root
    its ceiling (t - 2 - j)-th root for extra slot j = 1 .. t - 3, t the
    cardinality: a square root for the next-to-last slot and k itself
    for the last.

    Each slot's root is passed an upper bound on it: c + 1 for the first
    extra slot, the previous slot's k_root for each later one.  2 and 3
    divide (c - 1)c(c + 1), so the search visits only candidates prime to 6
    from max(k_root, 3), stepping +2 and +4 in turn.  Each is screened by a
    gcd with the product's odd prime factors below 60, and one that passes
    gets a gcd against the product of all picks, at most once per call:
    the picks and the candidates already visited are skipped by a lookup.

    Moduli are returned in generation order, center first, and the
    product the loop carried is the set's dynamic_range.  The trace
    records x and every extra slot's (k, k_root).  GenerationRequest's
    constructor is the one check of bits and cardinality.
    """
    target = (1 << req.bits) - 1
    x = ceil_nth_root(target, req.cardinality)
    center = x if x % 2 == 0 else x + 1
    if req.cardinality == 3:
        while center * (center + 1) * (center - 1) < target:
            center += 2
    if center - 1 < 2:
        raise RangeTooSmallError(
            f"bits={req.bits} with cardinality={req.cardinality} forces "
            f"modulus {center - 1} < 2"
        )
    picked = [center, center + 1, center - 1]
    product = center * (center + 1) * (center - 1)
    extras = []
    # Newton starts each slot's root at a proven bound on it.  Slot 1:
    # x**t >= target and c >= x, so target / (c**3 - c) <= c**t / (c**3 - c)
    # <= (c + 1)**(t - 3) for c >= 2 and t >= 4: the root is at most c + 1.
    # Slot j >= 2, n_j = t - 2 - j: the slot before had k <= k_root**(n_j + 1)
    # and picked m >= k_root, so k_j = ceil(k / m) <= k_root**n_j.
    k_root = center + 1
    # The product only grows, so what an earlier slot found stays exact.
    # A pick, or a candidate that shared a factor with the product, shares
    # it with every later product: `seen` holds the odd picks and every
    # candidate visited, and one met again costs a lookup, no gcd or add.
    # k is carried by ceil(ceil(a / b) / m) = ceil(a / (b * m)).
    seen = {center - 1, center + 1}
    k = (target + product - 1) // product
    # 2 and 3 divide (c - 1)c(c + 1), so the walk steps over their multiples
    # on the wheel mod 6.  A candidate sharing a factor with `small`, the
    # product's odd primes below 60, shares it with the product; one that
    # passes gets the full gcd.  Each pick is coprime to the product, so
    # `small` grows by the pick's own small primes.
    small = gcd(product, SMALL_ODD_PRIMES)
    for j in range(1, req.cardinality - 2):
        k_root = ceil_nth_root(k, req.cardinality - 2 - j, start=k_root)
        candidate = max(k_root, 3) | 1
        if candidate % 3 == 0:
            candidate += 2
        step = 4 if candidate % 3 == 1 else 2
        while True:
            if candidate not in seen:
                seen.add(candidate)
                if gcd(candidate, small) == 1 and gcd(candidate, product) == 1:
                    break
            candidate += step
            step = 6 - step
        extras.append((k, k_root))
        picked.append(candidate)
        product *= candidate
        small *= gcd(candidate, SMALL_ODD_PRIMES)
        k = (k + candidate - 1) // candidate
    moduli_set = object.__new__(ModuliSet)
    moduli_set.__setstate__((tuple(picked), product))
    return moduli_set, GenerationTrace(x, tuple(extras))


def baseline(scheme: SchemeId, bits: int) -> ModuliSet:
    """Smallest member of a power-of-two baseline family covering 2**bits - 1.

    bits is an int >= 2, not a bool.  Bisects for the smallest family
    parameter n whose member has all moduli >= 2 and a product reaching the
    target, over n in [max(1, bits // 4), max(3, bits // 3 + 2)].
    """
    if scheme.family not in BASELINE_FAMILIES:
        raise ValueError(f"baseline requires one of {tuple(BASELINE_FAMILIES)}, got {scheme.label}")
    target = check_bits(bits)
    member = BASELINE_FAMILIES[scheme.family]

    # exact search: every modulus of a member, so its product and its
    # smallest modulus, only grow with n
    def covers(n: int) -> bool:
        ms = member(1 << n)
        return min(ms) >= 2 and prod(ms) >= target

    # Every member's product is below 2**(4n), so none covers below bits / 4.
    # At n = max(3, bits // 3 + 2) all moduli are >= 2 and each product is at
    # least p**3 / 4 = 2**(3n - 2) > 2**bits, so every member covers there.
    n = bisect_left(range(max(4, bits // 3 + 3)), True, max(1, bits // 4), key=covers)
    return ModuliSet(member(1 << n))


def bit_cost(moduli_set: ModuliSet) -> int:
    """Total binary width of the set: the sum of each modulus's bit length.

    Every modulus must be >= 1, the smallest value with a binary width.
    """
    for m in moduli_set.moduli:
        if m < 1:
            raise ValueError(f"bit_cost requires moduli >= 1, got {m}")
    return sum(map(int.bit_length, moduli_set.moduli))


def structural_faults(ms: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The moduli below 2 and every non-coprime pair (i < j), in set order."""
    small = tuple(m for m in ms if m < 2)
    pairs = tuple((a, b) for i, a in enumerate(ms) for b in ms[i + 1:] if gcd(a, b) != 1)
    return small, pairs


def validate(moduli_set: ModuliSet, bits: int) -> ValidationReport:
    """Check moduli >= 2, pairwise coprimality, and range coverage.

    bits is an int >= 2, not a bool.  The report carries each failure
    separately: the offending small moduli, every non-coprime pair, and how
    far the dynamic range falls short of 2**bits - 1 (zero when covered).
    """
    target = check_bits(bits)
    small, pairs = structural_faults(moduli_set.moduli)
    shortfall = max(0, target - moduli_set.dynamic_range)
    return ValidationReport(small, pairs, shortfall)
