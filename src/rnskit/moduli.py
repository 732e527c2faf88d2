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

from math import gcd, prod

from ._record import Record
from .numbers import ceil_nth_root, parse_decimal

__all__ = [
    "ModuliSet",
    "GenerationRequest",
    "GenerationTrace",
    "ExtraChoice",
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


class ModuliSet(Record):
    """Ordered moduli with their cached dynamic range (exact product).

    Moduli must be ints (not bools), but may be invalid so that candidate
    sets can be inspected; `validate` reports >= 2 / coprimality / range violations.
    """

    __slots__ = FIELDS = ("moduli", "dynamic_range")

    def __init__(self, moduli: tuple[int, ...]) -> None:
        ms = tuple(moduli)
        for m in ms:
            if isinstance(m, bool) or not isinstance(m, int):
                raise TypeError(f"modulus {m!r} is not an int")
        object.__setattr__(self, "moduli", ms)
        object.__setattr__(self, "dynamic_range", prod(ms))

    def __len__(self) -> int:
        return len(self.moduli)

    def __iter__(self):
        return iter(self.moduli)


class GenerationRequest(Record):
    """Target width in bits and the number of moduli to generate."""

    __slots__ = FIELDS = ("bits", "cardinality")

    def __init__(self, bits: int, cardinality: int) -> None:
        if cardinality < 3:
            raise CardinalityError(f"cardinality must be >= 3, got {cardinality}")
        if bits < 2:
            raise RangeTooSmallError(f"bits must be >= 2, got {bits}")
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "cardinality", cardinality)


class ExtraChoice(Record):
    """One greedy fill step beyond the triple.

    k is the exact ceiling of remaining-range over product-so-far, k_root
    its descending-index integer root (k itself for the final slot), and
    chosen the smallest candidate >= max(k_root, 2) coprime to everything
    picked before it.
    """

    __slots__ = FIELDS = ("k", "k_root", "chosen")

    def __init__(self, k: int, k_root: int, chosen: int) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "k_root", k_root)
        object.__setattr__(self, "chosen", chosen)


class GenerationTrace(Record):
    """Intermediate generator quantities, kept for inspection and audits."""

    __slots__ = FIELDS = ("x", "center", "extras")

    def __init__(self, x: int, center: int, extras: tuple[ExtraChoice, ...]) -> None:
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "extras", extras)


class SchemeId(Record):
    """Identifies a generation scheme: ours at some cardinality, or a baseline.

    family is "proposed" (cardinality >= 3 required) or one of the
    power-of-two baseline families "sm1", "sm2", "sm3".
    """

    __slots__ = FIELDS = ("family", "cardinality")

    def __init__(self, family: str, cardinality: int | None = None) -> None:
        if family == "proposed":
            if cardinality is None or cardinality < 3:
                raise CardinalityError(
                    f"proposed scheme needs cardinality >= 3, got {cardinality}"
                )
        elif family in BASELINE_FAMILIES:
            if cardinality is not None:
                raise ValueError(f"{family} does not take a cardinality")
        else:
            raise ValueError(f"unknown scheme family {family!r}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "cardinality", cardinality)

    @classmethod
    def parse(cls, label: str) -> "SchemeId":
        """Parse labels like "proposed4" or "sm1" (case-insensitive)."""
        text = label.strip().lower()
        if text.startswith("proposed"):
            cardinality = parse_decimal(text[len("proposed"):])
            if cardinality is None:
                raise ValueError(f"unknown scheme {label!r}")
            return cls("proposed", cardinality)
        if text in BASELINE_FAMILIES:
            return cls(text)
        raise ValueError(f"unknown scheme {label!r}")

    @property
    def label(self) -> str:
        if self.family == "proposed":
            return f"proposed{self.cardinality}"
        return self.family


class ValidationReport(Record):
    """Outcome of the three structural checks on a candidate set."""

    __slots__ = FIELDS = ("small_moduli", "conflicting_pairs", "shortfall")

    def __init__(
        self, small_moduli: tuple[int, ...], conflicting_pairs: tuple[tuple[int, int], ...],
        shortfall: int,
    ) -> None:
        object.__setattr__(self, "small_moduli", small_moduli)
        object.__setattr__(self, "conflicting_pairs", conflicting_pairs)
        object.__setattr__(self, "shortfall", shortfall)

    @property
    def moduli_ok(self) -> bool:
        return not self.small_moduli

    @property
    def coprime_ok(self) -> bool:
        return not self.conflicting_pairs

    @property
    def range_ok(self) -> bool:
        return self.shortfall == 0

    @property
    def ok(self) -> bool:
        return self.moduli_ok and self.coprime_ok and self.range_ok


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

    Each slot's root is a Newton iteration started at an upper bound on
    it: c + 1 for the first extra slot, the previous pick for each later
    one.  The even center puts 2 in the product, so the search visits odd
    candidates only, from max(k_root, 3).  Each is screened by a gcd with
    the product's odd prime factors below 60, and one that passes gets a
    gcd against the product of all picks, at most once per call: the
    picks and the candidates already visited are skipped without it.

    Moduli are returned in generation order.  The accompanying trace
    records x, the final center, and every (k, k_root, chosen) step.
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
    # Each slot's root is at most the pick before it, so Newton starts
    # there.  Slot 1: x**t >= target and c >= x, so target / (c**3 - c) <=
    # c**t / (c**3 - c) <= (c + 1)**(t - 3) for c >= 2 and t >= 4, and the
    # root is at most c + 1.  Slot j >= 2 with n_j = t - 2 - j: the slot
    # before left target / P <= k <= k_root**(n_j + 1) <= m**(n_j + 1) for
    # its pick m, so k_j = ceil(target / (P * m)) <= m**n_j.
    bound = center + 1
    # The product only grows, so what an earlier slot found stays exact.
    # A pick, or a candidate that shared a factor with the product, shares
    # it with every later product: `seen` holds the odd picks and every
    # candidate visited, and none gets a second full gcd.  k is carried by
    # ceil(ceil(a / b) / m) = ceil(a / (b * m)).
    seen = {center - 1, center + 1}
    k = (target + product - 1) // product
    for j in range(1, req.cardinality - 2):
        k_root = ceil_nth_root(k, req.cardinality - 2 - j, start=bound)
        # The even center puts 2 in the product, so only odd candidates can
        # be coprime to it.  A candidate sharing a factor with `small`
        # shares it with the product; one that passes gets the full gcd.
        small = gcd(product, SMALL_ODD_PRIMES)
        candidate = max(k_root, 3) | 1
        while candidate in seen or gcd(candidate, small) != 1 or gcd(candidate, product) != 1:
            seen.add(candidate)
            candidate += 2
        seen.add(candidate)
        extras.append(ExtraChoice(k=k, k_root=k_root, chosen=candidate))
        picked.append(candidate)
        product *= candidate
        k = (k + candidate - 1) // candidate
        bound = candidate
    return ModuliSet(tuple(picked)), GenerationTrace(x, center, tuple(extras))


def baseline(scheme: SchemeId, bits: int) -> ModuliSet:
    """Smallest member of a power-of-two baseline family covering 2**bits - 1.

    Finds the smallest family parameter n whose member has all moduli
    >= 2 and a product reaching the target, by doubling n until a member
    covers and then bisecting between the last two doublings.
    """
    if scheme.family not in BASELINE_FAMILIES:
        raise ValueError(f"baseline requires one of {tuple(BASELINE_FAMILIES)}, got {scheme.label}")
    if bits < 2:
        raise RangeTooSmallError(f"bits must be >= 2, got {bits}")
    target = (1 << bits) - 1
    member = BASELINE_FAMILIES[scheme.family]

    # exact search: every modulus of a member, so its product and its
    # smallest modulus, only grow with n
    def covers(n: int) -> bool:
        ms = member(1 << n)
        return min(ms) >= 2 and prod(ms) >= target

    hi = 1
    while not covers(hi):
        hi *= 2
    lo = hi // 2 + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if covers(mid):
            hi = mid
        else:
            lo = mid + 1
    return ModuliSet(member(1 << hi))


def bit_cost(moduli_set: ModuliSet) -> int:
    """Total binary width of the set: the sum of each modulus's bit length.

    Every modulus must be >= 1, the smallest value with a binary width.
    """
    for m in moduli_set.moduli:
        if m < 1:
            raise ValueError(f"bit_cost requires moduli >= 1, got {m}")
    return sum(m.bit_length() for m in moduli_set.moduli)


def structural_faults(ms: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The moduli below 2 and every non-coprime pair (i < j), in set order."""
    small = tuple(m for m in ms if m < 2)
    pairs = tuple((a, b) for i, a in enumerate(ms) for b in ms[i + 1:] if gcd(a, b) != 1)
    return small, pairs


def validate(moduli_set: ModuliSet, bits: int) -> ValidationReport:
    """Check moduli >= 2, pairwise coprimality, and range coverage.

    The report carries each failure separately: the offending small
    moduli, every non-coprime pair, and how far the dynamic range falls
    short of 2**bits - 1 (zero when covered).
    """
    small, pairs = structural_faults(moduli_set.moduli)
    target = (1 << bits) - 1
    shortfall = max(0, target - moduli_set.dynamic_range)
    return ValidationReport(small, pairs, shortfall)
