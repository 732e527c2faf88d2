"""Forward conversion, channel-wise carry-free arithmetic, and reverse conversion.

An integer x in [0, M) is represented by its remainders against each
modulus; addition, subtraction and multiplication act independently per
channel, so no carry crosses channel boundaries.

Forward conversion walks a remainder tree built once per context: x is
reduced by M, then by the product of each half of the moduli, halving
until a node's product is at most _LEAF_BITS wide, and only then by each
modulus.  Dividing a wide x by a few wide products and then by narrow
moduli costs less than dividing the wide x by every narrow modulus.  A
set no wider than _LEAF_BITS is one leaf, reduced flat: x mod M, then x
mod each modulus.

Reverse conversion is the weighted sum x = sum(r_i * c_i) mod M, split at
the tree's root: on a split set x = (P_R * S_L + P_L * S_R) mod M from the
halves' products P and sums S, over half-width c_i (see RnsContext).
"""

from __future__ import annotations

from itertools import repeat
from math import gcd, prod
from operator import add, mod, mul, sub

from ._record import Record
from .moduli import ModuliSet, structural_faults
from .numbers import check_int, mod_inverse

__all__ = [
    "RnsContext",
    "RnsNumber",
    "RnsError",
    "to_rns",
    "from_rns",
    "rns_add",
    "rns_sub",
    "rns_mul",
    "rns_pow",
]


# Widest node product the remainder tree reduces by its moduli directly.
_LEAF_BITS = 1024


class RnsError(ValueError):
    """Invalid moduli set, residue vector, or mismatched context."""


def _remainder_tree(moduli: tuple[int, ...], product: int) -> tuple | None:
    """Node (product, moduli, halves); halves is () at a leaf, else two nodes by count.

    None unless the moduli are pairwise coprime: at each split the halves' products
    have gcd 1, and in each leaf every modulus has gcd 1 with the product of those before it.
    """
    if product.bit_length() <= _LEAF_BITS or len(moduli) == 1:
        seen = 1
        for m in moduli:
            if gcd(seen, m) != 1:
                return None
            seen *= m
        return (product, moduli, ())
    half = len(moduli) // 2
    left = prod(moduli[:half])
    halves = (_remainder_tree(moduli[:half], left), _remainder_tree(moduli[half:], product // left))
    return (product, moduli, halves) if all(halves) and gcd(left, halves[1][0]) == 1 else None


def _remainders(x: int, node: tuple) -> tuple[int, ...]:
    product, moduli, halves = node
    x %= product
    if halves:
        left, right = halves
        return _remainders(x, left) + _remainders(x, right)
    return tuple(map(mod, repeat(x), moduli))


class RnsContext(Record):
    """A validated moduli set plus its per-channel CRT coefficients.

    crt_coeffs[i] is M_i * y_i (M_i = M / m_i, y_i = M_i^-1 mod m_i) on a
    one-leaf set: 1 modulo m_i and 0 modulo every other modulus.  On a split
    set it is (P_h / m_i) * y_i, P_h the product of m_i's half; times the
    other half's product it is M_i * y_i.  to_rns's remainder tree is built
    here, the coefficients on first use (() until then); both are kept, out
    of equality and repr.  Two racing first uses at worst build them twice.
    """

    FIELDS = ("moduli_set",)
    __slots__ = (*FIELDS, "_tree", "_crt_coeffs")

    def __init__(self, moduli_set: ModuliSet) -> None:
        self.__post_init__(moduli_set)

    # the build, called through self: the traced benchmark times it as
    # rns.context_build by wrapping this class attribute
    def __post_init__(self, moduli_set: ModuliSet) -> None:
        ms = moduli_set.moduli
        if not ms:
            raise RnsError("moduli set is empty")
        for m in ms:
            if m < 2:
                raise RnsError(f"modulus {m} < 2")
        tree = _remainder_tree(ms, moduli_set.dynamic_range)
        if tree is None:
            a, b = structural_faults(ms)[1][0]
            raise RnsError(f"moduli {a} and {b} are not coprime (gcd = {gcd(a, b)})")
        self.__setstate__((moduli_set, tree, ()))

    @property
    def crt_coeffs(self) -> tuple[int, ...]:
        if not self._crt_coeffs:
            # a leaf is one half, and the other half is empty, with product 1
            left, right = self._tree[2] or (self._tree, (1, (), ()))
            coeffs = []
            for (part, hms, _), (other, _, _) in ((left, right), (right, left)):
                for m in hms:
                    partial = part // m
                    coeffs.append(partial * mod_inverse(partial % m * (other % m), m))
            RnsContext._crt_coeffs.__set__(self, tuple(coeffs))
        return self._crt_coeffs


class RnsNumber(Record):
    """Residues, ints (not bools) in [0, m), bound to the set they were formed against."""

    __slots__ = FIELDS = ("residues", "moduli_set")

    def __init__(self, residues: tuple[int, ...], moduli_set: ModuliSet) -> None:
        residues = tuple(residues)
        ms = moduli_set.moduli
        if len(residues) != len(ms):
            raise RnsError(f"expected {len(ms)} residues, got {len(residues)}")
        for r, m in zip(residues, ms):
            check_int("residue", r)
            if not 0 <= r < m:
                raise RnsError(f"residue {r} out of range for modulus {m}")
        self.__setstate__((residues, moduli_set))


# a computed result, already reduced mod each modulus, is built in place
# with the class's slot setters: no __init__ range check, no extra frame
_new = object.__new__
_set_residues, _set_moduli_set = RnsNumber._SETTERS


def _check_operand(ctx: RnsContext, value: RnsNumber) -> None:
    # callers test identity inline first: operands formed by this context
    # share its set object, so only a foreign operand is compared by value
    if value.moduli_set != ctx.moduli_set:
        raise RnsError(
            f"context mismatch: operand built over {value.moduli_set.moduli}, "
            f"context over {ctx.moduli_set.moduli}"
        )


def _channelwise(ctx: RnsContext, op, a: RnsNumber, b: RnsNumber) -> RnsNumber:
    # Python's % with a positive modulus is never negative, so sub needs no + m
    ms = ctx.moduli_set
    if a.moduli_set is not ms:
        _check_operand(ctx, a)
    if b.moduli_set is not ms:
        _check_operand(ctx, b)
    number = _new(RnsNumber)
    _set_residues(number, tuple(map(mod, map(op, a.residues, b.residues), ms.moduli)))
    _set_moduli_set(number, ms)
    return number


def to_rns(ctx: RnsContext, x: int) -> RnsNumber:
    """Convert an int x >= 0 (not a bool) to residues; x >= the dynamic range wraps."""
    if type(x) is not int or x < 0:
        check_int("value", x, 0, RnsError)
    number = _new(RnsNumber)
    _set_residues(number, _remainders(x, ctx._tree))
    _set_moduli_set(number, ctx.moduli_set)
    return number


def from_rns(ctx: RnsContext, value: RnsNumber) -> int:
    """Recover the unique integer in [0, M) with the given residues."""
    if value.moduli_set is not ctx.moduli_set:
        _check_operand(ctx, value)
    c = ctx._crt_coeffs or ctx.crt_coeffs
    total, _, halves = ctx._tree
    if not halves:
        return sum(map(mul, value.residues, c)) % total
    (p_l, lms, _), (p_r, _, _) = halves
    r, k = value.residues, len(lms)
    return (p_r * sum(map(mul, r[:k], c)) + p_l * sum(map(mul, r[k:], c[k:]))) % total


def rns_add(ctx: RnsContext, a: RnsNumber, b: RnsNumber) -> RnsNumber:
    """Channel-wise addition; equals to_rns((A + B) mod M)."""
    return _channelwise(ctx, add, a, b)


def rns_sub(ctx: RnsContext, a: RnsNumber, b: RnsNumber) -> RnsNumber:
    """Channel-wise subtraction with wraparound; equals to_rns((A - B) mod M)."""
    return _channelwise(ctx, sub, a, b)


def rns_mul(ctx: RnsContext, a: RnsNumber, b: RnsNumber) -> RnsNumber:
    """Channel-wise multiplication; equals to_rns((A * B) mod M)."""
    return _channelwise(ctx, mul, a, b)


def rns_pow(ctx: RnsContext, a: RnsNumber, e: int) -> RnsNumber:
    """Channel-wise a ** e (square-and-multiply per channel); e is an int >= 0, not a bool."""
    ms = ctx.moduli_set
    if a.moduli_set is not ms:
        _check_operand(ctx, a)
    check_int("exponent", e, 0, RnsError)
    number = _new(RnsNumber)
    _set_residues(number, tuple(map(pow, a.residues, repeat(e), ms.moduli)))
    _set_moduli_set(number, ms)
    return number
