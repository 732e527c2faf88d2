"""Forward conversion, channel-wise carry-free arithmetic, and reverse conversion.

An integer x in [0, M) is represented by its remainders against each
modulus; addition, subtraction and multiplication act independently per
channel, so no carry crosses channel boundaries.  Reverse conversion is
the classic weighted sum with one precomputed coefficient per channel,
M_i * y_i where M_i = M / m_i and y_i = M_i^-1 mod m_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mod, mul, sub

from .moduli import ModuliSet, structural_faults
from .numbers import gcd, mod_inverse

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


class RnsError(ValueError):
    """Invalid moduli set, residue vector, or mismatched context."""


@dataclass(frozen=True, slots=True)
class RnsContext:
    """A validated moduli set plus its per-channel CRT coefficients.

    crt_coeffs[i] is M_i * y_i: 1 modulo the i-th modulus and 0 modulo
    every other one.  Immutable after construction; safe to share across
    threads.
    """

    moduli_set: ModuliSet
    crt_coeffs: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        ms = self.moduli_set.moduli
        if not ms:
            raise RnsError("moduli set is empty")
        small, pairs = structural_faults(ms)
        if small:
            raise RnsError(f"modulus {small[0]} < 2")
        if pairs:
            a, b = pairs[0]
            raise RnsError(f"moduli {a} and {b} are not coprime (gcd = {gcd(a, b)})")
        total = self.moduli_set.dynamic_range
        coeffs = []
        for m in ms:
            partial = total // m
            coeffs.append(partial * mod_inverse(partial % m, m))
        object.__setattr__(self, "crt_coeffs", tuple(coeffs))


@dataclass(frozen=True, slots=True)
class RnsNumber:
    """Residue vector bound to the moduli set it was formed against."""

    residues: tuple[int, ...]
    moduli_set: ModuliSet

    def __post_init__(self) -> None:
        ms = self.moduli_set.moduli
        if len(self.residues) != len(ms):
            raise RnsError(
                f"expected {len(ms)} residues, got {len(self.residues)}"
            )
        for r, m in zip(self.residues, ms):
            if not isinstance(r, int):
                raise TypeError(f"residue {r!r} is not an int")
            if not 0 <= r < m:
                raise RnsError(f"residue {r} out of range for modulus {m}")


def _reduced(residues: tuple[int, ...], moduli_set: ModuliSet) -> RnsNumber:
    """An RnsNumber without the range check, for ints already reduced mod each modulus."""
    number = object.__new__(RnsNumber)
    object.__setattr__(number, "residues", residues)
    object.__setattr__(number, "moduli_set", moduli_set)
    return number


def _check_operand(ctx: RnsContext, value: RnsNumber) -> None:
    if value.moduli_set != ctx.moduli_set:
        raise RnsError(
            f"context mismatch: operand built over {value.moduli_set.moduli}, "
            f"context over {ctx.moduli_set.moduli}"
        )


def _channelwise(ctx: RnsContext, op, a: RnsNumber, b: RnsNumber) -> RnsNumber:
    # Python's % with a positive modulus is never negative, so sub needs no + m
    _check_operand(ctx, a)
    _check_operand(ctx, b)
    ms = ctx.moduli_set
    return _reduced(tuple(map(mod, map(op, a.residues, b.residues), ms.moduli)), ms)


def to_rns(ctx: RnsContext, x: int) -> RnsNumber:
    """Convert x to residues; values >= the dynamic range wrap around."""
    if not isinstance(x, int):
        raise TypeError(f"value {x!r} is not an int")
    if x < 0:
        raise RnsError(f"negative values are unsupported, got {x}")
    x %= ctx.moduli_set.dynamic_range
    return _reduced(tuple(map(mod, repeat(x), ctx.moduli_set.moduli)), ctx.moduli_set)


def from_rns(ctx: RnsContext, value: RnsNumber) -> int:
    """Recover the unique integer in [0, M) with the given residues."""
    _check_operand(ctx, value)
    return sum(map(mul, value.residues, ctx.crt_coeffs)) % ctx.moduli_set.dynamic_range


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
    """Channel-wise exponentiation (square-and-multiply per channel)."""
    _check_operand(ctx, a)
    if e < 0:
        raise RnsError(f"exponent must be >= 0, got {e}")
    return _reduced(tuple(map(pow, a.residues, repeat(e), ctx.moduli_set.moduli)), ctx.moduli_set)
