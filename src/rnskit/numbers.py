"""Exact unbounded-integer primitives the rest of the toolkit builds on.

Everything here is pure integer arithmetic.  No floating point anywhere:
float root/log shortcuts misround exactly at the power boundaries
(e.g. 16**4 = 65536 vs 65535) that the moduli generator pivots on.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "ceil_nth_root",
    "mod_inverse",
    "coprime_to_all",
    "parse_decimal",
    "NotCoprimeError",
]


class NotCoprimeError(ValueError):
    """A modular inverse was requested for non-coprime inputs."""


def ceil_nth_root(v: int, n: int, *, start: int | None = None) -> int:
    """Smallest r with r**n >= v, i.e. the ceiling of the real n-th root.

    Requires v >= 1 and n >= 1.  Exact integer Newton iteration from above.
    Without `start` it begins at _root_above(v, n), which is near a wide
    root: the root of v's top bits, shifted back up.  A caller that knows
    an upper bound on the root passes it as `start`: an int >= 1 with
    start**n >= v, else ValueError; Newton then begins at the smaller of
    start and 2**ceil(bitlen/n) > v**(1/n).
    """
    if v < 1:
        raise ValueError(f"ceil_nth_root requires v >= 1, got {v}")
    if n < 1:
        raise ValueError(f"ceil_nth_root requires n >= 1, got {n}")
    if start is not None and (start < 1 or start**n < v):
        raise ValueError(f"ceil_nth_root start must be >= 1 with start**n >= v, got {start}")
    if n == 1:
        return v
    if start is None:
        return _newton_root(v, n, _root_above(v, n))
    return _newton_root(v, n, min(1 << ((v.bit_length() + n - 1) // n), start))


def _newton_root(v: int, n: int, x: int) -> int:
    """Ceiling n-th root of v, for n >= 2, by Newton from x.

    From any x at or above s, the floor of the real root, the step is at
    least s by AM-GM, and below x while x exceeds s; at x = s it is at
    least x.  So the loop stops at s, and the answer is s or s + 1.
    """
    while (y := ((n - 1) * x + v // x ** (n - 1)) // n) < x:
        x = y
    return x if x**n >= v else x + 1


def _root_above(v: int, n: int) -> int:
    """An int x with x**n > v, for n >= 2: Newton's start for v.

    A root under 2 * _DIRECT_HALF bits starts at 2**ceil(bitlen/n).  A
    wider one starts from the root of v's top bits, shifted back up: with
    h half the root's bit count and t = v >> (n * h), any int y at or
    above the floor of t's root has (y + 1)**n >= t + 1, so
    ((y + 1) << h)**n >= (t + 1) << (n * h) > v; _near_root(t, n) is such
    a y, close to it.  From there Newton on v takes a few steps; from the
    power of two, up to twice the root, each step shrinks x by only about
    (n - 1)/n until it is close.
    """
    h = v.bit_length() // (2 * n)
    if h < _DIRECT_HALF:
        return 1 << ((v.bit_length() + n - 1) // n)
    return (_near_root(v >> (n * h), n) + 1) << h


def _near_root(v: int, n: int) -> int:
    """An int at or above the floor of v's real n-th root, and near it, for n >= 2.

    A narrow root is exact, by Newton from the power of two.  A wide one
    is one Newton step from _root_above(v, n): a step lands at or above
    the floor of the root from any start, and roughly squares the start's
    relative error, so each level of top bits doubles the bits that agree.
    """
    x = _root_above(v, n)
    if v.bit_length() // (2 * n) < _DIRECT_HALF:
        return _newton_root(v, n, x)
    return ((n - 1) * x + v // x ** (n - 1)) // n


# Half the root's bits below which Newton starts at a power of two: on
# such small ints more levels of top bits cost more than they save.
_DIRECT_HALF = 12


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m >= 2.

    Returns y in [1, m) with (a * y) % m == 1; raises NotCoprimeError
    when gcd(a % m, m) != 1.
    """
    if m < 2:
        raise ValueError(f"mod_inverse requires m >= 2, got {m}")
    a %= m
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotCoprimeError(f"{a} is not invertible mod {m} (gcd = {gcd(a, m)})") from None


def coprime_to_all(c: int, ms) -> bool:
    """True iff gcd(c, m) == 1 for every m in ms, one gcd per modulus.

    No code in the package calls it (find_moduli tests its candidates
    against the product of the picks); it is kept as a named helper only
    until ROADMAP item 1 drops the benchmark metric that wraps it.
    """
    return all(gcd(c, m) == 1 for m in ms)


def parse_decimal(text: str) -> int | None:
    """The int spelled by an optional '-' and ASCII digits 0-9, else None.

    '+', whitespace, '_', non-ASCII digits and text past int()'s digit
    limit all give None.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None
