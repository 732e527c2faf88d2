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

    Requires v >= 1 and n >= 1.  Exact integer Newton iteration from above,
    starting at 2**ceil(bitlen/n) > v**(1/n), or at `start` when that is
    smaller.  A caller that knows an upper bound on the root passes it as
    `start`: an int >= 1 with start**n >= v, else ValueError.
    """
    if v < 1:
        raise ValueError(f"ceil_nth_root requires v >= 1, got {v}")
    if n < 1:
        raise ValueError(f"ceil_nth_root requires n >= 1, got {n}")
    e = (v.bit_length() + n - 1) // n
    x, p = 1 << e, 1 << (e * (n - 1))
    if start is not None:
        if start < 1 or (q := start ** (n - 1)) * start < v:
            raise ValueError(f"ceil_nth_root start must be >= 1 with start**n >= v, got {start}")
        if start < x:
            x, p = start, q
    if n == 1:
        return v
    # From any x at or above s, the floor of the real root, the step is at
    # least s by AM-GM, and below x while x exceeds s; at x = s it is at
    # least x.  So the loop stops at s, and the answer is s or s + 1.  Each
    # step takes one power, p = x**(n - 1), and p * x tests start and s.
    while (y := ((n - 1) * x + v // p) // n) < x:
        x, p = y, y ** (n - 1)
    return x if p * x >= v else x + 1


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
