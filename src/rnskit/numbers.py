"""Exact unbounded-integer primitives the rest of the toolkit builds on.

Everything here is pure integer arithmetic.  No floating point anywhere:
float root/log shortcuts misround exactly at the power boundaries
(e.g. 16**4 = 65536 vs 65535) that the moduli generator pivots on.
"""

from __future__ import annotations

from math import gcd, isqrt

__all__ = [
    "ceil_nth_root",
    "mod_inverse",
    "parse_decimal",
    "NotCoprimeError",
]


class NotCoprimeError(ValueError):
    """A modular inverse was requested for non-coprime inputs."""


def ceil_nth_root(v: int, n: int, *, start: int | None = None) -> int:
    """Smallest r with r**n >= v, i.e. the ceiling of the real n-th root.

    Requires ints v >= 1 and n >= 1 (TypeError for a bool or a non-int).
    A first root is v, a square root math.isqrt(v - 1) + 1, and any other an
    exact integer Newton iteration from above that starts at `start` or, if
    lower, the chord bound ceil(2**q * (n + r) / n) > v**(1/n) for a width
    of q*n + r bits, 0 <= r < n (2**u <= 1 + u on [0, 1]).  A caller that
    knows an upper bound on the root passes it as `start`: an int >= 1 with
    start**n >= v, else ValueError (TypeError if not an int), at every n.
    """
    if type(v) is not int or type(n) is not int or v < 1 or n < 1:
        check_int("v", v, 1)
        check_int("n", n, 1)
    if start is not None:
        if type(start) is not int:
            check_int("start", start)
        if start < 1 or (sp := start ** (n - 1)) * start < v:
            raise ValueError(f"ceil_nth_root start must be >= 1 with start**n >= v, got {start}")
    if n < 3:
        return v if n == 1 else isqrt(v - 1) + 1
    q = (width := v.bit_length()) // n
    chord = -(-((n + width % n) << q) // n)
    x, p = (start, sp) if start is not None and start < chord else (chord, chord ** (n - 1))
    # From any x at or above s, the floor of the real root, the step is at least s
    # by AM-GM, and below x while x exceeds s; at x = s it is at least x.  So the
    # loop stops at s, and the answer is s or s + 1.  Each step takes one
    # power, p = x**(n - 1), and p * x tests start and s.
    while (y := ((n - 1) * x + v // p) // n) < x:
        x, p = y, y ** (n - 1)
    return x if p * x >= v else x + 1


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m >= 2; a and m are ints, not bools (TypeError).

    Returns y in [1, m) with (a * y) % m == 1; raises NotCoprimeError
    when gcd(a % m, m) != 1.
    """
    if type(a) is not int or type(m) is not int or m < 2:
        check_int("a", a)
        check_int("m", m, 2)
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


def read_decimal(text: str, what: str) -> int:
    """parse_decimal's int, else ValueError naming what and the text."""
    if (value := parse_decimal(text)) is None:
        raise ValueError(f"bad {what} {text!r}")
    return value


def check_int(label: str, value, least: int | None = None, error: type = ValueError) -> None:
    """TypeError naming label unless value is an int other than a bool; subclasses pass.

    Given least, a value below it then raises error("<label> must be >= <least>,
    got <value>"), the one message every int field's floor gives.
    """
    if type(value) is bool or not isinstance(value, int):
        raise TypeError(f"{label} {value!r} is not an int")
    if least is not None and value < least:
        raise error(f"{label} must be >= {least}, got {value}")
