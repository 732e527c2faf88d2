"""Reference loops: fixed work of the same kind as a workload's hot path,
independent of rnskit.

run.py times one between requests to measure how fast the shared machine
runs at that moment. A loop of another kind tracks badly: under
contention 8192-bit arithmetic slows about 0.75 times as much as
interpreter dispatch does. This module imports nothing, so
``setup_once.py`` can time a loop in a fresh process before ``import
rnskit`` without loading anything rnskit would otherwise pay for.
"""

_REFERENCE_MOD = (1 << 2048) + 981
_WIDE_MODULI = tuple((1 << 128) + 2 * k + 1 for k in range(64))
_WIDE_X = 3 ** 5168
_WIDE_M = (1 << 8192) - 1


def interpreter_reference() -> int:
    """Interpreter dispatch on small integers, with some 2048-bit arithmetic."""
    acc, big = 0, (1 << 2047) - 1
    for i in range(1, 701):
        acc = (acc + sum(tuple(i * j % 251 for j in range(6)))) % 65521
        big = big * i % _REFERENCE_MOD
    return acc ^ (big & 0xFFFF)


def wide_reference() -> int:
    """8192-bit reductions and multiply-accumulates over 64 moduli of 129 bits."""
    acc = 0
    for _ in range(3):
        for m in _WIDE_MODULI:
            acc += (_WIDE_X % m) * _WIDE_X
    return acc % _WIDE_M
