"""Oracles and fixtures shared by more than one test module (not collected)."""

import copy
import pickle

# each way a record can be copied, applied to an object
COPIERS = {
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def bisection_ceil_root(v: int, n: int) -> int:
    """Reference oracle: the binary search ceil_nth_root used before Newton."""
    if n == 1:
        return v
    lo, hi = 1, 1 << ((v.bit_length() + n - 1) // n)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n >= v:
            hi = mid
        else:
            lo = mid + 1
    return lo
