"""Residue number system toolkit.

Bit-efficient moduli-set generation around an even pivot, forward/reverse
conversion with carry-free channel arithmetic, and a microprogrammed
simulator of a reconfigurable residue datapath, plus a CLI that
regenerates the reference comparison tables.

The package root re-exports each module's ``__all__``; those lists are
the one declaration of the public API.
"""

from . import datapath, moduli, numbers, rns, tables
from .numbers import *  # noqa: F401,F403
from .moduli import *  # noqa: F401,F403
from .rns import *  # noqa: F401,F403
from .datapath import *  # noqa: F401,F403
from .tables import *  # noqa: F401,F403

__all__ = [*numbers.__all__, *moduli.__all__, *rns.__all__, *datapath.__all__, *tables.__all__]

__version__ = "0.1.0"
