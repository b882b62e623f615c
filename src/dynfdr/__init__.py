"""Dynamic adaptive false discovery rate procedures.

Step-up multiple-testing procedures whose tuning parameter is selected
from the data by forward stopping rules, plus the Monte Carlo harness
and the empirical theory checks that back them up.

The package re-exports the public names of the procedures library
(``estimators``, ``procedures``, ``pvalues``, ``selection``); the
harnesses are reached as ``dynfdr.simulate`` and ``dynfdr.verify``.
Each module's ``__all__`` is the one list of what it makes public.
"""

from . import estimators, procedures, pvalues, selection
from .estimators import *  # noqa: F401,F403
from .procedures import *  # noqa: F401,F403
from .pvalues import *  # noqa: F401,F403
from .selection import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *estimators.__all__,
    *procedures.__all__,
    *pvalues.__all__,
    *selection.__all__,
]
