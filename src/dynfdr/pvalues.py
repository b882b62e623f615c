"""P-value samples and the empirical counting processes built from them.

Everything downstream (estimation, selection, thresholding) consumes a
sample only through R(t) = #{p_i <= t}.  Ground-truth labels, which only
a simulation has, give V(t), the count of true nulls among them; no
procedure reads them.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

__all__ = [
    "EmpiricalProcesses",
    "sort_pvalues",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def check_integer(name: str, value, low: int) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is a Python or numpy integer (a bool is not) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}={value!r} is not an integer")
    if value < low:
        raise ValueError(f"{name}={value} must be >= {low}")
    return int(value)


def check_number(name: str, value, within: str | None = None) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a real number (a bool or a str is not)
    inside ``within``, an interval as the error prints it: ``"(0, 1]"``, ``"(0, inf)"``, ...; nan is inside none."""
    # a float (np.float64 included) passes first: the ABC isinstance costs ~0.5 us, on the per-replication path
    if not isinstance(value, float) and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name}={value!r} is not a number")
    value = float(value)
    if within is not None:
        low, high, low_closed, high_closed = _interval(within)
        if not ((low < value or low_closed and value == low) and (value < high or high_closed and value == high)):
            raise ValueError(f"{name}={value} outside {within}")
    return value


@lru_cache(maxsize=None)
def _interval(within: str) -> tuple[float, float, bool, bool]:
    """``within`` as (low end, high end, whether low is inside, whether high is inside)."""
    low, high = (float(end) for end in within[1:-1].split(","))
    return low, high, within[0] == "[", within[-1] == "]"


@dataclass(frozen=True)
class EmpiricalProcesses:
    """The m observed p-values, sorted, and the counting processes R(t) and V(t).

    ``ordered[r]`` is the (r+1)-th order statistic; ``values`` and
    ``truth`` are the p-values and labels by original index.  ``truth[i]``
    is True when hypothesis i is a true null (uniform p-value) and False
    when it is a false null; labels exist only in simulations, so real
    data leaves ``truth`` None.  R(t) counts all p-values at or below t
    by binary search on the sorted values; V(t) counts the true-null
    subset and needs truth labels, which no procedure reads (``orc``
    takes its pi0 from the caller).  Built by ``sort_pvalues``, whose
    arrays are read-only, so any number of concurrent readers is safe.
    """

    ordered: np.ndarray
    values: np.ndarray
    truth: np.ndarray | None = None

    @property
    def m(self) -> int:
        return int(self.ordered.size)

    def count_R(self, t: float) -> int:
        """#{p_i <= t}."""
        t = check_number("threshold t", t, "[0, 1]")
        return int(self.ordered.searchsorted(t, side="right"))

    def count_V(self, t: float) -> int:
        """#{true-null p_i <= t}; requires truth labels."""
        t = check_number("threshold t", t, "[0, 1]")
        if self.truth is None:
            raise ValueError("V(t) needs truth labels, sample has none")
        return int(np.count_nonzero(self.values[self.truth] <= t))


def sort_pvalues(
    values: Sequence[float] | np.ndarray, truth: Sequence[bool] | np.ndarray | None = None
) -> EmpiricalProcesses:
    """Check, copy and sort p-values and their optional truth labels.

    ``values`` must be a nonempty 1-d sequence in [0, 1] and ``truth``,
    when given, hold one label per value.  The zeros come first in input
    order, so a -0.0 sits where a stable sort puts it: it compares equal
    to 0.0 but prints as ``-0``.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("p-value sample must be a nonempty 1-d sequence")
    ordered = np.sort(values)
    if not (ordered[0] >= 0.0 and ordered[-1] <= 1.0):  # the sorted ends decide it: a nan sorts last
        i = int(((values >= 0.0) & (values <= 1.0)).argmin())
        raise ValueError(f"p-value at index {i} is {float(values[i])!r}, outside [0, 1]")
    if truth is not None:
        truth = np.asarray(truth, dtype=bool)
        if truth.shape != values.shape:
            raise ValueError(f"truth labels have length {truth.size}, expected {values.size}")
        truth = _read_only(truth.copy())
    values = _read_only(values.copy())
    if ordered[0] == 0.0:
        zeros = values[values == 0.0]
        ordered[: zeros.size] = zeros
    return EmpiricalProcesses(_read_only(ordered), values, truth)
