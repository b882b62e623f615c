"""P-value samples and the empirical counting processes built from them.

Everything downstream (estimation, selection, thresholding) consumes a
sample only through R(t) = #{p_i <= t}; when ground-truth labels are
available, V(t) counts the true nulls among them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MissingTruthLabels",
    "EmpiricalProcesses",
    "sort_pvalues",
]


class MissingTruthLabels(ValueError):
    """Raised when an operation needs null/alternative labels the sample lacks."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_threshold(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold t={t} outside [0, 1]")
    return t


@dataclass(frozen=True)
class EmpiricalProcesses:
    """The m observed p-values, sorted, and the counting processes R(t) and V(t).

    ``ordered[r]`` is the (r+1)-th order statistic; ``values`` and
    ``truth`` are the p-values and labels by original index.  ``truth[i]``
    is True when hypothesis i is a true null (uniform p-value) and False
    when it is a false null; labels exist only in simulations, so real
    data leaves ``truth`` None.  R(t) counts all p-values at or below t
    by binary search on the sorted values; V(t) counts the true-null
    subset and needs truth labels.  Built by ``sort_pvalues``, whose
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
        t = _check_threshold(t)
        return int(np.searchsorted(self.ordered, t, side="right"))

    def count_V(self, t: float) -> int:
        """#{true-null p_i <= t}; requires truth labels."""
        t = _check_threshold(t)
        if self.truth is None:
            raise MissingTruthLabels("V(t) needs truth labels, sample has none")
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
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"p-value at index {i} is {values[i]!r}, outside [0, 1]")
    if truth is not None:
        truth = np.asarray(truth, dtype=bool)
        if truth.shape != values.shape:
            raise ValueError(f"truth labels have length {truth.size}, expected {values.size}")
        truth = _read_only(truth.copy())
    values = _read_only(values.copy())
    ordered = np.sort(values)
    if ordered[0] == 0.0:
        zeros = values[values == 0.0]
        ordered[: zeros.size] = zeros
    return EmpiricalProcesses(_read_only(ordered), values, truth)
