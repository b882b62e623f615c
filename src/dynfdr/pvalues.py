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
    "PValueSample",
    "EmpiricalProcesses",
    "sort_pvalues",
]


class MissingTruthLabels(ValueError):
    """Raised when an operation needs null/alternative labels the sample lacks."""


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_pvalue_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("p-value sample must be a nonempty 1-d sequence")
    bad = np.flatnonzero(~((arr >= 0.0) & (arr <= 1.0)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"p-value at index {i} is {arr[i]!r}, outside [0, 1]")
    return _read_only(arr.copy())


def _check_threshold(t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"threshold t={t} outside [0, 1]")
    return t


@dataclass(frozen=True)
class PValueSample:
    """The m observed p-values, optionally labelled with ground truth.

    ``truth[i]`` is True when hypothesis i is a true null (uniform p-value)
    and False when it is a false null.  Labels exist only in simulations;
    real data leaves ``truth`` as None.
    """

    values: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_pvalue_array(self.values))
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=bool)
            if truth.shape != self.values.shape:
                raise ValueError(
                    f"truth labels have length {truth.size}, expected {self.values.size}"
                )
            object.__setattr__(self, "truth", _read_only(truth.copy()))

    @property
    def m(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class EmpiricalProcesses:
    """A sorted sample and evaluators for the counting processes R(t) and V(t).

    ``ordered[r]`` is the (r+1)-th order statistic; ``values`` and
    ``truth`` are the sample's values and labels by original index (truth
    None when unlabelled).  R(t) counts all p-values at or below t; V
    counts the true-null subset and is only defined when truth labels are
    present.  Counting is a binary search on the sorted values.  Built by
    ``sort_pvalues``, whose arrays are read-only, so any number of
    concurrent readers is safe.
    """

    ordered: np.ndarray
    values: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.truth is not None:
            object.__setattr__(self, "_null_ordered", _read_only(np.sort(self.values[self.truth])))

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
        return int(np.searchsorted(self._null_ordered, t, side="right"))


def sort_pvalues(sample: PValueSample) -> EmpiricalProcesses:
    """Sort a sample's values; the result keeps the sample's values and labels.

    The zeros come first in input order, so a -0.0 sits where a stable
    sort puts it: it compares equal to 0.0 but prints as ``-0``.
    """
    ordered = np.sort(sample.values)
    if ordered[0] == 0.0:
        zeros = sample.values[sample.values == 0.0]
        ordered[: zeros.size] = zeros
    return EmpiricalProcesses(_read_only(ordered), sample.values, sample.truth)
