"""Pareto-front bookkeeping for multi-objective search.

The paper's central observation is a *trade-off*: DSC skip connections lower
firing rates but inflate MAC counts, ASC keeps MACs flat but raises firing
rates.  A single scalar objective collapses that trade-off; this module keeps
it explicit.  All objective vectors are **minimisation** vectors (callers flip
the sign of maximised quantities such as accuracy before inserting), matching
the convention of the optimizers in :mod:`repro.core.bayes_opt`.

Three pieces:

* :func:`dominates` — strict Pareto dominance (no worse everywhere, strictly
  better somewhere), the partial order every other definition builds on;
* :class:`ParetoFront` — incremental non-dominated insertion: the retained
  set after any insertion sequence is exactly the non-dominated subset of all
  inserted vectors, independent of insertion order (a dominated insert is
  rejected, a dominating insert evicts the incumbents it dominates);
* hypervolume: :meth:`ParetoFront.hypervolume` measures the region
  dominated by the front up to a fixed reference point (the standard
  strictly-monotone quality indicator — adding a non-dominated point never
  decreases it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether minimisation vector ``a`` strictly Pareto-dominates ``b``.

    ``a`` dominates ``b`` iff it is no worse in every objective and strictly
    better in at least one.  This is a strict partial order: irreflexive
    (equal vectors do not dominate each other), asymmetric and transitive —
    invariants pinned by the property-based tests.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"objective vectors disagree on shape: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


def non_dominated_mask(values: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of ``values`` (n, d).

    Duplicate rows are all marked non-dominated (none strictly dominates the
    other); pairwise O(n^2), which is fine at front sizes.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dominated = np.all(values <= values[i], axis=1) & np.any(values < values[i], axis=1)
        if np.any(dominated & mask):
            mask[i] = False
    return mask


@dataclass
class ParetoPoint:
    """One non-dominated point: the minimisation vector plus caller payload."""

    values: np.ndarray
    payload: Optional[Dict] = None

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        values.flags.writeable = False
        self.values = values


@dataclass
class ParetoFront:
    """Incrementally maintained set of mutually non-dominated points."""

    points: List[ParetoPoint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def num_objectives(self) -> Optional[int]:
        """Dimensionality of the stored vectors (None while empty)."""
        return len(self.points[0].values) if self.points else None

    def values_array(self) -> np.ndarray:
        """All front vectors as an (n, d) array (empty (0, 0) when empty)."""
        if not self.points:
            return np.zeros((0, 0))
        return np.stack([point.values for point in self.points])

    # ------------------------------------------------------------------
    def insert(self, values: Sequence[float], payload: Optional[Dict] = None) -> bool:
        """Offer one minimisation vector; returns whether it joined the front.

        Rejected when an incumbent dominates or equals it; accepted otherwise,
        evicting every incumbent it dominates.  The retained *set of vectors*
        after any insertion sequence is therefore the non-dominated subset of
        everything offered, whatever the order.
        """
        candidate = np.asarray(values, dtype=np.float64).reshape(-1)
        if self.points and len(candidate) != len(self.points[0].values):
            raise ValueError(
                f"vector has {len(candidate)} objectives, front holds {len(self.points[0].values)}"
            )
        survivors: List[ParetoPoint] = []
        for point in self.points:
            if dominates(point.values, candidate) or np.array_equal(point.values, candidate):
                return False
            if not dominates(candidate, point.values):
                survivors.append(point)
        survivors.append(ParetoPoint(values=candidate, payload=payload))
        self.points = survivors
        return True

    # ------------------------------------------------------------------
    # hypervolume
    # ------------------------------------------------------------------
    def hypervolume(self, reference: Sequence[float]) -> float:
        """Volume dominated by the front, bounded above by ``reference``.

        ``reference`` must be a (pessimistic) upper bound; points not strictly
        below it in every coordinate contribute nothing (they are clipped
        out), so with a *fixed* reference the indicator is non-decreasing
        under insertion — the property the search loop's per-iteration
        hypervolume trace relies on.
        """
        reference = np.asarray(reference, dtype=np.float64).reshape(-1)
        values = self.values_array()
        if values.size == 0:
            return 0.0
        if values.shape[1] != len(reference):
            raise ValueError(
                f"reference has {len(reference)} objectives, front holds {values.shape[1]}"
            )
        inside = values[np.all(values < reference, axis=1)]
        return _hypervolume(inside, reference)


def _hypervolume(values: np.ndarray, reference: np.ndarray) -> float:
    """Exact hypervolume of minimisation ``values`` all strictly below ``reference``.

    Dimension-recursive slicing: 1-D and 2-D are closed-form sweeps; for
    d >= 3 the volume is integrated along the last objective — between two
    consecutive observed coordinates the dominated (d-1)-dimensional
    cross-section is constant, so the volume is a sum of slab heights times
    recursively computed cross-sections.  O(n^2) per dimension shaved off,
    which is comfortably fast at search-front sizes.
    """
    if values.shape[0] == 0:
        return 0.0
    values = values[non_dominated_mask(values)]
    d = values.shape[1]
    if d == 1:
        return float(reference[0] - values[:, 0].min())
    if d == 2:
        # after non-dominated filtering, ascending first objective implies
        # strictly descending second — one sweep accumulates the staircase
        order = np.argsort(values[:, 0], kind="stable")
        total = 0.0
        upper = float(reference[1])
        for x, y in values[order]:
            total += (reference[0] - x) * (upper - y)
            upper = float(y)
        return float(total)
    total = 0.0
    order = np.argsort(values[:, -1], kind="stable")
    sorted_values = values[order]
    cuts = [float(v) for v in sorted_values[:, -1]] + [float(reference[-1])]
    for i in range(len(sorted_values)):
        height = cuts[i + 1] - cuts[i]
        if height <= 0:
            continue
        slab = sorted_values[: i + 1, :-1]
        total += height * _hypervolume(slab, reference[:-1])
    return float(total)
