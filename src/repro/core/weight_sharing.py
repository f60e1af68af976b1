"""Shared-weight store used by the Bayesian-optimization candidates.

Training every candidate from scratch would make the search as expensive as
random search; the paper instead shares previously trained weights among all
topologies and only fine-tunes each candidate for a few epochs ("Because we
optimize the skip connections, we can use previously trained weights and share
them among all possible topologies").

Weight transfer works because architectures in the search space differ only in
their skip wiring: most layers keep identical shapes across candidates and can
inherit trained weights verbatim; layers whose input grew or shrank because of
an added/removed concatenation are re-initialised (shape-mismatched keys are
simply skipped).  The store can optionally be refreshed from the best
candidate seen so far, so knowledge accumulates over the search.

Updates can travel as data instead of side effects: a :class:`WeightUpdate`
packages one candidate's trained state so that whoever orchestrates the
evaluation (e.g. :class:`~repro.core.bayes_opt.BayesianOptimizer` merging a
parallel batch in the parent process, or a cache replaying a persisted
snapshot) can apply it to the shared store explicitly.  ``apply`` is
idempotent, so re-applying the same update — a cache hit repeated within one
run, or a sequential evaluation whose update was already applied locally —
never corrupts the store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:
    from repro.nn.module import Module


def _copy_state(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Deep-copy a state dict so the store never aliases live model arrays."""
    return {key: np.array(value, copy=True) for key, value in state.items()}


class WeightStore:
    """Container of shared weights keyed by dotted parameter path.

    Every capture path (constructor, :meth:`update_from_state`,
    :meth:`merge_from_state`) copies the incoming arrays: a store entry must
    be a frozen snapshot, not a view that subsequent in-place training of the
    source model silently mutates.
    """

    def __init__(self, state: Optional[Dict[str, np.ndarray]] = None) -> None:
        self._state: Dict[str, np.ndarray] = _copy_state(state or {})
        self._best_score: Optional[float] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model: Module) -> "WeightStore":
        """Snapshot ``model``'s parameters and buffers into a new store."""
        return cls(model.state_dict())

    def __len__(self) -> int:
        return len(self._state)

    @property
    def is_empty(self) -> bool:
        """Whether the store holds any weights."""
        return not self._state

    def keys(self) -> List[str]:
        """Stored parameter/buffer paths."""
        return list(self._state)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """A deep copy of the stored weights (safe to mutate or persist)."""
        return _copy_state(self._state)

    # ------------------------------------------------------------------
    def apply_to(self, model: Module) -> Dict[str, int]:
        """Load compatible weights into ``model``.

        Returns a small report: how many tensors were transferred and how many
        were skipped because the target model has no parameter of that name or
        the shapes differ (e.g. a convolution whose input grew through a new
        DSC connection).
        """
        if self.is_empty:
            return {"loaded": 0, "skipped": 0}
        unapplied = model.load_state_dict(self._state, strict=False)
        return {"loaded": len(self._state) - len(unapplied), "skipped": len(unapplied)}

    def update_from_state(
        self, state: Dict[str, np.ndarray], score: Optional[float] = None, only_if_better: bool = False
    ) -> bool:
        """Refresh the store from a raw state dict (arrays are copied).

        With ``only_if_better=True`` the update only happens when ``score``
        (higher is better, e.g. validation accuracy) beats the best score seen
        so far; returns whether the store was updated.
        """
        if only_if_better and score is not None and self._best_score is not None and score <= self._best_score:
            return False
        self._state = _copy_state(state)
        if score is not None:
            self._best_score = score if self._best_score is None else max(self._best_score, score)
        return True

    def update_from(self, model: Module, score: Optional[float] = None, only_if_better: bool = False) -> bool:
        """Refresh the store from ``model`` (see :meth:`update_from_state`)."""
        return self.update_from_state(model.state_dict(), score=score, only_if_better=only_if_better)

    def merge_from_state(self, state: Dict[str, np.ndarray]) -> int:
        """Add any tensors from ``state`` whose path is not yet in the store.

        Existing entries are kept (they may come from a better candidate);
        returns the number of newly added tensors.  This lets the store
        accumulate weights for layer shapes that only exist in some candidates
        (e.g. the enlarged convolutions of heavily concatenated blocks).
        """
        added = 0
        for key, value in state.items():
            if key not in self._state:
                self._state[key] = np.array(value, copy=True)
                added += 1
        return added

    def merge_from(self, model: Module) -> int:
        """Add ``model``'s tensors missing from the store (see :meth:`merge_from_state`)."""
        return self.merge_from_state(model.state_dict())

    def get(self, key: str) -> Optional[np.ndarray]:
        """Return the stored tensor at ``key`` (or ``None``)."""
        return self._state.get(key)


@dataclass
class WeightUpdate:
    """One candidate's trained state, carried by its evaluation result.

    Instead of mutating a :class:`WeightStore` from inside the objective —
    which is lost when the objective runs in a ``multiprocessing`` child, and
    never happens at all when a cache answers from disk — the trained state
    travels back to the orchestrator as data.  ``apply`` reproduces the
    classic side effect: refresh the store when the score beats the best seen
    (``only_if_better``) and merge any missing tensors.

    ``snapshot`` is filled in once the update has been persisted to a
    :class:`~repro.core.snapshots.WeightSnapshotStore`, so cached evaluation
    rows can reference it.
    """

    state: Dict[str, np.ndarray]
    score: Optional[float] = None
    snapshot: Optional[str] = None

    def apply(self, store: WeightStore) -> bool:
        """Merge this update into ``store``; idempotent. Returns whether the
        store's primary state was refreshed (vs. only merged)."""
        updated = store.update_from_state(self.state, score=self.score, only_if_better=True)
        store.merge_from_state(self.state)
        return updated
