"""Multi-objective Bayesian optimization: accuracy–energy–latency Pareto search.

The single-objective engine (:class:`~repro.core.bayes_opt.BayesianOptimizer`)
optimises validation accuracy alone, yet the paper's analysis is inherently
multi-objective: DSC skip connections lower firing rates but inflate MAC
counts, ASC keeps MACs flat but raises firing rates.  This module turns the
existing BO stack into a hardware-aware optimizer:

* :class:`ObjectiveSpec` names one objective and where to read it from an
  evaluation's per-objective ``metrics`` dict (``val_accuracy`` from the
  trainer path, ``energy_nj``/``macs`` from the MAC/energy model of
  :mod:`repro.snn.mac`, ``latency_steps`` from the simulation window).  All
  internal vectors are **minimisation** vectors; maximised metrics are
  sign-flipped by their spec.
* :class:`MultiObjectiveBayesianOptimizer` fits **one GP per objective**
  from the whole history at every proposal, as the scalar engine does, and
  proposes candidates by **random scalarization**: per proposal a fresh
  Chebyshev weight vector is drawn (ParEGO-style, augmented with a small
  weighted-sum term) and the scalarised posterior is scored by the
  *existing* acquisition functions (UCB/EI/PI).  Resampling the weights
  every proposal sweeps the whole front instead of converging to one
  compromise point.
* Hard constraints (:class:`ObjectiveConstraint`, e.g. ``energy <= budget``)
  weight the acquisition by the posterior probability of feasibility
  (:func:`~repro.gp.acquisition.probability_in_bounds`), so the search spends
  its budget inside the feasible region without discarding the information
  infeasible evaluations carry.
* Every evaluation is inserted into a :class:`~repro.core.pareto.ParetoFront`;
  :attr:`~MultiObjectiveBayesianOptimizer.hypervolume_history` traces the
  hypervolume indicator against a reference point fixed after the warm-start
  evaluations, so front quality per evaluation is a tracked number.

The evaluation path is the scalar engine's: the search runs on the one loop
of :func:`~repro.core.async_eval.run_search`, barrier or asynchronous, and
any objective producing ``EvaluationResult.metrics`` works, including
:class:`~repro.core.cache.CachedObjective` (rows persist the metrics dict, so
cache hits replay *all* objectives).  The loop absorbs results in
**submission order**, so the proposal sequence is a pure function of the
seed and worker count; that is what lets a fully-cached re-run reproduce an
identical front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.bayes_opt import BayesianOptimizer, OptimizationRecord
from repro.core.pareto import ParetoFront
from repro.core.search_space import ArchitectureSpec
from repro.gp.acquisition import feasibility_weighted, probability_in_bounds
from repro.gp.gp import GaussianProcessRegressor
from repro.trace import span


@dataclass(frozen=True)
class ObjectiveSpec:
    """One search objective: a named view onto the per-objective metrics dict.

    ``metric`` is the key read from ``EvaluationResult.metrics`` /
    ``OptimizationRecord.metrics``; ``direction`` declares whether the raw
    metric is minimised or maximised.  :meth:`value` returns the
    *minimisation* view (maximised metrics are negated), which is the scale
    every GP, scalarization and Pareto vector in this module uses.
    """

    name: str
    metric: str
    direction: str = "min"

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ValueError(f"direction must be 'min' or 'max', got {self.direction!r}")

    @property
    def sign(self) -> float:
        """+1 for minimised metrics, -1 for maximised ones."""
        return -1.0 if self.direction == "max" else 1.0

    def raw(self, metrics: Dict[str, float]) -> float:
        """The metric on its natural scale; raises if the evaluation lacks it."""
        if self.metric not in metrics:
            raise KeyError(
                f"objective {self.name!r} needs metric {self.metric!r}, but the evaluation "
                f"only recorded {sorted(metrics) or 'no metrics'} — enable the measurement "
                f"on the objective (e.g. measure_energy=True for energy/macs/latency)"
            )
        return float(metrics[self.metric])

    def value(self, metrics: Dict[str, float]) -> float:
        """Minimisation-scale value (sign-flipped for maximised metrics)."""
        return self.sign * self.raw(metrics)


#: built-in objectives, keyed by the names the CLI accepts.  ``latency`` is
#: the **measured** inference latency — the median of repeated timed forward
#: passes on the graph-free fast path (``latency_ms``, recorded by
#: ``AccuracyDropObjective(measure_latency=True)``) — while ``latency_steps``
#: keeps the old simulation-window step count as a cheap structural proxy.
BUILTIN_OBJECTIVES: Dict[str, ObjectiveSpec] = {
    "accuracy": ObjectiveSpec("accuracy", metric="val_accuracy", direction="max"),
    "firing_rate": ObjectiveSpec("firing_rate", metric="firing_rate", direction="min"),
    "energy": ObjectiveSpec("energy", metric="energy_nj", direction="min"),
    "macs": ObjectiveSpec("macs", metric="macs", direction="min"),
    "latency": ObjectiveSpec("latency", metric="latency_ms", direction="min"),
    "latency_steps": ObjectiveSpec("latency_steps", metric="latency_steps", direction="min"),
}


def get_objective_spec(name_or_spec: Union[str, ObjectiveSpec]) -> ObjectiveSpec:
    """Resolve an objective by registry name, or pass an explicit spec through."""
    if isinstance(name_or_spec, ObjectiveSpec):
        return name_or_spec
    key = str(name_or_spec).strip().lower().replace("-", "_")
    if key not in BUILTIN_OBJECTIVES:
        raise KeyError(f"unknown objective {name_or_spec!r}; available: {sorted(BUILTIN_OBJECTIVES)}")
    return BUILTIN_OBJECTIVES[key]


def resolve_objective_specs(objectives: Sequence[Union[str, ObjectiveSpec]]) -> Tuple[ObjectiveSpec, ...]:
    """Resolve a sequence of objective names/specs, rejecting duplicates."""
    specs = tuple(get_objective_spec(obj) for obj in objectives)
    if len(specs) < 2:
        raise ValueError("multi-objective search needs at least two objectives")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate objectives: {names}")
    return specs


@dataclass(frozen=True)
class ObjectiveConstraint:
    """Hard constraint on one objective's **raw** metric scale.

    ``upper``/``lower`` bound the metric on its natural scale (e.g.
    ``ObjectiveConstraint("energy", upper=budget)`` reads "energy_nj must not
    exceed budget").  The constrained objective must be one of the search
    objectives — its GP provides the feasibility posterior.
    """

    objective: str
    upper: Optional[float] = None
    lower: Optional[float] = None

    def __post_init__(self) -> None:
        if self.upper is None and self.lower is None:
            raise ValueError("constraint needs at least one of upper/lower")

    def feasible(self, spec: ObjectiveSpec, metrics: Dict[str, float]) -> bool:
        """Whether an observed evaluation satisfies the constraint."""
        raw = spec.raw(metrics)
        if self.upper is not None and raw > self.upper:
            return False
        if self.lower is not None and raw < self.lower:
            return False
        return True

    def value_bounds(self, spec: ObjectiveSpec) -> Tuple[Optional[float], Optional[float]]:
        """The (lower, upper) bounds on the *minimisation* scale the GP models."""
        if spec.direction == "min":
            return self.lower, self.upper
        lower = -self.upper if self.upper is not None else None
        upper = -self.lower if self.lower is not None else None
        return lower, upper


class MultiObjectiveBayesianOptimizer(BayesianOptimizer):
    """Pareto search over the skip-connection space via random scalarization.

    Parameters (on top of :class:`~repro.core.bayes_opt.BayesianOptimizer`,
    whose search loop, deferred weight updates and persistent candidate pool
    are inherited unchanged):

    objectives:
        Objective names or :class:`ObjectiveSpec` instances (>= 2).  Each gets
        its own GP over the architecture encoding.
    constraints:
        :class:`ObjectiveConstraint` instances; proposals are weighted by the
        posterior probability of satisfying all of them, and the scalarised
        incumbent fed to the acquisition is the best *feasible* observation
        (falling back to the unconstrained best while nothing is feasible).
    reference_point:
        Optional hypervolume reference on the **minimisation** scale (note
        maximised metrics are negated, so an accuracy reference of e.g. 0.2
        is written as -0.2).  When omitted, the reference is derived once
        from the warm-start observations — nadir plus ``reference_margin``
        of the observed range per objective — and then held fixed, so the
        recorded hypervolume trace is non-decreasing by construction.
    scalarization_rho:
        Weight of the linear term in the augmented Chebyshev scalarization
        ``max_j(w_j z_j) + rho * sum_j(w_j z_j)`` (ParEGO's rho).

    The history's scalar ``objective_value`` is the first objective's
    minimisation value, so :meth:`history.best`, incumbent curves and every
    other single-objective consumer keep working; the real output is
    :attr:`front` and :attr:`hypervolume_history`.
    """

    def __init__(
        self,
        search_space,
        objective,
        objectives: Sequence[Union[str, ObjectiveSpec]] = ("accuracy", "energy"),
        constraints: Sequence[ObjectiveConstraint] = (),
        reference_point: Optional[Sequence[float]] = None,
        reference_margin: float = 0.1,
        scalarization_rho: float = 0.05,
        **kwargs,
    ) -> None:
        super().__init__(search_space, objective, **kwargs)
        self.objectives = resolve_objective_specs(objectives)
        self.constraints = tuple(constraints)
        self._objectives_by_name = {spec.name: spec for spec in self.objectives}
        for constraint in self.constraints:
            if constraint.objective not in self._objectives_by_name:
                raise ValueError(
                    f"constraint targets {constraint.objective!r}, which is not among the "
                    f"search objectives {sorted(self._objectives_by_name)}"
                )
        if reference_margin <= 0:
            raise ValueError("reference_margin must be positive")
        if scalarization_rho < 0:
            raise ValueError("scalarization_rho must be non-negative")
        self.reference_margin = float(reference_margin)
        self.scalarization_rho = float(scalarization_rho)
        self.front = ParetoFront()
        self.reference_point: Optional[np.ndarray] = (
            np.asarray(reference_point, dtype=np.float64).reshape(-1)
            if reference_point is not None
            else None
        )
        if self.reference_point is not None and len(self.reference_point) != len(self.objectives):
            raise ValueError(
                f"reference point has {len(self.reference_point)} entries for "
                f"{len(self.objectives)} objectives"
            )
        self._reference_fixed = reference_point is not None
        #: hypervolume after each observation made once the reference existed
        self.hypervolume_history: List[float] = []
        #: per-objective minimisation values of every observed record, aligned
        #: with the history; grown in :meth:`_on_record`
        self._observed: List[np.ndarray] = []
        self._observed_feasible: List[bool] = []

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def _reset_incremental_state(self) -> None:
        super()._reset_incremental_state()
        self._rebuild_observations()

    def _rebuild_observations(self) -> None:
        """Re-derive every observation-dependent structure from the history.

        The front, the feasibility flags, a derived reference point and the
        hypervolume trace are all pure functions of the record sequence, so
        a history swapped in from outside (the in-API pattern the base
        class's guard detects) replays cleanly instead of desyncing.
        """
        self._observed = []
        self._observed_feasible = []
        self.front = ParetoFront()
        if not self._reference_fixed:
            self.reference_point = None
        self.hypervolume_history = []
        for record in self.history.records:
            self._on_record(record)

    def record_values(self, record: OptimizationRecord) -> np.ndarray:
        """The record's minimisation vector over this search's objectives."""
        return np.array([spec.value(record.metrics) for spec in self.objectives])

    def _record_feasible(self, record: OptimizationRecord) -> bool:
        return all(
            constraint.feasible(self._objectives_by_name[constraint.objective], record.metrics)
            for constraint in self.constraints
        )

    def _on_record(self, record: OptimizationRecord) -> None:
        values = self.record_values(record)
        self._observed.append(values)
        self._observed_feasible.append(self._record_feasible(record))
        self.front.insert(values, payload={"record": record})
        if self.reference_point is None and len(self._observed) >= self.initial_points:
            self.reference_point = self._derive_reference()
        if self.reference_point is not None:
            self.hypervolume_history.append(self.front.hypervolume(self.reference_point))

    def _derive_reference(self) -> np.ndarray:
        observed = np.stack(self._observed)
        nadir = observed.max(axis=0)
        spread = observed.max(axis=0) - observed.min(axis=0)
        margin = self.reference_margin * np.where(spread > 0, spread, np.maximum(np.abs(nadir), 1.0))
        return nadir + margin

    def hypervolume(self) -> float:
        """Current front hypervolume (0 until the reference point exists)."""
        if self.reference_point is None:
            return 0.0
        return self.front.hypervolume(self.reference_point)

    # ------------------------------------------------------------------
    # surrogates: one GP per objective
    # ------------------------------------------------------------------
    def _fit_surrogate(self) -> Dict[str, GaussianProcessRegressor]:
        """One GP per objective, each fitted to the whole history.

        ``hyperopt_every`` is honoured here too: the shared kernel is re-tuned
        against the first objective's values (the scalar the history records
        as ``objective_value``) before the GPs are fitted.
        """
        self._guard_incremental_state()
        self._maybe_adapt_hyperparameters()
        if len(self._observed) != len(self.history):
            # records appended to the history from outside never passed
            # through _on_record; replay them before they train the GPs
            self._rebuild_observations()
        encodings = np.array([record.spec.encode() for record in self.history], dtype=np.float64)
        models: Dict[str, GaussianProcessRegressor] = {}
        for spec in self.objectives:
            values = np.array([spec.value(record.metrics) for record in self.history])
            models[spec.name] = GaussianProcessRegressor(kernel=self.kernel, noise=self.noise).fit(encodings, values)
        return models

    # ------------------------------------------------------------------
    # random-scalarization proposals
    # ------------------------------------------------------------------
    def _draw_weights(self) -> np.ndarray:
        """One Chebyshev weight vector, uniform on the simplex (Dirichlet(1))."""
        return self._rng.dirichlet(np.ones(len(self.objectives)))

    def _scalarize(self, z: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Augmented Chebyshev scalarization of normalised rows ``z`` (n, k)."""
        weighted = z * weights
        return weighted.max(axis=1) + self.scalarization_rho * weighted.sum(axis=1)

    def _best_scalarized(
        self, observed_z: np.ndarray, weights: np.ndarray
    ) -> float:
        """Best observed scalarised value — feasible observations first."""
        scalarized = self._scalarize(observed_z, weights)
        feasible = np.asarray(self._observed_feasible, dtype=bool)
        if self.constraints and np.any(feasible):
            return float(scalarized[feasible].min())
        return float(scalarized.min())

    def _feasibility_probability(self, models, matrix: np.ndarray) -> Optional[np.ndarray]:
        """Posterior probability that each pool candidate satisfies all constraints."""
        if not self.constraints:
            return None
        probability = np.ones(matrix.shape[0])
        for constraint in self.constraints:
            spec = self._objectives_by_name[constraint.objective]
            mean, std = models[spec.name].predict(matrix)
            lower, upper = constraint.value_bounds(spec)
            probability = probability * probability_in_bounds(mean, std, lower=lower, upper=upper)
        return probability

    def _propose_one(self, models, iteration: int) -> ArchitectureSpec:
        """Score the pool under a freshly drawn scalarization and pop the winner."""
        weights = self._draw_weights()
        observed = np.stack(self._observed)
        ideal = observed.min(axis=0)
        spread = observed.max(axis=0) - ideal
        spread = np.where(spread > 0, spread, 1.0)
        matrix = self._pool_matrix
        means = np.empty((matrix.shape[0], len(self.objectives)))
        stds = np.empty_like(means)
        for j, spec in enumerate(self.objectives):
            means[:, j], stds[:, j] = models[spec.name].predict(matrix)
        z_mean = (means - ideal) / spread
        mean_s = self._scalarize(z_mean, weights)
        # heuristic scalarised uncertainty: weight-combined per-objective
        # standard deviations on the normalised scale (exact for the linear
        # term; conservative for the max term)
        std_s = np.sqrt((((stds / spread) * weights) ** 2).sum(axis=1))
        best = self._best_scalarized((observed - ideal) / spread, weights)
        scores = self.acquisition(mean_s, std_s, best_observed=best, iteration=iteration)
        probability = self._feasibility_probability(models, matrix)
        if probability is not None:
            scores = feasibility_weighted(scores, probability)
        return self._pool_pop(int(np.argmax(scores)))

    def _propose_batch(self, surrogate, iteration: int) -> List[ArchitectureSpec]:
        """A batch of proposals, each under its own random scalarization.

        Weight resampling per pick replaces the scalar engine's constant-liar
        fantasies: distinct Chebyshev weights aim each proposal at a
        different region of the front, which keeps a batch diverse without
        conditioning the per-objective posteriors on lies.
        """
        with span("propose", iteration=iteration) as propose_span:
            self._refresh_pool()
            proposals: List[ArchitectureSpec] = []
            for _ in range(self.batch_size):
                if not self._pool_specs:
                    break
                proposals.append(self._propose_one(surrogate, iteration))
            if propose_span:
                propose_span.set(proposals=len(proposals))
            return proposals

    def _propose_async(self, in_flight_specs, iteration: int) -> Optional[ArchitectureSpec]:
        with span("propose", iteration=iteration) as propose_span:
            models = self._fit_surrogate()
            pending = {spec.encode().tobytes() for spec in in_flight_specs}
            self._refresh_pool(exclude_extra=pending)
            if not self._pool_specs:
                return None
            if propose_span:
                propose_span.set(in_flight=len(pending), pool=len(self._pool_specs))
            return self._propose_one(models, iteration)

    # ------------------------------------------------------------------
    def front_records(self) -> List[OptimizationRecord]:
        """The history records behind the current front, by first objective."""
        records = [point.payload["record"] for point in self.front]
        return sorted(records, key=lambda record: self.record_values(record)[0])
