"""Property-based tests of the Pareto-front invariants.

The three contracts the multi-objective engine builds on:

* strict Pareto dominance is a strict partial order (irreflexive, asymmetric,
  transitive);
* front insertion is order-independent — the retained set after any insertion
  sequence is exactly the non-dominated subset of everything offered;
* hypervolume against a fixed reference point is monotone under insertion
  (and exact on hand-computable configurations).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pareto import ParetoFront, dominates, non_dominated_mask

FAST = settings(max_examples=25, deadline=None)

# small-integer coordinates make duplicate/dominated configurations common,
# which is where the bookkeeping can go wrong
vectors = st.lists(
    st.lists(st.integers(0, 5), min_size=2, max_size=3),
    min_size=1,
    max_size=12,
).filter(lambda rows: len({len(row) for row in rows}) == 1)


# ---------------------------------------------------------------------------
# dominance is a strict partial order
# ---------------------------------------------------------------------------


@FAST
@given(v=st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_dominance_is_irreflexive(v):
    assert not dominates(v, v)


@FAST
@given(
    a=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    b=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
)
def test_dominance_is_asymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))


@FAST
@given(
    a=st.lists(st.integers(0, 4), min_size=3, max_size=3),
    b=st.lists(st.integers(0, 4), min_size=3, max_size=3),
    c=st.lists(st.integers(0, 4), min_size=3, max_size=3),
)
def test_dominance_is_transitive(a, b, c):
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


def test_dominance_requires_strict_improvement_somewhere():
    assert dominates([1.0, 2.0], [1.0, 3.0])
    assert not dominates([1.0, 3.0], [1.0, 2.0])
    assert not dominates([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        dominates([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# front insertion: order independence
# ---------------------------------------------------------------------------


def _front_value_set(rows):
    front = ParetoFront()
    for row in rows:
        front.insert(row)
    return {tuple(point.values) for point in front}


@FAST
@given(rows=vectors, seed=st.integers(0, 1000))
def test_front_insertion_is_order_independent(rows, seed):
    shuffled = list(rows)
    np.random.default_rng(seed).shuffle(shuffled)
    assert _front_value_set(rows) == _front_value_set(shuffled)


@FAST
@given(rows=vectors)
def test_front_is_the_non_dominated_subset(rows):
    values = np.asarray(rows, dtype=float)
    expected = {tuple(row) for row in values[non_dominated_mask(values)]}
    assert _front_value_set(rows) == expected


@FAST
@given(rows=vectors)
def test_front_points_are_mutually_non_dominated(rows):
    front = ParetoFront()
    for row in rows:
        front.insert(row)
    for a in front:
        for b in front:
            if a is not b:
                assert not dominates(a.values, b.values)


def test_insert_reports_acceptance_and_keeps_payload():
    front = ParetoFront()
    assert front.insert([1.0, 2.0], payload={"tag": "a"})
    assert not front.insert([2.0, 3.0])  # dominated
    assert not front.insert([1.0, 2.0])  # duplicate
    assert front.insert([0.0, 3.0])
    assert front.insert([0.0, 0.0])  # dominates everything
    assert len(front) == 1
    assert front.points[0].payload is None


# ---------------------------------------------------------------------------
# hypervolume: monotonicity and exactness
# ---------------------------------------------------------------------------


@FAST
@given(rows=vectors)
def test_hypervolume_is_monotone_under_insertion(rows):
    reference = np.full(len(rows[0]), 6.0)
    front = ParetoFront()
    previous = 0.0
    for row in rows:
        front.insert(row)
        current = front.hypervolume(reference)
        assert current >= previous - 1e-12
        previous = current


@FAST
@given(rows=vectors, seed=st.integers(0, 1000))
def test_hypervolume_is_insertion_order_independent(rows, seed):
    reference = np.full(len(rows[0]), 6.0)
    shuffled = list(rows)
    np.random.default_rng(seed).shuffle(shuffled)
    a, b = ParetoFront(), ParetoFront()
    for row in rows:
        a.insert(row)
    for row in shuffled:
        b.insert(row)
    assert a.hypervolume(reference) == pytest.approx(b.hypervolume(reference))


def test_hypervolume_known_values_2d():
    front = ParetoFront()
    front.insert([1.0, 2.0])
    front.insert([0.5, 3.0])
    # staircase: (4-0.5)*(4-3) + (4-1)*(3-2)
    assert front.hypervolume([4.0, 4.0]) == pytest.approx(6.5)
    # a point outside the reference contributes nothing
    front.insert([0.25, 5.0])
    assert front.hypervolume([4.0, 4.0]) == pytest.approx(6.5)


def test_hypervolume_known_values_3d():
    front = ParetoFront()
    front.insert([0.0, 0.0, 0.0])
    assert front.hypervolume([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    # two overlapping unit-ish boxes: union = 2*2*2 + the extra slab of the
    # second box that the first does not cover
    front = ParetoFront()
    front.insert([0.0, 0.0, 1.0])
    front.insert([1.0, 1.0, 0.0])
    # box1 = 2x2x1 (z in [1,2]) plus box2 = 1x1x2; overlap = 1x1x1
    assert front.hypervolume([2.0, 2.0, 2.0]) == pytest.approx(4.0 + 2.0 - 1.0)


@FAST
@given(rows=vectors)
def test_hypervolume_3d_matches_monte_carlo(rows):
    """The recursive slicer agrees with a brute-force grid count in 3-D."""
    values = np.asarray(rows, dtype=float)
    if values.shape[1] != 3:
        values = np.concatenate([values, np.zeros((len(values), 3 - values.shape[1]))], axis=1)
    reference = np.full(3, 6.0)
    front = ParetoFront()
    for row in values:
        front.insert(row)
    # integer coordinates: count dominated unit cells exactly
    grid = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    dominated = np.zeros(len(grid), dtype=bool)
    for point in front:
        dominated |= np.all(grid >= point.values, axis=1)
    assert front.hypervolume(reference) == pytest.approx(float(dominated.sum()))
