"""Property-based tests (hypothesis) of core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.adjacency import ASC, DSC, NO_CONNECTION, BlockAdjacency
from repro.core.search_space import ArchitectureSpec, BlockSearchInfo, SearchSpace
from repro.gp.kernels import HammingKernel, Matern52Kernel, RBFKernel
from repro.snn.mac import estimate_block_macs, estimate_energy
from repro.snn.surrogate import ATanSurrogate, FastSigmoidSurrogate, TriangularSurrogate
from repro.tensor import Tensor, ops
from repro.tensor.tensor import _unbroadcast

# keep hypothesis fast and deterministic for CI
FAST = settings(max_examples=25, deadline=None)


# ---------------------------------------------------------------------------
# adjacency / search space invariants
# ---------------------------------------------------------------------------

depths = st.integers(min_value=1, max_value=6)
codes = st.sampled_from([NO_CONNECTION, DSC, ASC])


@FAST
@given(depth=depths, data=st.data())
def test_adjacency_encode_decode_roundtrip(depth, data):
    positions = BlockAdjacency(depth).skip_positions()
    encoding = data.draw(st.lists(codes, min_size=len(positions), max_size=len(positions)))
    block = BlockAdjacency.from_encoding(depth, encoding)
    assert block.encode().tolist() == list(encoding)
    assert BlockAdjacency.from_encoding(depth, block.encode()) == block


@FAST
@given(depth=depths, seed=st.integers(0, 10_000), density=st.floats(0.0, 1.0))
def test_random_adjacency_always_valid_and_acyclic(depth, seed, density):
    block = BlockAdjacency.random(depth, rng=seed, density=density)
    block.validate()  # never raises
    # strictly above the first superdiagonal: skips only go forward, so acyclic
    rows, cols = np.nonzero(block.matrix)
    assert np.all(cols > rows + 1)
    assert 0 <= block.total_skips() <= block.max_skips()


@FAST
@given(depth=depths, n_skip=st.integers(0, 10), code=st.sampled_from([DSC, ASC]))
def test_final_layer_skips_clamped(depth, n_skip, code):
    block = BlockAdjacency.with_final_layer_skips(depth, n_skip, code)
    skips = block.num_skips_per_layer()
    assert skips[-1] == min(n_skip, max(depth - 1, 0))
    assert sum(skips[:-1]) == 0


@FAST
@given(depths_list=st.lists(depths, min_size=1, max_size=3), seed=st.integers(0, 1000))
def test_search_space_sample_is_contained_and_roundtrips(depths_list, seed):
    space = SearchSpace([BlockSearchInfo(depth=d) for d in depths_list])
    spec = space.sample(rng=seed)
    assert space.contains(spec)
    assert space.decode(space.encode(spec)) == spec
    assert len(space.encode(spec)) == space.encoding_length()


# ---------------------------------------------------------------------------
# MAC / energy invariants
# ---------------------------------------------------------------------------


@FAST
@given(depth=st.integers(1, 5), seed=st.integers(0, 500), channels=st.integers(2, 16))
def test_dsc_never_cheaper_than_asc(depth, seed, channels):
    """For any skip pattern, converting all skips to DSC costs at least as many MACs as ASC."""
    positions = BlockAdjacency(depth).skip_positions()
    rng = np.random.default_rng(seed)
    mask = rng.random(len(positions)) < 0.5
    dsc_block = BlockAdjacency.from_encoding(depth, [DSC if m else 0 for m in mask])
    asc_block = BlockAdjacency.from_encoding(depth, [ASC if m else 0 for m in mask])
    dsc_macs = estimate_block_macs(dsc_block, channels, 8, 8)
    asc_macs = estimate_block_macs(asc_block, channels, 8, 8)
    none_macs = estimate_block_macs(BlockAdjacency(depth), channels, 8, 8)
    assert dsc_macs >= asc_macs == none_macs


@FAST
@given(
    macs=st.floats(1.0, 1e9),
    rate=st.floats(0.0, 1.0),
    steps=st.integers(1, 50),
)
def test_energy_monotone_in_firing_rate_and_steps(macs, rate, steps):
    estimate = estimate_energy(macs, rate, steps)
    assert estimate.ann_energy_nj >= 0 and estimate.snn_energy_nj >= 0
    higher = estimate_energy(macs, min(1.0, rate + 0.1), steps)
    assert higher.snn_energy_nj >= estimate.snn_energy_nj


# ---------------------------------------------------------------------------
# surrogate gradients
# ---------------------------------------------------------------------------


@FAST
@given(
    values=st.lists(st.floats(-10, 10), min_size=1, max_size=20),
    surrogate=st.sampled_from([FastSigmoidSurrogate(), ATanSurrogate(), TriangularSurrogate()]),
)
def test_surrogate_derivatives_nonnegative_bounded_and_peak_at_zero(values, surrogate):
    x = np.asarray(values)
    derivative = surrogate.derivative(x)
    assert np.all(derivative >= 0)
    peak = surrogate.derivative(np.zeros(1))[0]
    assert np.all(derivative <= peak + 1e-12)


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@FAST
@given(
    n=st.integers(2, 8),
    d=st.integers(1, 6),
    seed=st.integers(0, 1000),
    kernel=st.sampled_from([RBFKernel(), Matern52Kernel(), HammingKernel()]),
)
def test_kernel_gram_matrices_are_psd_and_symmetric(n, d, seed, kernel):
    x = np.random.default_rng(seed).integers(0, 3, size=(n, d)).astype(float)
    gram = kernel(x, x)
    assert np.allclose(gram, gram.T, atol=1e-10)
    eigenvalues = np.linalg.eigvalsh(gram)
    assert eigenvalues.min() > -1e-8
    assert np.all(gram <= 1.0 + 1e-9)  # unit variance kernels


# ---------------------------------------------------------------------------
# autodiff invariants
# ---------------------------------------------------------------------------


@FAST
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 1000),
)
def test_unbroadcast_inverts_broadcast(rows, cols, seed):
    rng = np.random.default_rng(seed)
    grad = rng.normal(size=(rows, cols))
    # broadcasting a (1, cols) array to (rows, cols) and unbroadcasting the gradient
    # must equal summing over the broadcast axis
    reduced = _unbroadcast(grad, (1, cols))
    np.testing.assert_allclose(reduced, grad.sum(axis=0, keepdims=True))


@FAST
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 1000),
)
def test_sum_gradient_is_ones(shape, seed):
    x = Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)
    ops.sum(x).backward()
    np.testing.assert_allclose(x.grad, np.ones(shape))


@FAST
@given(
    seed=st.integers(0, 1000),
    scale=st.floats(0.1, 3.0),
)
def test_log_softmax_is_log_probability_distribution(seed, scale):
    x = Tensor(np.random.default_rng(seed).normal(size=(3, 7)) * scale)
    probs = np.exp(ops.log_softmax(x, axis=1).data)
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(3), atol=1e-10)
