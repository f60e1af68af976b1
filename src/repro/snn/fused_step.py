"""Fused temporal training kernels: one hand-written adjoint per BPTT step.

Graph autograd records one node per elementwise op per layer per time step —
for an unrolled SNN that is tens of thousands of closures, intermediate
tensors and ``O(T x layers)`` allocations per training step.  This module
replaces the whole unrolled step for the architectures the experiments
actually train (:class:`~repro.models.template.SkipConnectionNetwork` built
from stem / DAG blocks / transitions / classifier head with LIF neurons) by

* one **fused forward** that walks the time loop with plain NumPy calls,
  stashing only the *minimal residuals* the backward pass needs (padded conv
  inputs, batch-norm centred activations and inverse-std terms, surrogate
  pseudo-derivatives, pooled head features) into buffers the kernel owns and
  reuses across its own training steps, and
* one **hand-written adjoint** that walks the time steps in reverse, reusing
  those buffers — no per-step graph construction, no per-intermediate
  allocation beyond the gradients themselves.

Bit-equality contract
---------------------

The fused path is **bit-identical** to graph autograd (pinned by
``tests/test_fused_step.py`` and asserted before every timing run in
``benchmarks/bench_substrate.py``): each neuron step calls the neuron's own
:meth:`~repro.snn.neurons.SpikingNeuron.dynamics` on arrays, every other
forward expression replicates the layer forwards verbatim (including the
dtype-matched scalar promotion of :func:`repro.tensor.ops._ensure_pair` and
the batch-norm running-statistics updates), and every adjoint expression
replicates the registered primitive vjps (:mod:`repro.tensor.primitives`) —
the conv and pooling adjoints *call* the registered vjp functions directly on
contexts rebuilt from the stashed residuals.  Gradient accumulation follows
the exact order of the graph's reverse topological sweep: strictly reverse
time, and within one step the reverse creation order of the layer ops
(differences limited to IEEE signed zeros, which compare equal and cannot
affect parameter updates).

Dispatch
--------

:func:`fused_dispatch` follows a thread-local mode (``"auto"`` by default —
fuse whenever the model qualifies), set by the :func:`fused_training`
context manager to force it ``"on"`` (raising with the reason when fusion is
impossible) or ``"off"``.  Routing is tallied in per-thread
``fused_steps``/``fallback_steps`` counters and process-wide aggregates that
worker processes merge back into their parent (see
:class:`repro.core.async_eval.AsyncEvaluationExecutor`).  Anything the
kernel does not cover — non-:class:`SkipConnectionNetwork` models,
eval-mode batch norm, active spike recording — falls back to the
recorded-graph path, which stays the reference.

Aliasing and lifetime
---------------------

Each kernel owns its residual stash and channel-major scratches: they are
allocated on its first forward, reused by its later steps, and belong to no
process-wide pool, so two runners training interleaved never share storage.
Nothing that escapes a step may alias them — module states written back after
a fused forward (membrane, previous spikes, readout membrane) are
the freshly allocated update arrays, and the returned score tensor owns its
data.  One kernel instance serves one runner on one thread at a time; a
second fused forward before ``backward()`` invalidates the first step's
residuals and the stale adjoint raises instead of silently reusing
overwritten buffers.  :func:`release_fused` (called when
:meth:`repro.training.SNNTrainer.fit` ends) frees the buffers at once — the
recorded loss graph is cyclic garbage that could otherwise keep them alive
until the next cyclic collection — and a backward after release raises the
same stale-residual error.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

import numpy as np

from repro.snn.encoding import encode_batch
# the dispatch mode and routing tallies live in repro.snn.routing; their
# public functions stay importable from here
from repro.snn.routing import (
    _STATE,
    _count,
    aggregate_fused_counters,
    fused_counters,
    fused_mode,
    fused_training,
    merge_fused_counters,
    reset_fused_counters,
)
from repro.snn.surrogate import _spike_fwd
from repro.tensor.conv import (
    _avg_pool2d_fwd,
    _avg_pool2d_vjp,
    _conv2d_infer,
    _conv2d_vjp,
    _im2col_view,
    _pair,
    conv_output_shape,
)
from repro.tensor.tensor import Tensor, _unbroadcast, graph_free, is_grad_enabled
from repro.trace import span

# ---------------------------------------------------------------------------
# compiled plan structures
# ---------------------------------------------------------------------------


class _ConvOp:
    """One convolution (layer or ASC projection) with its static geometry."""

    __slots__ = ("conv", "key", "kh", "kw", "sh", "sw", "ph", "pw", "groups")

    def __init__(self, conv, index: int) -> None:
        self.conv = conv
        self.key = f"c{index}"
        self.kh, self.kw = _pair(conv.kernel_size)
        self.sh, self.sw = _pair(conv.stride)
        self.ph, self.pw = _pair(conv.padding)
        self.groups = int(conv.groups)


class _CBN:
    """A conv -> batch-norm -> spiking-neuron pipeline (stem/layer/transition)."""

    __slots__ = ("op", "norm", "neuron", "index", "decay", "reset")

    def __init__(self, op: _ConvOp, norm, neuron, index: int) -> None:
        self.op = op
        self.norm = norm
        self.neuron = neuron
        self.index = index
        #: membrane decay factor
        self.decay = neuron.beta
        self.reset = neuron.reset_mechanism


class _BlockLayer:
    """One DAG-block layer: skip wiring + its conv/norm/neuron pipeline."""

    __slots__ = ("cbn", "asc", "concat", "seq_channels")

    def __init__(self, cbn: _CBN, asc, concat, seq_channels: int) -> None:
        self.cbn = cbn
        #: ASC sources in forward encounter order: ``(node, projection or None)``
        self.asc = tuple(asc)
        #: DSC sources in forward encounter order: ``(node, channels)``
        self.concat = tuple(concat)
        #: channels of the pre-concat (sequential + ASC) input
        self.seq_channels = seq_channels


class _Unit:
    """One trunk stage: the stem, a DAG block, or a transition layer."""

    __slots__ = ("kind", "cbn", "layers", "pool_kernel", "pool_stride", "pool_padding", "pool_key")

    def __init__(self, kind: str, cbn=None, layers=None, pool=None, pool_key: str = "") -> None:
        self.kind = kind
        self.cbn = cbn
        self.layers = layers
        if pool is not None:
            self.pool_kernel, self.pool_stride, self.pool_padding = pool
        self.pool_key = pool_key


class _FusedPlan:
    """Everything the kernel needs, resolved once per (model, runner) pair."""

    def __init__(self, model, units, cbns, fc, integrator) -> None:
        self.model = model
        self.units = units
        self.cbns = cbns
        self.fc = fc
        self.integrator = integrator

    def runtime_blocker(self) -> Optional[str]:
        """Per-call disqualifiers that cheap structural compilation can't see."""
        for cbn in self.cbns:
            if not cbn.norm.training:
                return "a BatchNorm2d module is in eval mode (training-mode statistics are fused)"
            if cbn.neuron.record_spikes:
                return "spike recording is enabled on a neuron"
        return None


# ---------------------------------------------------------------------------
# qualification / compilation
# ---------------------------------------------------------------------------


def _compile(runner):
    """Compile ``runner`` into a :class:`_FusedPlan`, or a rejection reason string."""
    from repro.core.adjacency import ASC, DSC
    from repro.models.blocks import ClassifierHead, DAGBlock, Stem, TransitionLayer, _DAGLayer
    from repro.models.template import SkipConnectionNetwork
    from repro.nn.layers import AvgPool2d, BatchNorm2d, Conv2d, Linear
    from repro.snn.neurons import LeakyIntegrator, LIFNeuron

    model = runner.model
    if type(model) is not SkipConnectionNetwork:
        return f"model type {type(model).__name__} is not a SkipConnectionNetwork"
    if not model.spiking:
        return "model is not spiking (graph autograd handles ANN training)"

    conv_ids = itertools.count()
    cbns: List[_CBN] = []

    def conv_op(conv, context: str) -> Optional[_ConvOp]:
        if type(conv) is not Conv2d:
            return None
        if conv.bias is not None:
            return None
        return _ConvOp(conv, next(conv_ids))

    def make_cbn(holder, context: str):
        op = conv_op(holder.conv, context)
        if op is None:
            return f"{context}: unsupported convolution (exact Conv2d without bias required)"
        if type(holder.norm) is not BatchNorm2d:
            return f"{context}: norm is not BatchNorm2d"
        neuron = holder.activation
        if type(neuron) is not LIFNeuron:
            return f"{context}: activation {type(neuron).__name__} is not a LIFNeuron"
        cbn = _CBN(op, holder.norm, neuron, len(cbns))
        cbns.append(cbn)
        return cbn

    units: List[_Unit] = []

    if type(model.stem) is not Stem:
        return "stem is not a Stem module"
    stem_cbn = make_cbn(model.stem, "stem")
    if isinstance(stem_cbn, str):
        return stem_cbn
    units.append(_Unit("stem", cbn=stem_cbn))

    for block_index, block in enumerate(model.blocks):
        if type(block) is not DAGBlock:
            return f"block {block_index} is not a DAGBlock"
        node_channels = block.spec.node_channels()
        layers: List[_BlockLayer] = []
        for layer_index, layer in enumerate(block.layers):
            if type(layer) is not _DAGLayer:
                return f"block {block_index} layer {layer_index} is not a plain DAG layer"
            cbn = make_cbn(layer, f"block {block_index} layer {layer_index}")
            if isinstance(cbn, str):
                return cbn
            destination = layer_index + 1
            asc = []
            concat = []
            for source, code in block.adjacency.sources_of(layer_index):
                if code == ASC:
                    projection = None
                    proj_index = block._projection_index.get((source, destination))
                    if proj_index is not None:
                        projection = conv_op(block.projections[proj_index], "projection")
                        if projection is None:
                            return (
                                f"block {block_index} projection ({source}->{destination}) "
                                "is not a plain bias-free Conv2d"
                            )
                    asc.append((source, projection))
                elif code == DSC:
                    concat.append((source, node_channels[source]))
                else:
                    return f"block {block_index} has an unknown connection code {code!r}"
            layers.append(_BlockLayer(cbn, asc, concat, node_channels[layer_index]))
        units.append(_Unit("block", layers=layers))

        transition_index = model._transition_map[block_index]
        if transition_index is not None:
            transition = model.transitions[transition_index]
            if type(transition) is not TransitionLayer:
                return f"transition {transition_index} is not a TransitionLayer"
            cbn = make_cbn(transition, f"transition {transition_index}")
            if isinstance(cbn, str):
                return cbn
            pool = transition.pool
            if type(pool) is not AvgPool2d:
                return f"transition {transition_index} pool is not AvgPool2d"
            kernel = _pair(pool.kernel_size)
            stride = kernel if pool.stride is None else _pair(pool.stride)
            padding = _pair(pool.padding)
            units.append(
                _Unit(
                    "transition",
                    cbn=cbn,
                    pool=(kernel, stride, padding),
                    pool_key=f"pool{transition_index}",
                )
            )

    head = model.head
    if type(head) is not ClassifierHead:
        return "head is not a ClassifierHead"
    if type(head.fc) is not Linear:
        return "head classifier is not a plain Linear layer"
    if head.readout is not None and type(head.readout) is not LeakyIntegrator:
        return "head readout is not a LeakyIntegrator"

    return _FusedPlan(model, units, cbns, head.fc, head.readout)


def _kernel_for(runner):
    """The runner's cached kernel (compiled on first use), or a rejection reason."""
    signature = (id(runner.model), runner.num_steps)
    cached = getattr(runner, "_fused_kernel", None)
    if cached is not None and cached[0] == signature:
        return cached[1]
    plan = _compile(runner)
    kernel = plan if isinstance(plan, str) else _FusedKernel(plan)
    runner._fused_kernel = (signature, kernel)
    return kernel


def release_fused(runner) -> None:
    """Free the fused kernel ``runner`` trained with, residuals and scratch included.

    A no-op for anything that never fused.  The next fused step recompiles;
    a ``backward()`` through a score the released kernel produced raises.
    """
    cached = getattr(runner, "_fused_kernel", None)
    if cached is None:
        return
    runner._fused_kernel = None
    if not isinstance(cached[1], str):
        cached[1].release()


def fused_dispatch(runner, batch) -> Optional[Tensor]:
    """Run one fused BPTT step for ``runner`` if possible.

    Returns the aggregated score tensor (a graph leaf whose ``_backward``
    runs the hand-written adjoint), or ``None`` to fall back to the recorded
    graph.  With the mode forced ``"on"``, a step that cannot fuse raises
    :class:`RuntimeError` naming the reason instead of silently degrading.
    """
    mode = _STATE.mode
    if not is_grad_enabled():
        return None
    if mode == "off":
        _count("fallback_steps")
        return None
    kernel = _kernel_for(runner)
    reason = kernel if isinstance(kernel, str) else kernel.plan.runtime_blocker()
    if reason is not None:
        if mode == "on":
            raise RuntimeError(f"fused_training(mode='on') but the step cannot fuse: {reason}")
        _count("fallback_steps")
        return None
    data = batch.data if isinstance(batch, Tensor) else batch
    frames = encode_batch(data, runner.encoder, runner.num_steps)
    if not frames:
        raise ValueError("no outputs to aggregate")
    with span("train.fused_forward", num_steps=len(frames)) as fwd_span:
        score = kernel.forward(frames)
        if fwd_span:
            fwd_span.set(batch=int(score.shape[0]))
    _count("fused_steps")
    return score


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------


class _FusedKernel:
    """Fused forward + hand-written reverse-time adjoint for one plan.

    Residuals are stashed with :meth:`stash`/:meth:`stashed` into buffers of
    shape ``(num_steps, *per_step_shape)`` that the kernel owns — the lint
    rule ``primitive-coverage`` checks that everything a fused forward
    stashes, its adjoint actually reads.
    """

    def __init__(self, plan: _FusedPlan) -> None:
        self.plan = plan
        self.generation = 0
        #: owned residual buffers: name -> (signature, (T, ...) array)
        self._stash: Dict[str, tuple] = {}
        #: owned channel-major scratch views, keyed by role
        self._scratches: Dict[str, np.ndarray] = {}

    def release(self) -> None:
        """Drop every owned buffer and invalidate any outstanding adjoint."""
        self.generation += 1
        self._stash = {}
        self._scratches = {}
        self._residuals = {}

    # -- residual stash -------------------------------------------------
    def stash(self, name: str, shape, dtype=np.float64, fill=None, cmajor=False) -> np.ndarray:
        """The kernel's ``(T, *shape)`` residual buffer for ``name``.

        Allocated on first use and reused by later forwards while its
        signature (shape, dtype, fill, layout) is unchanged — so a ``fill``
        (e.g. a zero padding border) is written only when the buffer is new.
        With ``cmajor`` the per-step slots are channel-major ``(N, C, H, W)``
        views (storage order ``(T, C, N, H, W)``), mirroring the layout the
        graph path would hold for the same residual — see :meth:`_cm_scratch`
        for why layout decides bit-equality.
        """
        buf = self._residuals.get(name)
        if buf is None:
            dtype = np.dtype(dtype)
            shape = tuple(int(dim) for dim in shape)
            if cmajor:
                shape = (shape[1], shape[0]) + shape[2:]
                self._cmajor.add(name)
            full = (self._num_steps,) + shape
            signature = (full, dtype.str, fill, cmajor)
            owned = self._stash.get(name)
            if owned is not None and owned[0] == signature:
                buf = owned[1]
            else:
                buf = np.empty(full, dtype)
                if fill is not None:
                    buf[...] = fill
                self._stash[name] = (signature, buf)
            self._residuals[name] = buf
        return buf

    def stashed(self, name: str, t: int) -> np.ndarray:
        """The residual stashed under ``name`` at time step ``t``."""
        view = self._residuals[name][t]
        if name in self._cmajor:
            view = view.transpose(1, 0, 2, 3)
        return view

    def _cm_scratch(self, key: str, shape, dtype=np.float64) -> np.ndarray:
        """The kernel's channel-major ``(N, C, H, W)`` scratch view for ``key``.

        Graph autograd's gradient buffers are ``np.zeros_like`` of the conv
        outputs, which are channel-major views — and NumPy's pairwise-summed
        reductions walk memory order, so sums over a C-contiguous array are
        NOT bit-identical to sums over the same values channel-major.  Every
        fused array that feeds a reduction (batch-norm statistics and their
        ``_unbroadcast`` sums) is therefore materialised into one of these
        scratches first.  Each is allocated once and reused while its shape
        and dtype hold (the hot loops request the same scratch once per layer
        per time step).
        """
        view = self._scratches.get(key)
        if view is None or view.shape != shape or view.dtype != dtype:
            n, c, h, w = shape
            view = np.empty((c, n, h, w), dtype).transpose(1, 0, 2, 3)
            self._scratches[key] = view
        return view

    # -- forward --------------------------------------------------------
    def forward(self, frames) -> Tensor:
        from repro.snn.temporal import reset_states

        plan = self.plan
        reset_states(plan.model)
        self.generation += 1
        generation = self.generation
        self._num_steps = len(frames)
        self._residuals: Dict[str, np.ndarray] = {}
        self._cmajor: set = set()
        self._geom: Dict[str, tuple] = {}
        # per-neuron temporal state, keyed like each neuron's ``dynamics`` state
        self._nstate = [dict.fromkeys(cbn.neuron.state_names) for cbn in plan.cbns]
        self._fc_wt = np.transpose(plan.fc.weight.data)
        self._int_beta = None
        self._score_dtype = None

        integrator_state = None
        total = None
        out = None
        for t, frame in enumerate(frames):
            x = frame.data if isinstance(frame, Tensor) else frame
            for unit in plan.units:
                if unit.kind == "stem" or unit.kind == "transition":
                    x = self._cbn_forward(unit.cbn, t, x)
                    if unit.kind == "transition":
                        x = self._pool_forward(unit, t, x)
                else:
                    x = self._block_forward(unit, t, x)
            # classifier head: global average pool + linear (+ integrator)
            if t == 0:
                self._geom["head"] = x.shape
            pooled = x.mean(axis=(2, 3))
            pooled_buf = self.stash("head.pooled", pooled.shape, pooled.dtype)
            pooled_buf[t] = pooled
            logits = pooled @ self._fc_wt
            if plan.fc.bias is not None:
                logits = logits + plan.fc.bias.data
            if plan.integrator is not None:
                if integrator_state is None:
                    out = logits
                else:
                    if self._int_beta is None:
                        self._int_beta = np.asarray(plan.integrator.beta, dtype=logits.dtype)
                    out = integrator_state * self._int_beta + logits
                integrator_state = out
            else:
                out = logits
            total = out if total is None else total + out
        if self._int_beta is None and plan.integrator is not None:
            self._int_beta = np.asarray(plan.integrator.beta, dtype=out.dtype)

        # the membrane-mean readout: score = total / num_steps
        score_data = total / np.asarray(float(self._num_steps), dtype=total.dtype)
        self._score_dtype = score_data.dtype

        self._write_back_states(integrator_state)

        score = Tensor(score_data, requires_grad=True)
        kernel = self

        def _run_adjoint() -> None:
            if score.grad is None:
                return
            if kernel.generation != generation:
                raise RuntimeError(
                    "fused BPTT residuals were overwritten by a newer fused forward "
                    "or released; run backward() before taking the next training step"
                )
            with span("train.fused_backward", num_steps=kernel._num_steps):
                kernel.adjoint(score.grad)

        score._backward = _run_adjoint
        return score

    def _write_back_states(self, integrator_state) -> None:
        """Publish final temporal states exactly like the graph path would.

        Everything handed out is an owning array (the last update's fresh
        result), never a slice of the kernel's residual stash — escaping
        reused storage would break the aliasing contract.
        """
        for cbn, state in zip(self.plan.cbns, self._nstate):
            for name, value in state.items():
                setattr(cbn.neuron, name, None if value is None else graph_free(value))
        if self.plan.integrator is not None and integrator_state is not None:
            self.plan.integrator.membrane = graph_free(integrator_state)

    # -- per-stage forwards ---------------------------------------------
    def _conv_forward(self, op: _ConvOp, t: int, x: np.ndarray) -> np.ndarray:
        geom = self._geom.get(op.key)
        if geom is None:
            n, c, h, w = x.shape
            oh, ow = conv_output_shape(h, w, (op.kh, op.kw), (op.sh, op.sw), (op.ph, op.pw))
            # a padding-free conv hands its input to im2col as-is, so the
            # stash must mirror the input's own layout (channel-major for
            # spike activations) for the adjoint's weight-grad einsum to see
            # the graph path's exact strides; padded convs copy through
            # np.pad either way, which is always C-order
            pad_cm = not (op.ph or op.pw) and not x.flags["C_CONTIGUOUS"]
            geom = (n, c, h, w, oh, ow, pad_cm)
            self._geom[op.key] = geom
        n, c, h, w, oh, ow, pad_cm = geom
        self.stash(
            op.key + ".pad",
            (n, c, h + 2 * op.ph, w + 2 * op.pw),
            x.dtype,
            fill=0.0 if (op.ph or op.pw) else None,
            cmajor=pad_cm,
        )
        slot = self.stashed(op.key + ".pad", t)
        if op.ph or op.pw:
            slot[:, :, op.ph : op.ph + h, op.pw : op.pw + w] = x
        else:
            slot[...] = x
        # padding is already applied into the stashed buffer; the GEMM output
        # is returned as the same channel-major (C, N, H, W)-backed view the
        # graph path's einsum produces, so downstream reductions (batch-norm
        # statistics) walk memory in the identical order — bit-identical sums
        return _conv2d_infer(slot, op.conv.weight.data, None, op.groups, op.sh, op.sw, 0, 0, oh, ow)

    def _bn_forward(self, cbn: _CBN, t: int, x: np.ndarray) -> np.ndarray:
        norm = cbn.norm
        features = norm.num_features
        count = x.shape[0] * x.shape[2] * x.shape[3]
        # open-coded np.mean — same add.reduce + in-place divide the ufunc
        # machinery performs, minus the per-call wrapper overhead
        mean = np.add.reduce(x, axis=(0, 2, 3), keepdims=True)
        mean /= count
        xc_buf = self.stash(f"b{cbn.index}.xc", x.shape, x.dtype)
        xc = xc_buf[t]
        np.subtract(x, mean, out=xc)
        sq = self._cm_scratch(f"b{cbn.index}.sq", x.shape, x.dtype)
        np.multiply(xc, xc, out=sq)
        var = np.add.reduce(sq, axis=(0, 2, 3), keepdims=True)
        var /= count
        new_mean = (1 - norm.momentum) * norm.running_mean + norm.momentum * mean.reshape(-1)
        new_var = (1 - norm.momentum) * norm.running_var + norm.momentum * var.reshape(-1)
        norm.update_buffer("running_mean", new_mean)
        norm.update_buffer("running_var", new_var)
        p = var + norm.eps
        p_buf = self.stash(f"b{cbn.index}.p", p.shape, p.dtype)
        p_buf[t] = p
        denom = p ** 0.5
        denom_buf = self.stash(f"b{cbn.index}.denom", denom.shape, denom.dtype)
        denom_buf[t] = denom
        normalized = xc / denom
        scale = norm.weight.data.reshape(1, features, 1, 1)
        shift = norm.bias.data.reshape(1, features, 1, 1)
        # fresh (not stashed — it escapes as membrane state at t=0) output in
        # the conv output's channel-major order, like the graph's ufunc chain
        out = np.empty_like(x)
        np.multiply(normalized, scale, out=out)
        np.add(out, shift, out=out)
        return out

    def _neuron_forward(self, cbn: _CBN, t: int, drive: np.ndarray) -> np.ndarray:
        # the neuron's own update, run on arrays; the spike primitive's
        # forward yields the spikes and the pseudo-derivative the adjoint reads
        neuron = cbn.neuron
        state = self._nstate[cbn.index]
        update, spike_input = neuron.dynamics(state, drive)
        spikes, (pseudo,) = _spike_fwd(
            spike_input, True, threshold=neuron.threshold, surrogate=neuron.surrogate
        )
        pseudo_buf = self.stash(f"n{cbn.index}.pseudo", pseudo.shape, pseudo.dtype)
        pseudo_buf[t] = pseudo
        if cbn.reset == "zero":
            spikes_buf = self.stash(f"n{cbn.index}.spikes", spikes.shape, spikes.dtype)
            spikes_buf[t] = spikes
        state.update(update)
        state["previous_spikes"] = spikes
        return spikes

    def _cbn_forward(self, cbn: _CBN, t: int, x: np.ndarray) -> np.ndarray:
        x = self._conv_forward(cbn.op, t, x)
        x = self._bn_forward(cbn, t, x)
        return self._neuron_forward(cbn, t, x)

    def _pool_forward(self, unit: _Unit, t: int, x: np.ndarray) -> np.ndarray:
        out, ctx = _avg_pool2d_fwd(
            x,
            want_ctx=True,
            kernel=unit.pool_kernel,
            stride=unit.pool_stride,
            padding=unit.pool_padding,
        )
        self._geom[unit.pool_key] = ctx
        return out

    def _block_forward(self, unit: _Unit, t: int, x: np.ndarray) -> np.ndarray:
        node_outputs = [x]
        for layer in unit.layers:
            combined = node_outputs[-1]
            for source, projection in layer.asc:
                source_output = node_outputs[source]
                if projection is not None:
                    source_output = self._conv_forward(projection, t, source_output)
                combined = combined + source_output
            if layer.concat:
                combined = np.concatenate(
                    [combined] + [node_outputs[source] for source, _ in layer.concat], axis=1
                )
            node_outputs.append(self._cbn_forward(layer.cbn, t, combined))
        return node_outputs[-1]

    # -- adjoint ---------------------------------------------------------
    def adjoint(self, g_score: np.ndarray) -> None:
        """Reverse-time sweep accumulating parameter gradients.

        Expression-for-expression this replicates the registered primitive
        vjps over the graph the fused forward *would* have recorded, in the
        exact accumulation order of the reverse topological sweep (strictly
        reverse time; reverse creation order within a step).
        """
        plan = self.plan
        num_steps = self._num_steps
        # membrane-mean readout: score = total / num_steps
        seed = g_score / np.asarray(float(num_steps), dtype=self._score_dtype)
        self._ncarry: List[Optional[np.ndarray]] = [None] * len(plan.cbns)
        carry_out = None

        head_shape = self._geom["head"]
        n, channels, height, width = head_shape
        pool_count = height * width

        for t in range(num_steps - 1, -1, -1):
            # ---- head: integrator -> linear -> global average pool
            g_out = seed if carry_out is None else carry_out + seed
            if plan.integrator is not None and t > 0:
                carry_out = g_out * self._int_beta
            g_logits = g_out
            if plan.fc.bias is not None:
                plan.fc.bias.accumulate_grad(_unbroadcast(g_logits, plan.fc.bias.data.shape))
            pooled = self.stashed("head.pooled", t)
            plan.fc.weight.accumulate_grad(
                np.transpose(_unbroadcast(np.swapaxes(pooled, -1, -2) @ g_logits, self._fc_wt.shape))
            )
            g_pooled = _unbroadcast(g_logits @ np.swapaxes(self._fc_wt, -1, -2), pooled.shape)
            grad = g_pooled / pool_count
            # a read-only broadcast view: every consumer below reads it elementwise
            g_x = np.broadcast_to(np.expand_dims(grad, axis=(2, 3)), head_shape)

            # ---- trunk, reversed
            for unit in reversed(plan.units):
                if unit.kind == "transition":
                    g_x = _avg_pool2d_vjp(
                        self._geom[unit.pool_key],
                        g_x,
                        (True,),
                        kernel=unit.pool_kernel,
                        stride=unit.pool_stride,
                        padding=unit.pool_padding,
                    )[0]
                    g_x = self._neuron_backward(unit.cbn, t, g_x)
                    g_x = self._bn_backward(unit.cbn, t, g_x)
                    g_x = self._conv_backward(unit.cbn.op, t, g_x, need_input=True)
                elif unit.kind == "block":
                    g_x = self._block_backward(unit, t, g_x)
                else:  # stem: the encoded frame needs no gradient
                    g_x = self._neuron_backward(unit.cbn, t, g_x)
                    g_x = self._bn_backward(unit.cbn, t, g_x)
                    self._conv_backward(unit.cbn.op, t, g_x, need_input=False)
                    g_x = None

    def _neuron_backward(self, cbn: _CBN, t: int, g_spikes: np.ndarray) -> np.ndarray:
        # spike vjp: dL/dm = dL/dS * surrogate pseudo-derivative; the carried
        # membrane gradient from step t+1 lands first, as in the graph sweep
        # (IEEE addition is commutative, so local-then-carry is bit-equal).
        # The result is materialised channel-major like the graph's membrane
        # grad buffer — batch norm sums it next, and sum order is layout order
        g_membrane = self._cm_scratch(f"n{cbn.index}.gm", g_spikes.shape)
        np.multiply(g_spikes, self.stashed(f"n{cbn.index}.pseudo", t), out=g_membrane)
        carry = self._ncarry[cbn.index]
        if carry is not None:
            g_membrane += carry
        if t > 0:
            # the decay in the forward dtype, as the graph's scalar operand
            dtype = self._nstate[cbn.index]["membrane"].dtype
            g_inner = g_membrane * dtype.type(cbn.decay)
            if cbn.reset == "zero":
                g_inner = g_inner * (1.0 - self.stashed(f"n{cbn.index}.spikes", t - 1))
            # reset terms are detached, so the subtract reset carries unchanged
            self._ncarry[cbn.index] = g_inner
        else:
            self._ncarry[cbn.index] = None
        # at t=0 the membrane *is* the synaptic input; otherwise the integrate
        # add passes the gradient through unchanged either way
        return g_membrane

    def _bn_backward(self, cbn: _CBN, t: int, g_out: np.ndarray) -> np.ndarray:
        norm = cbn.norm
        features = norm.num_features
        xc = self.stashed(f"b{cbn.index}.xc", t)
        denom = self.stashed(f"b{cbn.index}.denom", t)
        p = self.stashed(f"b{cbn.index}.p", t)
        shape = xc.shape
        count = shape[0] * shape[2] * shape[3]
        reduced = (1, features, 1, 1)
        scale = norm.weight.data.reshape(reduced)
        # every array a sum runs over is staged channel-major first, matching
        # the layout of the graph's zeros_like grad buffers (see _cm_scratch)
        prod = self._cm_scratch(f"b{cbn.index}.prod", shape)
        # reductions over the batch axes are open-coded sums: _unbroadcast on a
        # (N,C,H,W) -> (1,C,1,1) grad is exactly sum(axis=(0,2,3), keepdims)
        norm.bias.accumulate_grad(
            g_out.sum(axis=(0, 2, 3), keepdims=True).reshape(norm.bias.data.shape)
        )
        np.divide(xc, denom, out=prod)  # normalized, recomputed bit-identically
        np.multiply(g_out, prod, out=prod)
        norm.weight.accumulate_grad(
            prod.sum(axis=(0, 2, 3), keepdims=True).reshape(norm.weight.data.shape)
        )
        g_norm = g_out * scale
        # div vjp: a-side g / b, b-side -g * a / b**2 reduced over broadcast axes
        g_centered = self._cm_scratch(f"b{cbn.index}.gc", shape)
        np.divide(g_norm, denom, out=g_centered)
        np.negative(g_norm, out=prod)
        prod *= xc
        prod /= denom ** 2
        g_denom = prod.sum(axis=(0, 2, 3), keepdims=True)
        # power vjp for denom = p ** 0.5, then the eps-add passes through
        g_var = g_denom * 0.5 * p ** (0.5 - 1)
        # mean vjp (keepdims): fan the variance gradient back over the batch;
        # centered * centered contributes the same term through both factor
        # slots (the broadcast happens inside the ufunc — elementwise values
        # are layout-free, and prod is done carrying the g_denom operand)
        np.multiply(g_var / count, xc, out=prod)
        g_centered += prod
        g_centered += prod
        # centered = x - mean: identity into x plus the mean's fan-out; the
        # add lands in the scratch, which the conv vjp consumes (and copies
        # through its own C-order reshape) before this layer's next borrow
        np.negative(g_centered, out=prod)
        g_mean = prod.sum(axis=(0, 2, 3), keepdims=True)
        np.add(g_centered, g_mean / count, out=g_centered)
        return g_centered

    def _conv_backward(
        self, op: _ConvOp, t: int, g: np.ndarray, need_input: bool
    ) -> Optional[np.ndarray]:
        n, c, h, w, oh, ow, _pad_cm = self._geom[op.key]
        pad = self.stashed(op.key + ".pad", t)
        weight = op.conv.weight.data
        col = _im2col_view(pad, op.kh, op.kw, op.sh, op.sw, oh, ow)
        col_g = col.reshape(n, op.groups, c // op.groups, op.kh, op.kw, oh, ow)
        w_g = weight.reshape(op.groups, weight.shape[0] // op.groups, c // op.groups, op.kh, op.kw)
        geometry = (
            n, c, h, w, op.kh, op.kw, op.sh, op.sw, op.ph, op.pw, oh, ow,
            weight.shape[0], weight.shape,
        )
        grads = _conv2d_vjp(
            (col_g, w_g, geometry),
            g,
            (need_input, True),
            stride=(op.sh, op.sw),
            padding=(op.ph, op.pw),
            groups=op.groups,
        )
        op.conv.weight.accumulate_grad(grads[1])
        return grads[0]

    def _block_backward(self, unit: _Unit, t: int, g_out: np.ndarray) -> np.ndarray:
        layers = unit.layers
        node_grads: List[Optional[np.ndarray]] = [None] * (len(layers) + 1)
        node_grads[-1] = g_out
        for layer_index in range(len(layers) - 1, -1, -1):
            layer = layers[layer_index]
            g = node_grads[layer_index + 1]
            g = self._neuron_backward(layer.cbn, t, g)
            g = self._bn_backward(layer.cbn, t, g)
            g = self._conv_backward(layer.cbn.op, t, g, need_input=True)
            if layer.concat:
                g_seq = g[:, : layer.seq_channels]
                offset = layer.seq_channels
                for source, source_channels in layer.concat:
                    piece = g[:, offset : offset + source_channels]
                    offset += source_channels
                    node_grads[source] = (
                        piece if node_grads[source] is None else node_grads[source] + piece
                    )
            else:
                g_seq = g
            for source, projection in reversed(layer.asc):
                g_source = g_seq
                if projection is not None:
                    g_source = self._conv_backward(projection, t, g_seq, need_input=True)
                node_grads[source] = (
                    g_source if node_grads[source] is None else node_grads[source] + g_source
                )
            node_grads[layer_index] = (
                g_seq if node_grads[layer_index] is None else node_grads[layer_index] + g_seq
            )
        return node_grads[0]
