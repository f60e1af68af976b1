"""Fused temporal training kernel: one hand-written adjoint per BPTT step.

Graph autograd records one node per elementwise op per layer per time step.
For the networks the experiments train
(:class:`~repro.models.template.SkipConnectionNetwork` with LIF neurons) this
module replaces the whole unrolled step by a **fused forward** and a
**hand-written adjoint** that run *layer-major*: each layer processes all
``T`` time steps before the next starts, and the adjoint walks the layers
back the same way.  Every activation, residual (padded conv inputs, centred
batch-norm activations, inverse-std terms, surrogate pseudo-derivatives,
pooled head features) and gradient is one ``(T, N, C, ...)`` array the kernel
owns and reuses across its steps.  Only the recurrences loop over steps: the
LIF update with its surrogate derivative, the adjoint's membrane carry, the
running-statistic updates and the readout integrator.  Batch norm, pooling, skip adds and concats, the
head's stacked ``np.matmul`` and the adjoint arithmetic run once per layer
over all steps; convolutions stay one GEMM per step.

Bit-equality contract
---------------------

The fused path is **bit-identical** to graph autograd (pinned by
``tests/test_fused_step.py``, at perfbench's batch and geometries too, and
asserted before every timing run in ``benchmarks/bench_substrate.py``).
Each neuron step calls the neuron's own
:meth:`~repro.snn.neurons.SpikingNeuron.dynamics`; every other expression
replicates the layer forwards and the registered primitive vjps, and the
conv adjoint *calls* the registered vjp.  The time axis keeps the bits:
elementwise ops are per element, and the arrays are stored
``(T, C, N, H, W)``, so a step's slice has the strides of the graph's
channel-major conv outputs and each reduction sums a channel's contiguous
``(N, H, W)`` run exactly as the per-step reduction does.  GEMM bits depend
on shape, so convolutions keep the graph's per-step shapes.  Each parameter
accumulates its per-step gradients in strictly reverse time, the order of
the graph's reverse topological sweep (differences are limited to IEEE
signed zeros, which compare equal and cannot change an update).

Dispatch and lifetime
---------------------

:func:`fused_dispatch` follows a thread-local mode set by
:func:`fused_training`: ``"auto"`` (the default) fuses whenever the model
qualifies, ``"on"`` raises with the reason when it cannot, ``"off"`` never
fuses.  Per-thread and process-wide ``fused_steps``/``fallback_steps``
counters tally the routing; worker processes merge theirs into the parent.
A kernel's buffers belong to no shared pool and nothing that escapes a step
aliases them.  A second forward before ``backward()`` invalidates the first
step's residuals, and the stale adjoint raises; so does a backward after
:func:`release_fused`, which :meth:`repro.training.SNNTrainer.fit` calls to
free the buffers at once.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, List, NamedTuple, Optional

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
from repro.tensor.conv import (
    _conv2d_infer,
    _conv2d_vjp,
    _im2col_view,
    _pair,
    conv_output_shape,
)
from repro.tensor.tensor import Tensor, graph_free, is_grad_enabled
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


class _CBN(NamedTuple):
    """A conv -> batch-norm -> spiking-neuron pipeline (stem/layer/transition)."""

    op: _ConvOp
    norm: object
    neuron: object
    index: int


class _BlockLayer(NamedTuple):
    """One DAG-block layer: skip wiring + its conv/norm/neuron pipeline."""

    cbn: _CBN
    #: ASC sources in forward encounter order: ``(node, projection or None)``
    asc: tuple
    #: DSC sources in forward encounter order: ``(node, channels)``
    concat: tuple
    #: channels of the pre-concat (sequential + ASC) input
    seq_channels: int


class _Unit(NamedTuple):
    """One trunk stage: the stem, a DAG block, or a transition layer."""

    kind: str
    cbn: Optional[_CBN] = None
    layers: tuple = ()
    #: a transition's average pool: ``(kernel, stride, padding)`` pairs
    pool: Optional[tuple] = None


class _FusedPlan(NamedTuple):
    """Everything the kernel needs, resolved once per (model, runner) pair."""

    model: object
    units: List[_Unit]
    cbns: List[_CBN]
    fc: object
    integrator: object

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

    def conv_op(conv) -> Optional[_ConvOp]:
        if type(conv) is not Conv2d or conv.bias is not None:
            return None
        return _ConvOp(conv, next(conv_ids))

    def make_cbn(holder, context: str):
        op = conv_op(holder.conv)
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
                        projection = conv_op(block.projections[proj_index])
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
            layers.append(_BlockLayer(cbn, tuple(asc), tuple(concat), node_channels[layer_index]))
        units.append(_Unit("block", layers=tuple(layers)))

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
            units.append(_Unit("transition", cbn=cbn, pool=(kernel, stride, _pair(pool.padding))))

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
        score = kernel.forward(frames, timed=bool(fwd_span))
        if fwd_span:
            fwd_span.set(batch=int(score.shape[0]), **kernel.op_ms())
    _count("fused_steps")
    return score


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

#: op kinds a traced forward or adjoint reports its time under (``<kind>_ms``)
OP_KINDS = ("conv", "bn", "neuron", "pool", "head")


def _owned(store: Dict, key, shape, dtype, fill, cmajor: bool) -> np.ndarray:
    """``store``'s buffer for ``key``, (re)allocated when its signature changes.

    With ``cmajor`` a logical ``(T, N, C, ...)`` buffer is stored
    ``(T, C, N, ...)``; a ``fill`` is written only into a new buffer.
    """
    dtype = np.dtype(dtype)
    signature = (shape, dtype.str, fill, cmajor)
    owned = store.get(key)
    if owned is not None and owned[0] == signature:
        return owned[1]
    if cmajor:
        buf = np.empty((shape[0], shape[2], shape[1]) + shape[3:], dtype).swapaxes(1, 2)
    else:
        buf = np.empty(shape, dtype)
    if fill is not None:
        buf[...] = fill
    store[key] = (signature, buf)
    return buf


class _FusedKernel:
    """Fused forward + hand-written adjoint for one plan, layer by layer.

    Residuals come from :meth:`stash` and are read back with :meth:`stashed`
    (the lint rule ``primitive-coverage`` checks that the adjoint reads every
    residual name the forward stashes); transient buffers from
    :meth:`_cm_scratch`.  The adjoint writes gradients into spent residuals.
    """

    def __init__(self, plan: _FusedPlan) -> None:
        self.plan = plan
        self.generation = 0
        #: seconds per op kind of the current traced sweep (``None`` untraced)
        self._laps: Optional[Dict[str, float]] = None
        self._lap_at = 0.0
        self.release()

    def release(self) -> None:
        """Drop every owned buffer and invalidate any outstanding adjoint."""
        self.generation += 1
        #: owned residual buffers: name -> (signature, array)
        self._stash: Dict[str, tuple] = {}
        #: owned transient buffers: (role, per-step C, H, W) -> (signature, array)
        self._scratches: Dict[tuple, tuple] = {}
        self._residuals: Dict[str, np.ndarray] = {}

    # -- owned buffers ----------------------------------------------------
    def stash(self, name: str, shape, dtype=np.float64, fill=None, cmajor=False) -> np.ndarray:
        """The residual buffer ``name`` (logical shape ``(T, ...)``) for this step's adjoint."""
        buf = _owned(self._stash, name, tuple(shape), dtype, fill, cmajor)
        self._residuals[name] = buf
        return buf

    def stashed(self, name: str) -> np.ndarray:
        """The residual this step's forward stashed under ``name``."""
        return self._residuals[name]

    def _cm_scratch(self, role: str, shape, dtype=np.float64) -> np.ndarray:
        """A channel-major ``(T, N, C, H, W)`` buffer for ``role``, shared by the
        layers of one channel and spatial size (each is done with it first)."""
        shape = tuple(shape)
        return _owned(self._scratches, (role,) + shape[2:], shape, dtype, None, True)

    # -- per-op-kind timing (traced sweeps only) --------------------------
    def _start_laps(self, timed: bool) -> None:
        self._laps = dict.fromkeys(OP_KINDS, 0.0) if timed else None
        self._lap_at = time.perf_counter()

    def _lap(self, kind: Optional[str]) -> None:
        """Charge the time since the previous lap to ``kind`` (``None``: to no kind)."""
        laps = self._laps
        if laps is None:
            return
        now = time.perf_counter()
        if kind is not None:
            laps[kind] += now - self._lap_at
        self._lap_at = now

    def op_ms(self) -> Dict[str, float]:
        """The last traced sweep's milliseconds per op kind, as span attributes."""
        if self._laps is None:
            return {}
        return {f"{kind}_ms": round(seconds * 1e3, 3) for kind, seconds in self._laps.items()}

    # -- forward --------------------------------------------------------
    def forward(self, frames, timed: bool = False) -> Tensor:
        from repro.snn.temporal import reset_states

        plan = self.plan
        reset_states(plan.model)
        self.generation += 1
        generation = self.generation
        self._num_steps = len(frames)
        self._residuals = {}
        self._geom: Dict[object, tuple] = {}
        self._fc_wt = np.transpose(plan.fc.weight.data)
        self._start_laps(timed)
        x = np.stack([frame.data if isinstance(frame, Tensor) else frame for frame in frames])
        for unit in plan.units:
            if unit.kind == "block":
                x = self._block_forward(unit, x)
                continue
            self._stage(unit.cbn.op, x.shape, cmajor=unit.kind == "transition")[...] = x
            x = self._cbn_forward(unit.cbn, f"{unit.kind}.out")
            if unit.kind == "transition":
                x = self._pool_forward(unit, x)
        score = Tensor(self._head_forward(x), requires_grad=True)
        kernel = self

        def _run_adjoint() -> None:
            if score.grad is None:
                return
            if kernel.generation != generation:
                raise RuntimeError(
                    "fused BPTT residuals were overwritten by a newer fused forward, "
                    "spent by an earlier backward or released; run backward() once "
                    "per fused forward, before taking the next training step"
                )
            with span("train.fused_backward", num_steps=kernel._num_steps) as bwd_span:
                kernel.adjoint(score.grad, timed=bool(bwd_span))
                if bwd_span:
                    bwd_span.set(**kernel.op_ms())

        score._backward = _run_adjoint
        return score

    @staticmethod
    def _publish(module, name: str, value) -> None:
        """Leave a final state on ``module`` as the graph does; never a kernel buffer."""
        if value is not None and value.base is not None:
            value = np.copy(value)
        setattr(module, name, None if value is None else graph_free(value))

    # -- per-stage forwards ---------------------------------------------
    def _stage(self, op: _ConvOp, shape, cmajor: bool) -> np.ndarray:
        """Where ``op``'s input goes: the interior of its padded residual buffer.

        Padded, it is C-order like ``np.pad``'s copy on the graph path; a
        padding-free conv's im2col reads its input as-is, so that buffer keeps
        the input's layout (``cmajor``) for the weight-gradient GEMM's strides.
        """
        t, n, c, h, w = shape
        padded = bool(op.ph or op.pw)
        self.stash(
            op.key + ".pad",
            (t, n, c, h + 2 * op.ph, w + 2 * op.pw),
            fill=0.0 if padded else None,
            cmajor=cmajor and not padded,
        )
        oh, ow = conv_output_shape(h, w, (op.kh, op.kw), (op.sh, op.sw), (op.ph, op.pw))
        self._geom[op.key] = (n, c, h, w, oh, ow)
        return self._staged(op)

    def _conv_forward(self, op: _ConvOp) -> np.ndarray:
        """One GEMM per step over the staged input, into a channel-major scratch."""
        n, c, h, w, oh, ow = self._geom[op.key]
        pad = self.stashed(op.key + ".pad")
        weight = op.conv.weight.data
        out = self._cm_scratch("conv", (pad.shape[0], n, weight.shape[0], oh, ow))
        for t in range(pad.shape[0]):
            out[t] = _conv2d_infer(pad[t], weight, None, op.groups, op.sh, op.sw, 0, 0, oh, ow)
        return out

    def _bn_forward(self, cbn: _CBN, x: np.ndarray) -> np.ndarray:
        """Training-mode batch norm over all steps, in place in ``x``."""
        norm = cbn.norm
        num_steps, n, features, h, w = x.shape
        count = n * h * w
        # open-coded np.mean — same add.reduce + in-place divide the ufunc
        # machinery performs, minus the per-call wrapper overhead
        mean = np.add.reduce(x, axis=(1, 3, 4), keepdims=True)
        mean /= count
        xc = self.stash(f"b{cbn.index}.xc", x.shape, x.dtype, cmajor=True)
        np.subtract(x, mean, out=xc)
        np.multiply(xc, xc, out=x)  # the conv output is spent: x holds the squares
        var = np.add.reduce(x, axis=(1, 3, 4), keepdims=True)
        var /= count
        running_mean, running_var = norm.running_mean, norm.running_var
        for t in range(num_steps):
            running_mean = (1 - norm.momentum) * running_mean + norm.momentum * mean[t].reshape(-1)
            running_var = (1 - norm.momentum) * running_var + norm.momentum * var[t].reshape(-1)
        norm.update_buffer("running_mean", running_mean)
        norm.update_buffer("running_var", running_var)
        p = self.stash(f"b{cbn.index}.p", var.shape, var.dtype)
        np.add(var, norm.eps, out=p)
        denom = self.stash(f"b{cbn.index}.denom", var.shape, var.dtype)
        denom[...] = p ** 0.5
        np.divide(xc, denom, out=x)
        np.multiply(x, norm.weight.data.reshape(1, 1, features, 1, 1), out=x)
        np.add(x, norm.bias.data.reshape(1, 1, features, 1, 1), out=x)
        return x

    def _neuron_forward(self, cbn: _CBN, drive: np.ndarray, slot: str) -> np.ndarray:
        """The LIF recurrence: the neuron's own ``dynamics``, the spike and the
        pseudo-derivative, per step (T-sized temporaries would be fresh pages)."""
        neuron = cbn.neuron
        if neuron.reset_mechanism == "zero":  # the hard reset's adjoint reads the spikes
            spikes = self.stash(f"n{cbn.index}.spikes", drive.shape, drive.dtype, cmajor=True)
        else:
            spikes = self._cm_scratch(slot, drive.shape, drive.dtype)
        pseudo = self.stash(f"n{cbn.index}.pseudo", drive.shape, drive.dtype, cmajor=True)
        state = dict.fromkeys(neuron.state_names)
        for t in range(drive.shape[0]):
            update, membrane = neuron.dynamics(state, drive[t])
            np.greater_equal(membrane, neuron.threshold, out=spikes[t])
            pseudo[t] = neuron.surrogate.derivative(membrane - neuron.threshold)
            state.update(update)
            state["previous_spikes"] = spikes[t]
        for name, value in state.items():
            self._publish(neuron, name, value)
        return spikes

    def _cbn_forward(self, cbn: _CBN, slot: str) -> np.ndarray:
        """Conv (input already staged) -> batch norm -> LIF; the spikes land in ``slot``."""
        self._lap(None)
        x = self._conv_forward(cbn.op)
        self._lap("conv")
        x = self._bn_forward(cbn, x)
        self._lap("bn")
        x = self._neuron_forward(cbn, x, slot)
        self._lap("neuron")
        return x

    @staticmethod
    def _pool_taps(unit: _Unit, shape):
        """The pool's output shape and each kernel tap's strided window slice."""
        (kh, kw), (sh, sw), (ph, pw) = unit.pool
        oh, ow = conv_output_shape(shape[3] - 2 * ph, shape[4] - 2 * pw, (kh, kw), (sh, sw), (ph, pw))
        taps = [
            (Ellipsis, slice(i, i + sh * oh, sh), slice(j, j + sw * ow, sw))
            for i in range(kh)
            for j in range(kw)
        ]
        return shape[:3] + (oh, ow), taps

    def _pool_forward(self, unit: _Unit, x: np.ndarray) -> np.ndarray:
        """Average pooling over all steps, as strided adds of the kernel taps: the
        input is spikes, so window sums are exact and the means have the pool's bits."""
        self._geom[unit] = x.shape
        ph, pw = unit.pool[2]
        if ph or pw:
            x = np.pad(x, ((0, 0), (0, 0), (0, 0), (ph, ph), (pw, pw)))
        shape, taps = self._pool_taps(unit, x.shape)
        out = self._cm_scratch("pool", shape)
        np.copyto(out, x[taps[0]])
        for tap in taps[1:]:
            out += x[tap]
        out /= len(taps)
        self._lap("pool")
        return out

    def _block_forward(self, unit: _Unit, x: np.ndarray) -> np.ndarray:
        node_outputs = [x]
        for index, layer in enumerate(unit.layers):
            previous = node_outputs[-1]
            num_steps, n, _, h, w = previous.shape
            channels = layer.seq_channels + sum(c for _, c in layer.concat)
            # a concat's output is C-order, every other input channel-major
            staged = self._stage(
                layer.cbn.op, (num_steps, n, channels, h, w), cmajor=not layer.concat
            )
            seq = staged[:, :, : layer.seq_channels] if layer.concat else staged
            if not layer.asc:
                seq[...] = previous
                self._lap("conv")
            # skip edges: ASC adds in encounter order, then the DSC concat
            for position, (source, projection) in enumerate(layer.asc):
                source_output = node_outputs[source]
                if projection is not None:
                    self._lap(None)
                    self._stage(projection, source_output.shape, cmajor=True)[...] = source_output
                    source_output = self._conv_forward(projection)
                    self._lap("conv")
                np.add(previous if position == 0 else seq, source_output, out=seq)
            offset = layer.seq_channels
            for source, source_channels in layer.concat:
                staged[:, :, offset : offset + source_channels] = node_outputs[source]
                offset += source_channels
            node_outputs.append(self._cbn_forward(layer.cbn, f"node{index + 1}"))
        return node_outputs[-1]

    def _head_forward(self, x: np.ndarray):
        """Global average pool and linear over all steps; the readout integrator per step."""
        plan = self.plan
        self._lap(None)
        num_steps, n, c, h, w = x.shape
        self._geom["head"] = x.shape
        pooled = self.stash("head.pooled", (num_steps, n, c), x.dtype, cmajor=True)
        pooled[...] = x.mean(axis=(3, 4))
        logits = pooled @ self._fc_wt
        if plan.fc.bias is not None:
            logits += plan.fc.bias.data
        integrator = plan.integrator
        if integrator is not None:
            self._int_beta = np.asarray(integrator.beta, dtype=logits.dtype)
        state = total = None
        for out in logits:
            if integrator is not None and state is not None:
                out = state * self._int_beta + out
            state = out
            total = out if total is None else total + out
        # the membrane-mean readout: score = total / num_steps
        score_data = total / np.asarray(float(num_steps), dtype=total.dtype)
        self._score_dtype = score_data.dtype
        if integrator is not None:
            self._publish(integrator, "membrane", state)
        self._lap("head")
        return score_data

    # -- adjoint ---------------------------------------------------------
    def adjoint(self, g_score: np.ndarray, timed: bool = False) -> None:
        """Reverse sweep accumulating parameter gradients, one layer at a time.

        Expression-for-expression this replicates the registered primitive
        vjps over the graph the fused forward *would* have recorded.  Each
        parameter accumulates its per-step gradients in strictly reverse
        time, as the graph's reverse topological sweep does.
        """
        self.generation += 1  # the sweep reuses spent residuals as gradient buffers
        self._start_laps(timed)
        # a unit's output gradient is the list of its contributions, summed
        # in the graph's order where it is consumed
        grads = [self._head_backward(g_score)]
        for unit in reversed(self.plan.units):
            if unit.kind == "transition":
                grads = [self._cbn_backward(unit.cbn, [self._pool_backward(unit, grads)], True)]
            elif unit.kind == "block":
                grads = self._block_backward(unit, grads)
            else:  # stem: the encoded frames need no gradient
                self._cbn_backward(unit.cbn, grads, need_input=False)

    def _head_backward(self, g_score: np.ndarray) -> np.ndarray:
        plan = self.plan
        num_steps, n, channels, height, width = self._geom["head"]
        # membrane-mean readout: score = total / num_steps
        seed = g_score / np.asarray(float(num_steps), dtype=self._score_dtype)
        g_logits = np.empty((num_steps,) + seed.shape, seed.dtype)
        carry = None
        for t in range(num_steps - 1, -1, -1):
            g_out = seed if carry is None else carry + seed
            if plan.integrator is not None and t > 0:
                carry = g_out * self._int_beta
            g_logits[t] = g_out
        pooled = self.stashed("head.pooled")
        g_weight = np.swapaxes(pooled, -1, -2) @ g_logits
        g_bias = g_logits.sum(axis=1) if plan.fc.bias is not None else None
        for t in range(num_steps - 1, -1, -1):
            if g_bias is not None:
                plan.fc.bias.accumulate_grad(g_bias[t])
            plan.fc.weight.accumulate_grad(np.transpose(g_weight[t]))
        grad = (g_logits @ np.swapaxes(self._fc_wt, -1, -2)) / (height * width)
        self._lap("head")
        # a read-only broadcast view: every consumer reads it elementwise
        return np.broadcast_to(grad[..., None, None], self._geom["head"])

    def _pool_backward(self, unit: _Unit, grads: List[np.ndarray]) -> np.ndarray:
        """The registered pool vjp's col2im over all steps: taps add into zeros in order.

        The result lands in the ``conv`` scratch the transition's neuron
        adjoint computes in, which then runs in place.
        """
        self._lap(None)
        t, n, c, h, w = self._geom[unit]
        (kh, kw), _, (ph, pw) = unit.pool
        # the pooled output's spent forward buffer holds the scaled gradient
        scaled = self._cm_scratch("pool", grads[0].shape)
        np.multiply(self._sum(grads, scaled), 1.0 / (kh * kw), out=scaled)
        padded = self._cm_scratch("conv", (t, n, c, h + 2 * ph, w + 2 * pw))
        padded[...] = 0.0
        for tap in self._pool_taps(unit, padded.shape)[1]:
            padded[tap] += scaled
        self._lap("pool")
        return padded[..., ph : ph + h, pw : pw + w]

    @staticmethod
    def _sum(grads: List[np.ndarray], out: np.ndarray) -> np.ndarray:
        """The contributions summed in the graph's order (into ``out`` if several)."""
        if len(grads) == 1:
            return grads[0]
        total = np.add(grads[0], grads[1], out=out)
        for g in grads[2:]:
            total += g
        return total

    def _cbn_backward(self, cbn: _CBN, grads: List[np.ndarray], need_input: bool):
        self._lap(None)
        g = self._neuron_backward(cbn, grads)
        self._lap("neuron")
        g = self._bn_backward(cbn, g)
        self._lap("bn")
        into = None
        if need_input:  # into a spent residual: the centred activations, else the input
            staged, xc = self._staged(cbn.op), self.stashed(f"b{cbn.index}.xc")
            into = xc if xc.shape == staged.shape else staged
        g = self._conv_backward(cbn.op, g, into)
        self._lap("conv")
        return g

    def _neuron_backward(self, cbn: _CBN, grads: List[np.ndarray]) -> np.ndarray:
        """dL/dmembrane into the ``conv`` scratch: the spike vjp over all steps at
        once, then the membrane carry from step ``t + 1`` step by step, landing
        after the local term as in the graph sweep."""
        pseudo = self.stashed(f"n{cbn.index}.pseudo")
        g_membrane = self._cm_scratch("conv", pseudo.shape)
        np.multiply(self._sum(grads, g_membrane), pseudo, out=g_membrane)
        # the decay in the forward dtype, as the graph's scalar operand
        decay = g_membrane.dtype.type(cbn.neuron.beta)
        keep = None
        if cbn.neuron.reset_mechanism == "zero":
            # the pseudo-derivative is spent: its buffer holds 1 - spikes
            keep = np.subtract(1.0, self.stashed(f"n{cbn.index}.spikes"), out=pseudo)
        # reset terms are detached, so the subtract reset carries unchanged;
        # at t=0 the membrane *is* the synaptic input
        carry = None
        for t in range(g_membrane.shape[0] - 1, 0, -1):
            step = g_membrane[t]
            if carry is not None:
                step += carry
            carry = np.multiply(step, decay, out=carry)
            if keep is not None:
                carry *= keep[t - 1]
        if carry is not None:
            g_membrane[0] += carry
        return g_membrane

    def _bn_backward(self, cbn: _CBN, g_out: np.ndarray) -> np.ndarray:
        """The batch-norm adjoint over all steps, in place in ``g_out``.  Every
        array it sums is channel-major like the graph's gradient buffers: NumPy's
        pairwise sums walk memory order, so layout decides the bits."""
        norm = cbn.norm
        xc = self.stashed(f"b{cbn.index}.xc")
        denom = self.stashed(f"b{cbn.index}.denom")
        p = self.stashed(f"b{cbn.index}.p")
        num_steps, n, features, h, w = xc.shape
        count = n * h * w
        prod = self.stashed(f"n{cbn.index}.pseudo")  # spent by the neuron adjoint
        # _unbroadcast of a step's (N,C,H,W) grad to (1,C,1,1) sums axes (0,2,3)
        g_bias = g_out.sum(axis=(1, 3, 4))
        np.divide(xc, denom, out=prod)  # normalized, recomputed bit-identically
        prod *= g_out
        g_weight = prod.sum(axis=(1, 3, 4))
        for t in range(num_steps - 1, -1, -1):
            norm.bias.accumulate_grad(g_bias[t])
            norm.weight.accumulate_grad(g_weight[t])
        g_norm = np.multiply(g_out, norm.weight.data.reshape(1, 1, features, 1, 1), out=g_out)
        # div vjp: a-side g / b, b-side -g * a / b**2 reduced over broadcast axes;
        # negation is exact and rounding symmetric, so it moves past the sum
        np.multiply(g_norm, xc, out=prod)
        prod /= denom ** 2
        g_denom = -prod.sum(axis=(1, 3, 4), keepdims=True)
        g_centered = np.divide(g_norm, denom, out=g_out)
        # power vjp for denom = p ** 0.5, then the eps-add passes through
        g_var = g_denom * 0.5 * p ** (0.5 - 1)
        # mean vjp (keepdims): fan the variance gradient back over the batch;
        # centered * centered contributes the same term through both factor slots
        np.multiply(g_var / count, xc, out=prod)
        g_centered += prod
        g_centered += prod
        # centered = x - mean: identity into x plus the mean's fan-out
        g_mean = -g_centered.sum(axis=(1, 3, 4), keepdims=True)
        np.add(g_centered, g_mean / count, out=g_centered)
        return g_centered

    def _staged(self, op: _ConvOp) -> np.ndarray:
        """The interior of ``op``'s padded input residual (its input, as staged)."""
        n, c, h, w = self._geom[op.key][:4]
        return self.stashed(op.key + ".pad")[..., op.ph : op.ph + h, op.pw : op.pw + w]

    def _conv_backward(self, op: _ConvOp, g: np.ndarray, into=None) -> Optional[np.ndarray]:
        """The registered conv vjp, one call per step in reverse time.

        Writes the input gradient into ``into`` (``None``: not needed); a
        step's slot is written only after that step's vjp has read its input.
        """
        n, c, h, w, oh, ow = self._geom[op.key]
        pad = self.stashed(op.key + ".pad")
        weight = op.conv.weight.data
        w_g = weight.reshape(op.groups, weight.shape[0] // op.groups, c // op.groups, op.kh, op.kw)
        geometry = (n, c, h, w, op.kh, op.kw, op.sh, op.sw, op.ph, op.pw, oh, ow, weight.shape[0], weight.shape)
        for t in range(g.shape[0] - 1, -1, -1):
            col = _im2col_view(pad[t], op.kh, op.kw, op.sh, op.sw, oh, ow)
            col_g = col.reshape(n, op.groups, c // op.groups, op.kh, op.kw, oh, ow)
            grads = _conv2d_vjp(
                (col_g, w_g, geometry),
                g[t],
                (into is not None, True),
                stride=(op.sh, op.sw),
                padding=(op.ph, op.pw),
                groups=op.groups,
            )
            op.conv.weight.accumulate_grad(grads[1])
            if into is not None:
                into[t] = grads[0]
        return into

    def _block_backward(self, unit: _Unit, grads: List[np.ndarray]) -> List[np.ndarray]:
        layers = unit.layers
        node_grads: List[List[np.ndarray]] = [[] for _ in layers] + [grads]
        for layer_index in range(len(layers) - 1, -1, -1):
            layer = layers[layer_index]
            g = self._cbn_backward(layer.cbn, node_grads[layer_index + 1], need_input=True)
            g_seq = g[:, :, : layer.seq_channels] if layer.concat else g
            offset = layer.seq_channels
            for source, source_channels in layer.concat:
                node_grads[source].append(g[:, :, offset : offset + source_channels])
                offset += source_channels
            for source, projection in reversed(layer.asc):
                g_source = g_seq
                if projection is not None:
                    self._lap(None)
                    g_source = self._conv_backward(projection, g_seq, self._staged(projection))
                    self._lap("conv")
                node_grads[source].append(g_source)
            node_grads[layer_index].append(g_seq)
        return node_grads[0]
