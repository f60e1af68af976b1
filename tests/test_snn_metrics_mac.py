"""Tests of firing-rate monitoring, MAC counting and energy estimation."""

import numpy as np
import pytest

from repro.nn import Conv2d, GlobalAvgPool2d, Linear, Sequential
from repro.snn import (
    FiringRateMonitor,
    LeakyIntegrator,
    LIFNeuron,
    MACCounter,
    TemporalRunner,
    average_firing_rate,
    estimate_block_macs,
    estimate_energy,
    estimate_model_macs,
)
from repro.snn.mac import conv2d_macs, linear_macs
from repro.core.adjacency import ASC, DSC, BlockAdjacency
from repro.tensor import Tensor


def _snn(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(1, 4, 3, padding=1, rng=rng),
        LIFNeuron(beta=0.9),
        Conv2d(4, 4, 3, padding=1, rng=rng),
        LIFNeuron(beta=0.9),
        GlobalAvgPool2d(),
        Linear(4, 3, rng=rng),
        LeakyIntegrator(),
    )


class TestFiringRateMonitor:
    def test_records_all_spiking_layers(self):
        model = _snn()
        monitor = FiringRateMonitor(model)
        runner = TemporalRunner(model, num_steps=5)
        with monitor:
            runner(np.random.default_rng(0).random((3, 1, 6, 6)))
        stats = monitor.statistics()
        assert len(stats.per_layer_rate) == 2
        assert stats.num_steps == 5

    def test_rates_bounded(self):
        model = _snn()
        monitor = FiringRateMonitor(model)
        with monitor:
            TemporalRunner(model, num_steps=4)(np.random.default_rng(0).random((2, 1, 5, 5)))
        stats = monitor.statistics()
        assert 0.0 <= stats.average_firing_rate <= 1.0
        assert 0.0 <= stats.average_firing_rate_percent <= 100.0

    def test_recording_disabled_after_exit(self):
        model = _snn()
        monitor = FiringRateMonitor(model)
        with monitor:
            pass
        neurons = [m for m in model.modules() if isinstance(m, LIFNeuron)]
        assert all(not n.record_spikes for n in neurons)

    def test_stronger_input_raises_firing_rate(self):
        model = _snn()
        runner = TemporalRunner(model, num_steps=5)
        rates = {}
        for scale in (0.1, 3.0):
            monitor = FiringRateMonitor(model)
            with monitor:
                runner(np.random.default_rng(0).random((2, 1, 5, 5)) * scale)
            rates[scale] = monitor.statistics().average_firing_rate
        assert rates[3.0] >= rates[0.1]

    def test_statistics_summary_text(self):
        model = _snn()
        monitor = FiringRateMonitor(model)
        with monitor:
            TemporalRunner(model, num_steps=2)(np.random.default_rng(0).random((1, 1, 5, 5)))
        text = monitor.statistics().summary()
        assert "average firing rate" in text

    def test_average_firing_rate_helper(self):
        model = _snn()
        monitor = FiringRateMonitor(model)
        with monitor:
            TemporalRunner(model, num_steps=3)(np.random.default_rng(0).random((1, 1, 5, 5)))
            rate = average_firing_rate(model)
        assert 0.0 <= rate <= 1.0

    def test_no_spiking_layers_gives_zero(self):
        ann = Sequential(Linear(3, 2))
        monitor = FiringRateMonitor(ann)
        with monitor:
            ann(Tensor(np.zeros((1, 3))))
        assert monitor.statistics().average_firing_rate == 0.0

    def test_clear_resets_records(self):
        model = _snn()
        monitor = FiringRateMonitor(model)
        with monitor:
            TemporalRunner(model, num_steps=2)(np.random.default_rng(0).random((1, 1, 5, 5)))
            monitor.clear()
        assert monitor.statistics().total_spikes == 0.0


class TestMACCounting:
    def test_conv_macs_formula(self):
        assert conv2d_macs(3, 8, (3, 3), 4, 4, groups=1) == 4 * 4 * 8 * 3 * 9
        assert conv2d_macs(8, 8, (3, 3), 4, 4, groups=8) == 4 * 4 * 8 * 1 * 9

    def test_linear_macs_formula(self):
        assert linear_macs(128, 10) == 1280

    def test_counter_traces_model(self):
        model = _snn()
        report = MACCounter(model).count(np.zeros((1, 1, 6, 6)))
        # conv1: 36*4*1*9 ; conv2: 36*4*4*9 ; linear: 12
        assert report.total == 36 * 4 * 9 + 36 * 16 * 9 + 12
        assert len(report.per_layer) == 3

    def test_counter_restores_forward(self):
        model = _snn()
        MACCounter(model).count(np.zeros((1, 1, 6, 6)))
        # forward still works normally afterwards (no stale monkeypatch)
        out = TemporalRunner(model, num_steps=2)(np.zeros((1, 1, 6, 6)))
        assert out.shape == (1, 3)

    def test_estimate_model_macs_helper(self):
        model = _snn()
        assert estimate_model_macs(model, np.zeros((1, 1, 6, 6))) > 0

    def test_report_summary(self):
        model = _snn()
        report = MACCounter(model).count(np.zeros((1, 1, 6, 6)))
        assert "total MACs" in report.summary()

    def test_dsc_increases_macs_asc_does_not(self):
        """The paper's central energy argument: concatenation adds MACs, addition does not."""
        depth, channels, size = 4, 8, 6
        no_skip = estimate_block_macs(BlockAdjacency(depth).matrix, channels, size, size)
        asc = estimate_block_macs(
            BlockAdjacency.with_final_layer_skips(depth, 3, ASC).matrix, channels, size, size
        )
        dsc = estimate_block_macs(
            BlockAdjacency.with_final_layer_skips(depth, 3, DSC).matrix, channels, size, size
        )
        assert asc == no_skip
        assert dsc > no_skip

    def test_estimate_block_macs_scales_with_depth(self):
        shallow = estimate_block_macs(BlockAdjacency(2).matrix, 4, 8, 8)
        deep = estimate_block_macs(BlockAdjacency(4).matrix, 4, 8, 8)
        assert deep == 2 * shallow


class TestEnergyEstimate:
    def test_lower_firing_rate_means_lower_energy(self):
        low = estimate_energy(1e6, firing_rate=0.1, num_steps=10)
        high = estimate_energy(1e6, firing_rate=0.5, num_steps=10)
        assert low.snn_energy_nj < high.snn_energy_nj
        assert low.ann_energy_nj == high.ann_energy_nj

    def test_sparse_snn_beats_ann(self):
        estimate = estimate_energy(1e6, firing_rate=0.1, num_steps=10)
        assert estimate.snn_to_ann_ratio < 1.0

    def test_dense_snn_loses_to_ann(self):
        estimate = estimate_energy(1e6, firing_rate=0.9, num_steps=25)
        assert estimate.snn_to_ann_ratio > 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            estimate_energy(1e6, firing_rate=1.5, num_steps=10)
        with pytest.raises(ValueError):
            estimate_energy(1e6, firing_rate=0.5, num_steps=0)
