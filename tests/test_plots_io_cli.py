"""Tests of ASCII plotting, result serialisation and the command-line interface."""

import json

import numpy as np
import pytest

from repro.core.adjacency import ASC, BlockAdjacency
from repro.core.search_space import ArchitectureSpec
from repro.experiments import (
    Figure1Point,
    Figure1Result,
    Figure3Result,
    Table1Result,
    Table1Row,
    ascii_bar_chart,
    ascii_line_chart,
    load_result,
    plot_figure1,
    plot_figure3,
    save_result,
)
from repro.experiments.io import spec_from_dict, spec_to_dict
from repro.cli import build_parser, main


def _figure1_result():
    result = Figure1Result(connection_type="asc", dataset_name="toy")
    for n in range(4):
        result.points.append(
            Figure1Point("asc", n, ann_accuracy=0.6 + 0.02 * n, snn_accuracy=0.4 + 0.05 * n,
                         firing_rate=0.1 + 0.02 * n, macs_per_step=1000.0 + 10 * n)
        )
    return result


def _figure3_result():
    result = Figure3Result(dataset_name="toy", model_name="resnet18")
    result.bo_curve.runs = [[0.3, 0.5, 0.6], [0.35, 0.45, 0.65]]
    result.rs_curve.runs = [[0.3, 0.4, 0.45], [0.3, 0.35, 0.5]]
    return result


def _table1_result():
    table = Table1Result()
    table.rows.append(Table1Row("cifar10", "resnet18", 0.9, 0.6, 0.75, 0.12, 0.18, 0.15))
    table.rows.append(Table1Row("cifar10-dvs", "densenet121", None, 0.5, 0.62, 0.1, 0.14, 0.12))
    return table


class TestAsciiPlots:
    def test_line_chart_contains_markers_and_legend(self):
        chart = ascii_line_chart({"a": [0.1, 0.5, 0.9], "b": [0.2, 0.3, 0.4]}, width=30, height=8)
        assert "*" in chart and "o" in chart
        assert "a" in chart and "b" in chart

    def test_line_chart_flat_series(self):
        chart = ascii_line_chart({"flat": [0.5, 0.5, 0.5]}, width=20, height=5)
        assert "flat" in chart

    def test_line_chart_rejects_empty(self):
        with pytest.raises(ValueError):
            ascii_line_chart({})
        with pytest.raises(ValueError):
            ascii_line_chart({"a": []})

    def test_bar_chart_scales_to_max(self):
        chart = ascii_bar_chart(["x", "y"], {"metric": [1.0, 2.0]}, width=10)
        lines = [line for line in chart.splitlines() if "#" in line]
        assert len(lines[1].split("|")[1].strip().split(" ")[0]) >= len(lines[0].split("|")[1].strip().split(" ")[0])

    def test_bar_chart_rejects_empty_groups(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], {})

    def test_plot_figure1(self):
        text = plot_figure1(_figure1_result())
        assert "Figure 1 (d)" in text and "firing rate" in text

    def test_plot_figure3(self):
        text = plot_figure3(_figure3_result())
        assert "Our HPO" in text and "random search" in text


class TestResultIO:
    def test_spec_roundtrip(self):
        spec = ArchitectureSpec([BlockAdjacency(4).with_connection(0, 2, ASC), BlockAdjacency(3)], name="x")
        restored = spec_from_dict(spec_to_dict(spec))
        assert restored == spec

    def test_figure1_roundtrip(self, tmp_path):
        original = _figure1_result()
        path = save_result(original, tmp_path / "fig1.json")
        restored = load_result(path)
        assert restored.connection_type == original.connection_type
        assert restored.snn_accuracies() == pytest.approx(original.snn_accuracies())
        assert restored.macs() == pytest.approx(original.macs())

    def test_figure3_roundtrip(self, tmp_path):
        original = _figure3_result()
        path = save_result(original, tmp_path / "fig3.json")
        restored = load_result(path)
        np.testing.assert_allclose(restored.bo_curve.mean(), original.bo_curve.mean())
        np.testing.assert_allclose(restored.rs_curve.std(), original.rs_curve.std())

    def test_table1_roundtrip(self, tmp_path):
        original = _table1_result()
        path = save_result(original, tmp_path / "table1.json")
        restored = load_result(path)
        assert len(restored.rows) == 2
        assert restored.rows[1].ann_accuracy is None
        assert restored.average_improvement() == pytest.approx(original.average_improvement())

    def test_saved_file_is_plain_json(self, tmp_path):
        path = save_result(_table1_result(), tmp_path / "t.json")
        payload = json.loads(path.read_text())
        assert payload["kind"] == "Table1Result"

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_result(object(), tmp_path / "x.json")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "Mystery", "data": {}}))
        with pytest.raises(ValueError):
            load_result(path)


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["figure1", "--type", "dsc", "--scale", "smoke"])
        assert args.command == "figure1" and args.connection_type == "dsc"
        args = parser.parse_args(["table1", "--datasets", "cifar10-dvs", "--models", "resnet18"])
        assert args.datasets == ["cifar10-dvs"]
        args = parser.parse_args(["figure3", "--runs", "2"])
        assert args.runs == 2
        args = parser.parse_args(["adapt", "--model", "mobilenetv2"])
        assert args.model == "mobilenetv2"

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        captured = capsys.readouterr().out
        assert "cifar10-dvs" in captured and "resnet18" in captured

    @pytest.mark.parametrize("argv", [["explode"], ["cache", "compact", "--cache-dir", "x"]])
    def test_unknown_command_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("command", ["table1", "figure3", "adapt", "pareto"])
    def test_hidden_shard_flag_is_a_no_op(self, command, capsys):
        """The benchmark's pareto_async2 workload still passes the flag."""
        assert build_parser().parse_args([command, "--sharded-cache"]).command == command
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        printed = capsys.readouterr().out
        assert "--cache-dir" in printed and "shard" not in printed

    def test_figure1_command_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        output = tmp_path / "fig1.json"
        code = main(["figure1", "--type", "asc", "--scale", "smoke", "--plot", "--output", str(output)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Figure 1 (d)" in captured
        assert output.exists()
        restored = load_result(output)
        assert len(restored.points) == 4
