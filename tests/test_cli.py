"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main, make_parser


@pytest.fixture()
def flow_csv(tmp_path):
    path = tmp_path / "flows.csv"
    lines = ["# comment", ""]
    lines += [f"flow-{i},{i % 4}" for i in range(2_000)]
    path.write_text("\n".join(lines))
    return path


class TestBuildAndQuery:
    def test_build_lookup_roundtrip(self, flow_csv, tmp_path, capsys):
        snapshot = tmp_path / "gpt.snap"
        assert main(["build", str(flow_csv), str(snapshot), "--nodes", "4"]) == 0
        assert snapshot.exists()
        out = capsys.readouterr().out
        assert "2,000 keys" in out

        assert main(
            ["lookup", str(snapshot), "flow-5", "flow-6", "--nodes", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "flow-5 -> node 1" in out
        assert "flow-6 -> node 2" in out

    def test_info(self, flow_csv, tmp_path, capsys):
        snapshot = tmp_path / "gpt.snap"
        main(["build", str(flow_csv), str(snapshot)])
        capsys.readouterr()
        assert main(["info", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "16+8" in out
        assert "2-bit values" in out

    def test_build_rejects_malformed_lines(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("justonefield\n")
        assert main(["build", str(bad), str(tmp_path / "x.snap")]) == 2

    def test_build_rejects_empty_input(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing\n")
        assert main(["build", str(empty), str(tmp_path / "x.snap")]) == 2


class TestScale:
    def test_scale_prints_table(self, capsys):
        assert main(["scale", "--max-nodes", "8"]) == 0
        out = capsys.readouterr().out
        assert "ScaleBricks" in out
        assert "peak ScaleBricks advantage" in out
        assert out.count("\n") >= 10

    def test_scale_respects_entry_bits(self, capsys):
        main(["scale", "--max-nodes", "4", "--entry-bits", "128"])
        out = capsys.readouterr().out
        assert "128-bit entries" in out


class TestGateway:
    def test_gateway_simulation(self, capsys):
        code = main(
            [
                "gateway",
                "--architecture", "scalebricks",
                "--flows", "500",
                "--packets", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "loss 0.00%" in out
        assert "GPT" in out

    def test_gateway_other_architecture(self, capsys):
        code = main(
            [
                "gateway",
                "--architecture", "hash_partition",
                "--flows", "400",
                "--packets", "150",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hash_partition" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        ["serve-api", "--replicas", "3"],
        ["ctl", "status"],
        ["ctl", "committed"],
        ["ctl", "fail-leader"],
    ])
    def test_ops_replication_options_are_refused(self, argv, capsys):
        # The operator API serves one controller; runtime-demo
        # --replicas is the replicated control plane.
        with pytest.raises(SystemExit) as exc:
            make_parser().parse_args(argv)
        assert exc.value.code == 2
        assert argv[-1] in capsys.readouterr().err


class TestJsonOutput:
    def test_info_json(self, flow_csv, tmp_path, capsys):
        import json

        snapshot = tmp_path / "gpt.snap"
        main(["build", str(flow_csv), str(snapshot)])
        capsys.readouterr()
        assert main(["info", str(snapshot), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["value_bits"] == 2
        assert parsed["size_bytes"] > 0
        assert parsed["capacity_keys"] == parsed["blocks"] * 1024

    def test_scale_json(self, capsys):
        import json

        assert main(["scale", "--max-nodes", "8", "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert len(parsed["curve"]) == 8
        assert parsed["curve"][0]["nodes"] == 1
        assert parsed["peak_advantage"]["ratio"] > 1.0


class TestStats:
    def test_stats_text(self, capsys):
        assert main(["stats", "--flows", "300", "--packets", "120"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "gateway.downstream.packets_in" in out
        assert "histograms:" in out
        assert "span.downstream_us" in out

    def test_stats_json(self, capsys):
        import json

        assert main(
            ["stats", "--flows", "300", "--packets", "120", "--json"]
        ) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["counters"]["gateway.downstream.packets_in"] == 120
        assert parsed["counters"]["gateway.downstream.tunnelled"] > 0
        # The trial runs the 120 frames as one batch: one span per call.
        assert parsed["counters"]["gateway.fastpath.frames"] == 120
        assert parsed["histograms"]["span.downstream_us"]["count"] == 1


class TestMetricsJson:
    def test_gateway_metrics_json(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "metrics.json"
        code = main(
            [
                "gateway",
                "--flows", "300",
                "--packets", "150",
                "--metrics-json", str(out_path),
            ]
        )
        assert code == 0
        assert "metrics written" in capsys.readouterr().out
        parsed = json.loads(out_path.read_text())
        assert parsed["counters"]["gateway.downstream.packets_in"] == 150
        assert parsed["counters"]["gateway.bytes_charged"] > 0
        assert parsed["histograms"]["span.downstream.dpe_us"]["count"] > 0
        assert parsed["histograms"]["gateway.fabric_hop_us"]["count"] > 0
