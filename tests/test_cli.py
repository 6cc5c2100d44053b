"""CLI tests (invoked in-process through repro.cli.main)."""

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.mtx"])
        assert args.kind == "er" and args.n == 1000

    def test_spmspv_options(self):
        args = build_parser().parse_args(
            ["spmspv", "--nodes", "4", "--comm", "bulk", "--sort", "radix"]
        )
        assert args.nodes == 4 and args.comm == "bulk" and args.sort == "radix"


class TestCommands:
    def test_generate_and_bfs(self, tmp_path, capsys):
        out = tmp_path / "g.mtx"
        assert main(["generate", str(out), "--n", "200", "--degree", "4"]) == 0
        assert out.exists()
        assert main(["bfs", str(out), "--top", "2"]) == 0
        text = capsys.readouterr().out
        assert "reached" in text and "level 0: 1 vertices" in text

    def test_generate_rmat(self, tmp_path, capsys):
        out = tmp_path / "r.mtx"
        assert main(["generate", str(out), "--kind", "rmat", "--scale", "6"]) == 0
        a = repro.read_matrix_market(out)
        assert a.nrows == 64

    def test_inline_graph_specs(self, capsys):
        assert main(["cc", "er:100:3"]) == 0
        assert "components" in capsys.readouterr().out
        assert main(["triangles", "er:100:6"]) == 0
        assert "triangles:" in capsys.readouterr().out

    def test_pagerank_top(self, capsys):
        assert main(["pagerank", "er:100:4", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("vertex") == 3

    def test_sssp(self, capsys):
        assert main(["sssp", "er:150:5", "--source", "3"]) == 0
        assert "reachable" in capsys.readouterr().out

    def test_spmspv_shared(self, capsys):
        assert main(["spmspv", "--n", "2000", "--threads", "8"]) == 0
        out = capsys.readouterr().out
        assert "SPA" in out and "Sorting" in out and "total" in out

    def test_spmspv_distributed(self, capsys):
        assert main(
            ["spmspv", "--n", "2000", "--nodes", "4", "--comm", "bulk"]
        ) == 0
        out = capsys.readouterr().out
        assert "Gather Input" in out and "Local Multiply" in out

    def test_spmspv_results_match_modes(self, capsys):
        # fine vs bulk must not change the numeric answer
        main(["spmspv", "--n", "1000", "--nodes", "4", "--comm", "fine"])
        fine = capsys.readouterr().out.splitlines()[0]
        main(["spmspv", "--n", "1000", "--nodes", "4", "--comm", "bulk"])
        bulk = capsys.readouterr().out.splitlines()[0]
        assert fine == bulk  # same nnz(y)


@pytest.mark.telemetry
class TestTelemetryCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["telemetry"])
        assert args.algo == "bfs" and args.nodes == 4 and args.out == "trace.json"

    def test_exports_trace_and_metrics(self, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        csv_out = tmp_path / "trace.csv"
        summary = tmp_path / "summary.json"
        assert main(
            [
                "telemetry", "er:400:6", "--nodes", "4", "--fault-rate", "0.2",
                "--out", str(out), "--csv", str(csv_out),
                "--summary", str(summary), "--metrics", "--profile",
            ]
        ) == 0
        doc = json.loads(out.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["tid"] for e in xs} == {0, 1, 2, 3}
        assert any(e.get("cat") == "retry" for e in xs)
        assert csv_out.exists() and summary.exists()
        text = capsys.readouterr().out
        assert "makespan" in text
        assert "ledger.seconds" in text  # --metrics table
        assert "vxm" in text  # --profile table

    def test_shared_memory_single_track(self, tmp_path):
        import json

        out = tmp_path / "t.json"
        assert main(
            ["telemetry", "er:200:4", "--algo", "bfs", "--nodes", "1",
             "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"} == {0}


@pytest.mark.telemetry
class TestGateCommand:
    def test_gate_subcommand_wires_through(self, tmp_path, capsys):
        # empty results dir → "no gateable baselines" and exit 1
        assert main(["gate", "--results-dir", str(tmp_path)]) == 1
        assert "no gateable baselines" in capsys.readouterr().out

    def test_gate_check_smoke(self, capsys):
        """``python -m repro gate --check`` against the real checked-in
        baselines: structural validation only, so it is suite-speed —
        no ablation re-runs."""
        assert main(["gate", "--check"]) == 0
        out = capsys.readouterr().out
        assert "bench-check" in out
        for bench in ("agg", "frontend", "service", "spgemm", "streaming"):
            assert f"[PASS] bench {bench}" in out


class TestExtendedCommands:
    def test_kcore(self, capsys):
        assert main(["kcore", "er:150:5"]) == 0
        assert "coreness" in capsys.readouterr().out

    def test_ktruss(self, capsys):
        assert main(["ktruss", "er:150:8", "--k", "3"]) == 0
        assert "truss" in capsys.readouterr().out

    def test_coloring(self, capsys):
        assert main(["coloring", "er:100:4"]) == 0
        assert "colours used" in capsys.readouterr().out

    def test_mis(self, capsys):
        assert main(["mis", "er:100:4"]) == 0
        assert "independent set size" in capsys.readouterr().out

    def test_bc(self, capsys):
        assert main(["bc", "er:50:3", "--top", "2"]) == 0
        assert capsys.readouterr().out.count("vertex") == 2

    def test_machine_preset(self, capsys):
        assert main(
            ["spmspv", "--n", "2000", "--nodes", "4", "--machine", "ethernet"]
        ) == 0
        eth = capsys.readouterr().out
        assert main(
            ["spmspv", "--n", "2000", "--nodes", "4", "--machine", "fast-network"]
        ) == 0
        fast = capsys.readouterr().out
        # same numeric answer, different simulated cost
        assert eth.splitlines()[0] == fast.splitlines()[0]
