"""End-to-end runs of the command-line interface."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from netscaffold.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    WORKERS_ENV,
    main,
    resolve_workers,
)
from netscaffold.graph import GraphFormatError, parse_edge_list, serialize_edge_list
from netscaffold.randnet import gen_er_null, gen_ws_weighted
from netscaffold.scaffold import parse_scaffold_csv


def write_graph(tmp_path, g, name="net.edges"):
    path = tmp_path / name
    path.write_text(serialize_edge_list(g))
    return path


class TestResolveWorkers:
    def test_cli_value_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_floor_is_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-4) == 1

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "lots")
        with pytest.raises(GraphFormatError):
            resolve_workers(None)


class TestGenerate:
    def test_ws_round_trips(self, tmp_path):
        out = tmp_path / "g.edges"
        code = main(
            [
                "generate", "--model", "ws", "--n", "12", "--k", "4",
                "--p", "0.1", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert parse_edge_list(out.read_text()) == gen_ws_weighted(12, 4, 0.1, seed=3)

    def test_er_model(self, tmp_path):
        out = tmp_path / "g.edges"
        code = main(
            ["generate", "--model", "er", "--n", "8", "--m", "12", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert parse_edge_list(out.read_text()) == gen_er_null(8, 12, seed=0)

    def test_config_file_wins(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "er", "params": {"n": 6, "m": 5}, "seed": 2}))
        out = tmp_path / "g.edges"
        code = main(
            [
                "generate", "--model", "ws", "--config", str(cfg),
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert parse_edge_list(out.read_text()) == gen_er_null(6, 5, seed=2)

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["--model", "ws", "--n", "10"], None),
            ([], [1]),
            ([], {"model": "ws", "params": [1]}),
            ([], {"model": "ws", "params": {"n": 5}}),
            ([], {"params": {"n": 5, "m": 3}}),
        ],
        ids=[
            "flag_missing_k_p",
            "config_not_object",
            "config_params_not_object",
            "config_missing_k_p",
            "config_no_model",
        ],
    )
    def test_missing_params_is_data_error(self, tmp_path, capsys, argv, config):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        code = main(["generate", *argv, "--out", str(tmp_path / "g")])
        assert code == EXIT_DATA
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        argv = ["generate", "--model", "rgg", "--n", "15", "--threshold", "0.4"]
        assert main(argv + ["--seed", "9", "--out", str(a)]) == EXIT_OK
        assert main(argv + ["--seed", "9", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestScaffoldCommand:
    def run_on(self, tmp_path, g, extra=(), name="net.edges"):
        path = write_graph(tmp_path, g, name)
        outdir = tmp_path / "out"
        code = main(
            ["scaffold", "--input", str(path), "--output-dir", str(outdir), *extra]
        )
        return code, outdir

    def test_all_outputs_exist(self, tmp_path, theta_graph):
        code, outdir = self.run_on(tmp_path, theta_graph)
        assert code == EXIT_OK
        for suffix in (
            "barcode.csv", "barcode.json", "loose.csv", "minimal.csv",
            "minimal_draws.csv", "loose_ranking.csv", "minimal_ranking.csv",
            "minimal_draws_ranking.csv", "report.json",
        ):
            assert (outdir / f"net_{suffix}").exists(), suffix

    def test_minimal_csv_content(self, tmp_path, theta_graph):
        _, outdir = self.run_on(tmp_path, theta_graph)
        s = parse_scaffold_csv((outdir / "net_minimal.csv").read_text())
        assert dict(((u, v), w) for u, v, w in s.edge_weights) == {
            (0, 1): Fraction(3),
            (0, 3): Fraction(2),
            (1, 2): Fraction(3),
            (2, 3): Fraction(2),
            (0, 4): Fraction(1),
            (2, 4): Fraction(1),
        }

    def test_report_records_pathology(self, tmp_path, theta_graph):
        _, outdir = self.run_on(tmp_path, theta_graph)
        report = json.loads((outdir / "net_report.json").read_text())
        minimal = report["scaffolds"]["minimal"]
        assert minimal["n_pathology_events"] == 1
        assert minimal["pathology_events"][0]["level"] == "5"

    def test_which_loose_skips_minimal(self, tmp_path, theta_graph):
        code, outdir = self.run_on(tmp_path, theta_graph, extra=("--which", "loose"))
        assert code == EXIT_OK
        assert (outdir / "net_loose.csv").exists()
        assert not (outdir / "net_minimal.csv").exists()
        assert not (outdir / "net_minimal_draws.csv").exists()

    def test_adjacency_format(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1,0\n1,0,2\n0,2,0\n")
        outdir = tmp_path / "out"
        code = main(
            [
                "scaffold", "--input", str(path), "--format", "adjacency",
                "--output-dir", str(outdir),
            ]
        )
        assert code == EXIT_OK
        assert (outdir / "m_barcode.csv").exists()

    def test_descending_orientation_runs(self, tmp_path, theta_graph):
        code, outdir = self.run_on(
            tmp_path, theta_graph, extra=("--orientation", "descending")
        )
        assert code == EXIT_OK
        assert (outdir / "net_report.json").exists()

    def test_mu_weights_original(self, tmp_path, theta_graph):
        code, outdir = self.run_on(
            tmp_path,
            theta_graph,
            extra=("--orientation", "descending", "--mu-weights", "original"),
        )
        assert code == EXIT_OK

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(
            [
                "scaffold", "--input", str(tmp_path / "nope.edges"),
                "--output-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_IO

    @pytest.mark.parametrize(
        "text",
        [
            "0,1\n",
            '{"n_vertices": null}\n0,1,1\n',
            '{"labels": 5}\n0,1,1\n',
            # the square dies at 1e400, past the float range
            "0,1,1\n1,2,1\n2,3,1\n0,3,1\n0,2,1e400\n",
        ],
        ids=["short_row", "null_n_vertices", "scalar_labels", "overflow_weight"],
    )
    def test_malformed_input_is_data_error(self, tmp_path, text):
        path = tmp_path / "bad.edges"
        path.write_text(text)
        code = main(
            ["scaffold", "--input", str(path), "--output-dir", str(tmp_path / "out")]
        )
        assert code == EXIT_DATA

    def test_deterministic_outputs(self, tmp_path, diamond_with_tail):
        _, out1 = self.run_on(tmp_path, diamond_with_tail, name="a.edges")
        path = write_graph(tmp_path, diamond_with_tail, "b.edges")
        out2 = tmp_path / "out2"
        main(["scaffold", "--input", str(path), "--output-dir", str(out2)])
        assert (out1 / "a_minimal_draws.csv").read_text() == (
            out2 / "b_minimal_draws.csv"
        ).read_text()
        assert (out1 / "a_barcode.csv").read_text() == (
            out2 / "b_barcode.csv"
        ).read_text()


class TestPersistenceCommand:
    def test_writes_barcode_only(self, tmp_path, unit_square):
        path = write_graph(tmp_path, unit_square)
        outdir = tmp_path / "out"
        code = main(
            ["persistence", "--input", str(path), "--output-dir", str(outdir)]
        )
        assert code == EXIT_OK
        assert (outdir / "net_barcode.csv").exists()
        assert (outdir / "net_barcode.json").exists()
        assert not (outdir / "net_loose.csv").exists()

    def test_barcode_rows(self, tmp_path, unit_square):
        path = write_graph(tmp_path, unit_square)
        outdir = tmp_path / "out"
        main(["persistence", "--input", str(path), "--output-dir", str(outdir)])
        lines = (outdir / "net_barcode.csv").read_text().strip().splitlines()
        assert lines[0] == "dim,birth,death"
        assert any(row.startswith("1,1.0,") for row in lines[1:])


class TestCompareCommand:
    def test_single_input_mode(self, tmp_path, theta_graph):
        path = write_graph(tmp_path, theta_graph)
        outdir = tmp_path / "out"
        code = main(
            [
                "compare", "--input", str(path), "--nulls", "none",
                "--output-dir", str(outdir),
            ]
        )
        assert code == EXIT_OK
        report = json.loads((outdir / "comparison.json").read_text())
        assert "betweenness" in report
        assert "main" in report["betweenness"]

    def test_batch_mode_writes_rows_and_aggregate(self, tmp_path):
        outdir = tmp_path / "out"
        code = main(
            [
                "compare", "--model", "rgg", "--sample", "2", "--n", "12",
                "--threshold", "0.45", "--seed", "1",
                "--output-dir", str(outdir),
            ]
        )
        assert code == EXIT_OK
        rows = (outdir / "comparison_rows.csv").read_text().strip().splitlines()
        assert rows[0] == (
            "instance,metric,slot,pearson,spearman,ks_stat,ks_p,ks_inconclusive"
        )
        assert len(rows) > 1
        agg = json.loads((outdir / "comparison.json").read_text())
        assert "degree" in agg
        slots = agg["degree"]
        assert "main" in slots and "a_vs_null_b" in slots

    def test_no_input_no_model_is_data_error(self, tmp_path):
        code = main(["compare", "--output-dir", str(tmp_path / "out")])
        assert code == EXIT_DATA


class TestBenchCommand:
    def test_writes_timing_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench", "--sizes", "8", "--seeds", "2", "--p", "0.1",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "model,n,k,p,seed,loose_ms,minimal_ms"
        assert len(rows) == 3
        for row in rows[1:]:
            parts = row.split(",")
            assert parts[0] == "ws"
            assert int(parts[1]) == 8
            assert int(parts[2]) == 4  # defaults to n // 2
            assert float(parts[5]) >= 0.0
            assert float(parts[6]) >= 0.0

    def test_empty_sizes_is_data_error(self, tmp_path):
        code = main(["bench", "--sizes", ",", "--out", str(tmp_path / "b.csv")])
        assert code == EXIT_DATA


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["scaffold", "--output-dir", "x"])
        assert exc.value.code == 2
