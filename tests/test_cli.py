"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_advise_defaults(self):
        args = build_parser().parse_args(["advise", "yelp"])
        assert args.command == "advise"
        assert args.family == "decision_tree"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["advise", "netflix"])

    def test_run_arguments(self):
        args = build_parser().parse_args(
            ["run", "movies", "dt_gini", "--strategy", "NoFK", "--scale", "smoke"]
        )
        assert args.model == "dt_gini"
        assert args.strategy == "NoFK"

    def test_fit_arguments(self):
        args = build_parser().parse_args(
            ["fit", "yelp", "lr_l1", "--stream", "--shard-rows", "200"]
        )
        assert args.command == "fit"
        assert args.model == "lr_l1"
        assert args.stream
        assert args.shard_rows == 200

    def test_fit_rejects_unstreamable_model(self):
        # SVMs and 1-NN have no streaming path; trees/NB now do.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fit", "yelp", "svm_rbf"])

    def test_fit_accepts_streamable_tree_and_nb(self):
        for model in ("dt_gini", "nb"):
            args = build_parser().parse_args(["fit", "yelp", model, "--stream"])
            assert args.model == model

    def test_fit_parses_decorator_flags(self):
        args = build_parser().parse_args(
            ["fit", "yelp", "lr_l1", "--stream", "--shard-rows", "50",
             "--prefetch", "2", "--spill-cache"]
        )
        assert args.prefetch == 2
        assert args.spill_cache is True
        args = build_parser().parse_args(
            ["fit", "yelp", "lr_l1", "--stream", "--spill-cache", "/tmp/c"]
        )
        assert args.spill_cache == "/tmp/c"

    def test_simulate_arguments(self):
        args = build_parser().parse_args(
            ["simulate", "--n-r", "2", "8", "--runs", "2", "--csv"]
        )
        assert args.n_r == [2, 8]
        assert args.csv

    def test_save_model_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["save-model", "yelp", "dt_gini"])

    def test_save_model_arguments(self):
        args = build_parser().parse_args(
            [
                "save-model", "yelp", "dt_gini",
                "--strategy", "Advised", "--scale", "smoke",
                "--out", "model.repro-model",
            ]
        )
        assert args.strategy == "Advised"
        assert args.out == "model.repro-model"

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "yelp", "lr_l1", "--stream", "--parallel", "2"],
            ["serve-bench", "yelp", "--clients", "4", "--parallel", "2"],
        ],
    )
    def test_parallel_flag_is_a_usage_error(self, argv):
        """Shard production and serving have one in-process path, so
        there is no worker count to pass."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    def test_serve_bench_arguments(self):
        args = build_parser().parse_args(
            ["serve-bench", "movies", "--rows", "500", "--batch-size", "16"]
        )
        assert args.model == "dt_gini"
        assert args.rows == 500
        assert args.batch_size == 16


class TestCommands:
    def test_advise_prints_report(self, capsys):
        code = main(["advise", "yelp", "--n-fact", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Join-safety advice" in out
        assert "businesses" in out

    def test_stats_prints_all_datasets(self, capsys):
        code = main(["stats", "--n-fact", "400"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("expedia", "flights", "yelp"):
            assert name in out

    def test_chaos_smoke_runs_training_and_serving_legs(self, capsys):
        code = main(["chaos", "yelp", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "  training [ok]" in out
        assert "  serving  [ok]" in out
        assert "  process" not in out
        assert out.rstrip().endswith("chaos soak PASSED")

    def test_run_prints_result(self, capsys):
        code = main(["run", "movies", "dt_gini", "--scale", "smoke"])
        out = capsys.readouterr().out
        assert code == 0
        assert "movies" in out
        assert "test=" in out

    def test_fit_streamed_matches_inmemory(self, capsys):
        code = main(["fit", "yelp", "lr_l1", "--scale", "smoke"])
        inmem = capsys.readouterr().out
        assert code == 0
        code = main(
            ["fit", "yelp", "lr_l1", "--stream", "--shards", "1",
             "--scale", "smoke"]
        )
        streamed = capsys.readouterr().out
        assert code == 0
        assert "streamed 1 shard(s)" in streamed
        # Identical accuracies: single-shard streaming == in-memory
        # (compare up to the wall-clock parenthetical).
        expected = inmem.strip().splitlines()[-1].split(" (")[0]
        assert expected in streamed

    def test_fit_shard_rows_without_stream_errors(self, capsys):
        code = main(["fit", "yelp", "lr_l1", "--shard-rows", "10",
                     "--scale", "smoke"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--stream" in err

    def test_fit_rejects_contradictory_shard_specs(self, capsys):
        """Regression: both --shard-rows and --shards is a hard error.

        The layout flags are two parameterisations of the same shard
        plan; the CLI must refuse the contradiction with a message
        naming both flags, never silently prefer one.
        """
        code = main(["fit", "yelp", "lr_l1", "--stream",
                     "--shard-rows", "10", "--shards", "2",
                     "--scale", "smoke"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--shard-rows" in captured.err and "--shards" in captured.err
        assert "exactly one" in captured.err
        # A usage error must not have started an experiment.
        assert "test=" not in captured.out

    def test_fit_decorator_flags_require_stream(self, capsys):
        code = main(["fit", "yelp", "lr_l1", "--prefetch", "2",
                     "--scale", "smoke"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--stream" in err

    def test_fit_streamed_with_prefetch_and_spill_matches_plain(self, capsys):
        code = main(["fit", "yelp", "nb", "--stream", "--shards", "3",
                     "--scale", "smoke"])
        plain = capsys.readouterr().out
        assert code == 0
        code = main(["fit", "yelp", "nb", "--stream", "--shards", "3",
                     "--prefetch", "2", "--spill-cache", "--scale", "smoke"])
        decorated = capsys.readouterr().out
        assert code == 0
        # Decorators change how shards are produced, never the result.
        expected = plain.strip().splitlines()[-1].split(" (")[0]
        assert expected in decorated

    def test_fit_nonpositive_shard_spec_errors_cleanly(self, capsys):
        code = main(["fit", "yelp", "lr_l1", "--stream", "--shards", "0",
                     "--scale", "smoke"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--shards must be >= 1" in err

    def test_simulate_renders_series(self, capsys):
        code = main(
            ["simulate", "--n-r", "2", "8", "--n-train", "80", "--runs", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "JoinAll" in out and "NoJoin" in out

    def test_simulate_csv(self, capsys):
        code = main(
            ["simulate", "--n-r", "4", "--n-train", "60", "--runs", "1", "--csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "n_r,JoinAll,NoJoin,NoFK"

    def test_usage_reports_split_fractions(self, capsys):
        code = main(["usage", "movies", "--n-fact", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "foreign-key splits" in out

    def test_save_model_then_predict_round_trip(self, capsys, tmp_path):
        path = tmp_path / "yelp.repro-model"
        code = main(
            [
                "save-model", "yelp", "dt_gini",
                "--scale", "smoke", "--out", str(path),
            ]
        )
        assert code == 0
        assert path.exists()
        assert "saved ModelArtifact" in capsys.readouterr().out

        code = main(["predict", str(path), "--rows", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted=" in out
        assert "accuracy" in out

    def test_save_model_advised_strategy(self, capsys, tmp_path):
        path = tmp_path / "advised.repro-model"
        code = main(
            [
                "save-model", "yelp", "dt_gini",
                "--strategy", "Advised", "--scale", "smoke",
                "--out", str(path),
            ]
        )
        assert code == 0
        assert path.exists()

    def test_serve_bench_prints_ratio(self, capsys):
        code = main(
            ["serve-bench", "yelp", "--scale", "smoke", "--rows", "120"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Serving throughput" in out
        assert "micro-batched NoJoin vs single-row JoinAll" in out

    def test_fit_telemetry_writes_nested_span_report(self, capsys, tmp_path):
        """``fit --telemetry`` must cover join/encode/fit/score as spans."""
        import json

        path = tmp_path / "run_report.json"
        code = main(
            ["fit", "yelp", "nb", "--stream", "--shards", "2",
             "--scale", "smoke", "--telemetry", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"telemetry report -> {path}" in out
        report = json.loads(path.read_text())
        assert report["version"] == 1

        def walk(nodes):
            for node in nodes:
                yield node
                yield from walk(node.get("children", []))

        spans = list(walk(report["spans"]))
        names = {span["name"] for span in spans}
        assert {"join", "fit", "score", "encode.shard"} <= names
        # Per-shard encodes fold into merged aggregates, nested under
        # the stage that ran them, not flattened to the root.
        fit_span = next(s for s in report["spans"] if s["name"] == "fit")
        (encode,) = fit_span["children"]
        assert encode["name"] == "encode.shard"
        assert encode["count"] == 2
        assert all(span["wall_s"] >= 0.0 for span in spans)
        # The metrics section rides along and already saw the encodes.
        assert report["metrics"]["data.encode.shards"] >= 2

    def test_serve_bench_reports_latency_percentiles(
        self, capsys, tmp_path
    ):
        import json

        path = tmp_path / "serve_report.json"
        code = main(
            ["serve-bench", "yelp", "--scale", "smoke", "--rows", "120",
             "--telemetry", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        # The rendered report carries the end-to-end latency
        # percentiles per strategy/path configuration.
        for column in ("p50 ms", "p95 ms", "p99 ms"):
            assert column in out
        # And the span report rode along as valid run-report JSON.
        report = json.loads(path.read_text())
        assert report["version"] == 1
