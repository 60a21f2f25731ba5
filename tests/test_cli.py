"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.datasets import (
    MIN_FACT_ROWS,
    MIN_TRAIN_ROWS,
    OneXrScenario,
    generate_real_world,
)


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
             "--spill-cache"]
        )
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
            ["fit", "yelp", "lr_l1", "--stream", "--prefetch", "2"],
        ],
    )
    def test_parallel_flag_is_a_usage_error(self, argv):
        """Shard production and serving have one in-process path, so
        there is no worker count or prefetch depth to pass."""
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
        code = main(["fit", "yelp", "lr_l1", "--spill-cache",
                     "--scale", "smoke"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--stream" in err

    def test_fit_streamed_with_spill_cache_matches_plain(self, capsys):
        code = main(["fit", "yelp", "nb", "--stream", "--shards", "3",
                     "--scale", "smoke"])
        plain = capsys.readouterr().out
        assert code == 0
        code = main(["fit", "yelp", "nb", "--stream", "--shards", "3",
                     "--spill-cache", "--scale", "smoke"])
        decorated = capsys.readouterr().out
        assert code == 0
        # Decorators change how shards are produced, never the result.
        expected = plain.strip().splitlines()[-1].split(" (")[0]
        assert expected in decorated

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fit", "yelp", "lr_l1", "--stream", "--shards", "0",
              "--scale", "smoke"], "--shards"),
            (["fit", "yelp", "lr_l1", "--stream", "--shard-rows", "-4"],
             "--shard-rows"),
            (["fit", "yelp", "nb", "--checkpoint-every", "5"],
             "--checkpoint-dir"),
            (["serve-bench", "yelp", "--arrival-rate", "100"], "--clients"),
            (["serve-bench", "yelp", "--clients", "-3"], "--clients"),
            (["serve-bench", "yelp", "--batch-size", "0"], "--batch-size"),
            (["serve-bench", "yelp", "--rows", "0"], "--rows"),
            (["predict", "model.repro-model", "--rows", "-95"], "--rows"),
            (["predict", "model.repro-model", "--batch-size", "64"],
             "--batch-size"),
            (["simulate", "--n-r", "5", "--runs", "0"], "--runs"),
            (["advise", "yelp", "--n-fact", "0"], "--n-fact"),
            (["usage", "movies", "--n-fact", "0"], "--n-fact"),
            # Positive but below the generators' minimums.
            (["advise", "yelp", "--n-fact", "5"], "--n-fact"),
            (["stats", "--n-fact", "7"], "--n-fact"),
            (["usage", "movies", "--n-fact", "1"], "--n-fact"),
            (["simulate", "--n-train", "1"], "--n-train"),
            (["simulate", "--n-train", "3"], "--n-train"),
        ],
        ids=[
            "fit-shards-0", "fit-shard-rows-negative",
            "fit-checkpoint-every-without-dir",
            "serve-bench-arrival-rate-without-clients",
            "serve-bench-clients-negative", "serve-bench-batch-size-0",
            "serve-bench-rows-0", "predict-rows-negative",
            "predict-batch-size-removed", "simulate-runs-0",
            "advise-n-fact-0",
            "usage-n-fact-0", "advise-n-fact-5", "stats-n-fact-7",
            "usage-n-fact-1", "simulate-n-train-1", "simulate-n-train-3",
        ],
    )
    def test_bad_count_or_missing_companion_flag_is_a_usage_error(
        self, capsys, argv, flag
    ):
        """Counts are integers >= 1, a flag that only tunes another one
        needs it, and a removed flag is unrecognised: each case exits 2
        with one error line naming the flag, before any dataset is
        built."""
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
        captured = capsys.readouterr()
        assert code == 2
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and flag in errors[0], captured.err
        assert captured.out == ""

    def test_dataset_size_floors_are_the_generators_minimums(self):
        """``--n-fact`` and ``--n-train`` accept exactly the smallest
        sizes the generators build."""
        parser = build_parser()
        for argv, attribute, minimum in [
            (["advise", "yelp", "--n-fact"], "n_fact", MIN_FACT_ROWS),
            (["stats", "--n-fact"], "n_fact", MIN_FACT_ROWS),
            (["usage", "movies", "--n-fact"], "n_fact", MIN_FACT_ROWS),
            (["simulate", "--n-train"], "n_train", MIN_TRAIN_ROWS),
        ]:
            args = parser.parse_args([*argv, str(minimum)])
            assert getattr(args, attribute) == minimum
        generate_real_world("yelp", n_fact=MIN_FACT_ROWS)
        OneXrScenario(n_train=MIN_TRAIN_ROWS, n_r=2).sample(seed=0)
        with pytest.raises(ValueError, match="n_fact"):
            generate_real_world("yelp", n_fact=MIN_FACT_ROWS - 1)
        with pytest.raises(ValueError, match="n_train"):
            OneXrScenario(n_train=MIN_TRAIN_ROWS - 1, n_r=2).sample(seed=0)

    def test_streamed_ann_fit_writes_checkpoints(self, capsys, tmp_path):
        code = main(
            ["fit", "yelp", "ann", "--stream", "--shards", "3",
             "--scale", "smoke", "--checkpoint-dir", str(tmp_path)]
        )
        capsys.readouterr()
        assert code == 0
        # Two kept checkpoints: the last shard step of the final epoch
        # and the epoch boundary after it.
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "ckpt-000004-000002.pkl",
            "ckpt-000005-000000.pkl",
        ]

    def test_resumed_fit_reports_the_same_accuracies(self, capsys, tmp_path):
        argv = ["fit", "yelp", "ann", "--stream", "--shards", "3",
                "--scale", "smoke", "--checkpoint-dir", str(tmp_path)]
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        assert main([*argv, "--resume"]) == 0
        resumed = capsys.readouterr().out
        # Compare up to the wall-clock parenthetical.
        scores = fresh.strip().splitlines()[-1].split(" (")[0]
        assert "test=" in scores and "train=" in scores
        assert scores in resumed

    def test_checkpointed_fit_reports_resilience_metrics(
        self, capsys, tmp_path
    ):
        """The runner's checkpoint manager counts into the process-wide
        registry, which ``--telemetry`` writes: 5 smoke epochs x 3
        shards are 15 saves, and the resumed run is one resume."""
        import json

        argv = ["fit", "yelp", "ann", "--stream", "--shards", "3",
                "--scale", "smoke", "--checkpoint-dir", str(tmp_path / "ck")]
        fresh = tmp_path / "fresh.json"
        assert main([*argv, "--telemetry", str(fresh)]) == 0
        metrics = json.loads(fresh.read_text())["metrics"]
        assert metrics["resilience.checkpoints"] == 15
        assert metrics["resilience.checkpoint_bytes"]["count"] == 15
        assert metrics["resilience.resumes"] == 0
        resumed = tmp_path / "resumed.json"
        assert main([*argv, "--resume", "--telemetry", str(resumed)]) == 0
        capsys.readouterr()
        assert json.loads(resumed.read_text())["metrics"][
            "resilience.resumes"
        ] == 1

    @pytest.mark.parametrize("model", ["dt_gini", "nb", "lr_l1"])
    def test_fit_stream_model_refuses_checkpoints(
        self, capsys, tmp_path, model
    ):
        code = main(
            ["fit", "yelp", model, "--stream", "--shards", "3",
             "--scale", "smoke", "--checkpoint-dir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "fit_stream owns its own pass structure" in captured.err
        assert "test=" not in captured.out
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize(
        "model, line",
        [
            ("dt_gini", "serving reads 2 of 40 features (users_fk, "
             "businesses_fk); joins no dimension"),
            ("nn1", "serving reads 40 of 40 features (users_fk, "),
        ],
    )
    def test_predict_says_what_the_server_reads(
        self, capsys, tmp_path, model, line
    ):
        """A JoinAll tree reads the two FKs it splits on and joins
        nothing; a 1-NN reads every feature and joins both dimensions."""
        path = tmp_path / "yelp.repro-model"
        assert main(
            [
                "save-model", "yelp", model, "--strategy", "JoinAll",
                "--scale", "smoke", "--out", str(path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["predict", str(path), "--rows", "3"]) == 0
        (reads,) = [
            text for text in capsys.readouterr().out.splitlines()
            if text.startswith("serving reads")
        ]
        assert reads.startswith(line)
        if model == "nn1":
            assert reads.endswith("; joins users, businesses")

    def test_predict_closes_its_server(self, capsys, tmp_path):
        """``predict`` stops the server's deadline flusher before it
        returns, instead of leaving the thread running."""
        import threading

        path = tmp_path / "yelp.repro-model"
        assert main(
            [
                "save-model", "yelp", "dt_gini",
                "--scale", "smoke", "--out", str(path),
            ]
        ) == 0
        before = set(threading.enumerate())
        assert main(["predict", str(path), "--rows", "3"]) == 0
        capsys.readouterr()
        left_running = [
            thread.name
            for thread in set(threading.enumerate()) - before
            if thread.is_alive()
        ]
        assert left_running == []

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
        # The metrics section rides along and counts this run's encodes:
        # one per merged encode.shard span entry, under fit and score.
        encodes = sum(s["count"] for s in spans if s["name"] == "encode.shard")
        assert report["metrics"]["data.encode.shards"] == encodes == 8

    def test_in_process_telemetry_runs_report_their_own_counts(
        self, capsys, tmp_path
    ):
        """Each ``--telemetry`` report counts its own run only: a second
        identical run in one process reports the same counts, not the
        running total of the process-wide registry."""
        import json

        reports = []
        for name in ("first.json", "second.json"):
            path = tmp_path / name
            assert main(
                ["fit", "yelp", "nb", "--stream", "--shards", "2",
                 "--scale", "smoke", "--telemetry", str(path)]
            ) == 0
            reports.append(json.loads(path.read_text())["metrics"])
        capsys.readouterr()
        first, second = reports
        assert first["data.encode.shards"] == 8
        assert first["datasets.generated"] == 1

        def counts(metrics):
            # Counters and histogram counts; timings differ run to run.
            return {
                name: value["count"] if isinstance(value, dict) else value
                for name, value in metrics.items()
                if not isinstance(value, dict) or "count" in value
            }

        assert counts(second) == counts(first)

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
