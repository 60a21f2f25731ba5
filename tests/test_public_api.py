"""Public-API surface checks.

Every name a subpackage advertises in ``__all__`` must be importable
and documented; these tests catch drift between the export lists and
the modules behind them.
"""

import importlib
import inspect
import pkgutil

import pytest

PACKAGES = [
    "repro",
    "repro.relational",
    "repro.ml",
    "repro.ml.tree",
    "repro.ml.svm",
    "repro.ml.neural",
    "repro.ml.linear",
    "repro.core",
    "repro.data",
    "repro.datasets",
    "repro.experiments",
    "repro.streaming",
    "repro.serving",
    "repro.obs",
    "tools.analysis",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), package_name
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name}"

    def test_package_docstring_present(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__.strip()) > 40

    def test_public_classes_and_functions_documented(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            obj = getattr(package, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{package_name}.{name} lacks a docstring"


#: Run in a fresh interpreter: import the library's layers, build the
#: CLI parser, list any tooling module loaded, then try the removed
#: tooling commands and record their exit codes.
_NO_TOOLING_SCRIPT = """
import contextlib, io, json, sys
import repro.serving, repro.streaming, repro.experiments, repro.cli
repro.cli.build_parser()
tooling = ("tools", "faultkit", "tests", "repro.analysis", "repro.resilience")
loaded = sorted(
    name for name in sys.modules
    if any(name == t or name.startswith(t + ".") for t in tooling)
)
codes = []
for argv in (
    ["lint"],
    ["chaos", "yelp"],
    ["serve-bench", "yelp", "--inject-faults", "0.1"],
):
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            codes.append(repro.cli.main(argv))
    except SystemExit as exit_info:
        codes.append(exit_info.code)
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


class TestLibraryLoadsNoTooling:
    def test_commands_and_imports_load_no_tooling(self):
        """The lint suite and the test-side fault kit stay out of the
        library: importing its layers and building the CLI loads
        neither, and their old commands are usage errors."""
        import json
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", _NO_TOOLING_SCRIPT],
            capture_output=True,
            text=True,
            cwd=root,
            env={
                "PYTHONPATH": f"{root / 'src'}:{root / 'tests'}",
                "PATH": "/usr/bin:/bin",
            },
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        outcome = json.loads(result.stdout.strip().splitlines()[-1])
        assert outcome["loaded"] == []
        assert outcome["codes"] == [2, 2, 2]


#: What a caller may set on each serving entry point: the parameters
#: with a default, and for ``repro predict`` its optional flags.  An
#: option that appears or goes has to be entered here, on purpose.
SERVING_OPTIONS = {
    "repro.serving.PredictionServer": (
        "max_batch_size", "max_wait_s", "background_flush", "telemetry",
    ),
    "repro.serving.PredictionServer.submit": (),
    "repro.serving.MicroBatcher": (
        "max_batch_size", "max_wait_s", "clock", "background_flush",
        "registry",
    ),
    "repro.serving.MicroBatcher.submit": (),
    "repro.serving.MicroBatcher.close": (),
    "repro predict": ("--rows", "--telemetry"),
}

#: The same for training.  A model's own ``epochs`` sets the trainer's
#: epoch loop.
TRAINING_OPTIONS = {
    "repro.streaming.StreamingTrainer": (
        "seed", "checkpoint", "checkpoint_every", "resume",
    ),
    "repro.experiments.run_experiment": (
        "scale", "matrices", "source", "seed", "checkpoint",
        "checkpoint_every", "resume",
    ),
    "repro fit": (
        "--strategy", "--stream", "--shard-rows", "--shards",
        "--spill-cache", "--checkpoint-dir", "--checkpoint-every",
        "--resume", "--scale", "--seed", "--telemetry",
    ),
}


def _settable(entry_point):
    """The optional flags of a ``repro`` command, or the parameters with
    a default of the callable at a dotted path."""
    if entry_point.startswith("repro "):
        import argparse

        from repro.cli import build_parser

        (commands,) = (
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        command = commands.choices[entry_point.removeprefix("repro ")]
        return tuple(
            action.option_strings[-1]
            for action in command._actions
            if action.option_strings
            and not isinstance(action, argparse._HelpAction)
        )
    target = pkgutil.resolve_name(entry_point)
    return tuple(
        name
        for name, parameter in inspect.signature(target).parameters.items()
        if parameter.default is not inspect.Parameter.empty
    )


class TestServingOptions:
    @pytest.mark.parametrize(
        "entry_point",
        sorted(SERVING_OPTIONS),
        ids=lambda name: name.removeprefix("repro.serving.").replace(" ", "-"),
    )
    def test_serving_entry_point_options_are_the_pinned_ones(
        self, entry_point
    ):
        """Admission shedding, deadlines, quarantine, the fingerprint
        off-switch, ``close(flush=)`` and ``predict --batch-size`` are
        gone, and no option has taken their place."""
        assert _settable(entry_point) == SERVING_OPTIONS[entry_point]


class TestTrainingOptions:
    @pytest.mark.parametrize(
        "entry_point",
        sorted(TRAINING_OPTIONS),
        ids=lambda name: name.rsplit(".", 1)[-1].replace(" ", "-"),
    )
    def test_training_entry_point_options_are_the_pinned_ones(
        self, entry_point
    ):
        """The incremental logistic mode and the trainer's test-only
        knobs are gone, and no option has taken their place."""
        assert _settable(entry_point) == TRAINING_OPTIONS[entry_point]


class TestVersion:
    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_version_has_one_source(self):
        """``pyproject.toml`` reads the version from ``repro.__version__``
        instead of declaring a second copy that can drift."""
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }


class TestModelRegistryCompleteness:
    def test_registry_covers_papers_ten_classifiers(self):
        """Section 3: 7 high-capacity + 3 linear classifiers."""
        from repro.experiments import MODEL_REGISTRY

        high_capacity = {
            "dt_gini", "dt_entropy", "dt_gain_ratio",
            "svm_rbf", "svm_quadratic", "ann", "nn1",
        }
        linear = {"nb_bfs", "lr_l1", "svm_linear"}
        assert high_capacity | linear == set(MODEL_REGISTRY)
        assert len(high_capacity) == 7
        assert len(linear) == 3
