"""Public-API surface checks.

Every name a subpackage advertises in ``__all__`` must be importable
and documented; these tests catch drift between the export lists and
the modules behind them.
"""

import importlib
import inspect

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
    "repro.analysis",
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
