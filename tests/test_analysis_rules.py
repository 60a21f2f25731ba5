"""Per-rule fixture tests: each rule fires on bad code, stays silent on good.

Every rule in the registry gets at least one deliberately-bad source
snippet (the rule must fire, at the right line) and one good snippet
(the rule must stay silent).  The lock-discipline section additionally
seeds the real-world shape the rule exists for — an unlocked
``self._stats`` increment in a ``MicroBatcher``-like class — and then
proves the real serving/obs classes pass clean.
"""

from pathlib import Path

import numpy as np

from repro.analysis import get_rules, run_analysis
from repro.analysis.rules import ALL_RULES, DEFAULT_CONFIG
from repro.ml.encoding import CategoricalMatrix
from repro.ml.sparse import FactorizedGroup, FactorizedMatrix, OneHotMatrix

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

ALL_IDS = tuple(rule.id for rule in ALL_RULES)


def _findings(tmp_path, source, rule_id, name="module.py", config=None):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    report = run_analysis(
        [path], get_rules([rule_id]), config=config, known_rule_ids=ALL_IDS
    )
    return list(report.findings)


def _project_findings(tmp_path, sources, rule_id):
    for name, source in sources.items():
        (tmp_path / name).write_text(source)
    report = run_analysis([tmp_path], get_rules([rule_id]), known_rule_ids=ALL_IDS)
    return list(report.findings)


class TestWallClock:
    def test_fires_on_time_time(self, tmp_path):
        findings = _findings(
            tmp_path, "import time\nstamp = time.time()\n", "wall-clock"
        )
        assert [f.line for f in findings] == [2]

    def test_aliased_import_reports_once_at_the_import(self, tmp_path):
        source = (
            "from time import time as now\n"
            "a = now()\n"
            "b = now()\n"
        )
        findings = _findings(tmp_path, source, "wall-clock")
        assert [f.line for f in findings] == [1]
        assert "alias at lines 2, 3" in findings[0].message

    def test_silent_on_monotonic_clocks(self, tmp_path):
        source = "import time\na = time.perf_counter()\nb = time.monotonic()\n"
        assert _findings(tmp_path, source, "wall-clock") == []


class TestBarePrint:
    def test_fires_on_bare_print(self, tmp_path):
        findings = _findings(tmp_path, "print('debug')\n", "bare-print")
        assert [f.line for f in findings] == [1]

    def test_silent_with_explicit_stream(self, tmp_path):
        source = "import sys\nprint('x', file=sys.stderr)\n"
        assert _findings(tmp_path, source, "bare-print") == []

    def test_benchmarks_are_allowlisted_by_default_config(self, tmp_path):
        findings = _findings(
            tmp_path,
            "print('report line')\n",
            "bare-print",
            name="benchmarks/bench_x.py",
            config=DEFAULT_CONFIG,
        )
        assert findings == []


class TestRawSleep:
    def test_fires_on_time_sleep(self, tmp_path):
        findings = _findings(
            tmp_path, "import time\ntime.sleep(1)\n", "raw-sleep"
        )
        assert [f.line for f in findings] == [2]

    def test_aliased_from_import_reports_once(self, tmp_path):
        source = "from time import sleep\nsleep(0.5)\n"
        findings = _findings(tmp_path, source, "raw-sleep")
        assert [f.line for f in findings] == [1]
        assert "alias at line 2" in findings[0].message

    def test_backoff_chokepoint_allowlisted_by_default_config(self, tmp_path):
        findings = _findings(
            tmp_path,
            "import time\ntime.sleep(0.1)\n",
            "raw-sleep",
            name="repro/resilience/backoff.py",
            config=DEFAULT_CONFIG,
        )
        assert findings == []


class TestUnseededRandom:
    def test_fires_on_stdlib_random_import(self, tmp_path):
        findings = _findings(
            tmp_path, "import random\nx = random.random()\n", "unseeded-random"
        )
        assert [f.line for f in findings] == [1]
        assert "stdlib 'random'" in findings[0].message

    def test_fires_on_from_random_import(self, tmp_path):
        findings = _findings(
            tmp_path, "from random import shuffle\n", "unseeded-random"
        )
        assert [f.line for f in findings] == [1]

    def test_fires_on_np_random_seed(self, tmp_path):
        source = "import numpy as np\nnp.random.seed(42)\n"
        findings = _findings(tmp_path, source, "unseeded-random")
        assert [f.line for f in findings] == [2]
        assert "global numpy RNG state" in findings[0].message

    def test_fires_on_unseeded_default_rng(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        findings = _findings(tmp_path, source, "unseeded-random")
        assert len(findings) == 1
        assert "OS entropy" in findings[0].message

    def test_fires_on_seeded_default_rng_outside_chokepoint(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng(7)\n"
        findings = _findings(tmp_path, source, "unseeded-random")
        assert len(findings) == 1
        assert "repro.rng.ensure_rng" in findings[0].message

    def test_fires_on_legacy_randomstate_and_global_draws(self, tmp_path):
        source = (
            "import numpy as np\n"
            "state = np.random.RandomState(0)\n"
            "x = np.random.rand(3)\n"
        )
        findings = _findings(tmp_path, source, "unseeded-random")
        assert [f.line for f in findings] == [2, 3]

    def test_fires_via_from_numpy_random_import(self, tmp_path):
        source = "from numpy.random import default_rng\nrng = default_rng(3)\n"
        findings = _findings(tmp_path, source, "unseeded-random")
        assert [f.line for f in findings] == [2]

    def test_rng_chokepoint_allowlisted_by_default_config(self, tmp_path):
        source = "import numpy as np\nrng = np.random.default_rng(seed)\n"
        findings = _findings(
            tmp_path,
            source,
            "unseeded-random",
            name="repro/rng.py",
            config=DEFAULT_CONFIG,
        )
        assert findings == []

    def test_silent_on_generator_type_annotations(self, tmp_path):
        source = (
            "import numpy as np\n"
            "def fit(rng: np.random.Generator) -> np.random.Generator:\n"
            "    return rng\n"
        )
        assert _findings(tmp_path, source, "unseeded-random") == []

    def test_silent_on_ensure_rng(self, tmp_path):
        source = "from repro.rng import ensure_rng\nrng = ensure_rng(0)\n"
        assert _findings(tmp_path, source, "unseeded-random") == []


_BATCHER_BAD = """\
import threading

class MiniBatcher:
    def __init__(self):
        self._lock = threading.Lock()
        self._queue = []
        self._stats = 0

    def submit(self, row):
        with self._lock:
            self._queue.append(row)
            self._stats += 1

    def record(self):
        self._stats += 1
"""

_BATCHER_GOOD = _BATCHER_BAD.replace(
    "    def record(self):\n        self._stats += 1\n",
    "    def record(self):\n        with self._lock:\n            self._stats += 1\n",
)


class TestLockDiscipline:
    def test_catches_unlocked_stats_increment_in_microbatcher_shape(
        self, tmp_path
    ):
        findings = _findings(tmp_path, _BATCHER_BAD, "lock-discipline")
        assert [f.line for f in findings] == [15]
        assert "'self._stats'" in findings[0].message
        assert "self._lock" in findings[0].message

    def test_silent_when_every_write_is_locked(self, tmp_path):
        assert _findings(tmp_path, _BATCHER_GOOD, "lock-discipline") == []

    def test_init_writes_are_exempt(self, tmp_path):
        # _BATCHER_GOOD's __init__ assigns _queue/_stats unlocked; the
        # good fixture passing already proves the exemption, but pin it
        # on a class whose only unlocked writes are in __init__.
        source = (
            "import threading\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._value = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._value += 1\n"
        )
        assert _findings(tmp_path, source, "lock-discipline") == []

    def test_locked_suffix_methods_are_exempt(self, tmp_path):
        source = (
            "import threading\n"
            "class Drainer:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._rows = []\n"
            "    def add(self, row):\n"
            "        with self._lock:\n"
            "            self._rows = self._rows + [row]\n"
            "    def _take_locked(self):\n"
            "        self._rows = []\n"
        )
        assert _findings(tmp_path, source, "lock-discipline") == []

    def test_acquire_release_region_counts_as_locked(self, tmp_path):
        # The metrics hot-path idiom: a local alias plus explicit
        # acquire/release instead of a `with` frame.
        source = (
            "import threading\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._value = 0\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._value = 0\n"
            "    def inc(self, amount=1):\n"
            "        lock = self._lock\n"
            "        lock.acquire()\n"
            "        self._value += amount\n"
            "        lock.release()\n"
        )
        assert _findings(tmp_path, source, "lock-discipline") == []

    def test_write_after_release_is_flagged(self, tmp_path):
        source = (
            "import threading\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._value = 0\n"
            "    def reset(self):\n"
            "        with self._lock:\n"
            "            self._value = 0\n"
            "    def inc(self):\n"
            "        self._lock.acquire()\n"
            "        self._lock.release()\n"
            "        self._value += 1\n"
        )
        findings = _findings(tmp_path, source, "lock-discipline")
        assert [f.line for f in findings] == [12]

    def test_condition_shares_its_wrapped_lock(self, tmp_path):
        # MicroBatcher's wakeup pattern: Condition(self._lock) and the
        # raw lock are one discipline — writes under either are fine.
        source = (
            "import threading\n"
            "class Waiter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._wakeup = threading.Condition(self._lock)\n"
            "        self._pending = 0\n"
            "    def submit(self):\n"
            "        with self._lock:\n"
            "            self._pending += 1\n"
            "    def drain(self):\n"
            "        with self._wakeup:\n"
            "            self._pending = 0\n"
        )
        assert _findings(tmp_path, source, "lock-discipline") == []

    def test_subscript_store_counts_as_a_write(self, tmp_path):
        source = (
            "import threading\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._entries = {}\n"
            "    def put(self, key, value):\n"
            "        with self._lock:\n"
            "            self._entries[key] = value\n"
            "    def evict(self, key):\n"
            "        self._entries[key] = None\n"
        )
        findings = _findings(tmp_path, source, "lock-discipline")
        assert [f.line for f in findings] == [10]

    def test_nested_function_bodies_are_analysed_as_unlocked(self, tmp_path):
        source = (
            "import threading\n"
            "class Scheduler:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._count = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self._count += 1\n"
            "    def defer(self):\n"
            "        with self._lock:\n"
            "            def later():\n"
            "                self._count += 1\n"
            "            return later\n"
        )
        findings = _findings(tmp_path, source, "lock-discipline")
        assert [f.line for f in findings] == [12]

    def test_lockless_classes_are_never_flagged(self, tmp_path):
        source = (
            "class Plain:\n"
            "    def __init__(self):\n"
            "        self._value = 0\n"
            "    def bump(self):\n"
            "        self._value += 1\n"
        )
        assert _findings(tmp_path, source, "lock-discipline") == []

    def test_real_serving_and_obs_classes_pass_clean(self):
        report = run_analysis(
            [SRC_REPRO / "serving", SRC_REPRO / "obs", SRC_REPRO / "data"],
            get_rules(["lock-discipline"]),
            known_rule_ids=ALL_IDS,
        )
        assert report.findings == (), report.render_text()


class TestExceptionHygiene:
    def test_fires_on_bare_except(self, tmp_path):
        source = "try:\n    x = 1\nexcept:\n    pass\n"
        findings = _findings(tmp_path, source, "exception-hygiene")
        assert [f.line for f in findings] == [3]
        assert "bare 'except:'" in findings[0].message

    def test_fires_on_swallowing_broad_handler(self, tmp_path):
        source = "try:\n    x = 1\nexcept Exception:\n    x = 2\n"
        findings = _findings(tmp_path, source, "exception-hygiene")
        assert len(findings) == 1
        assert "swallowed" in findings[0].message

    def test_silent_when_handler_reraises(self, tmp_path):
        source = (
            "try:\n    x = 1\nexcept Exception:\n    cleanup()\n    raise\n"
        )
        assert _findings(tmp_path, source, "exception-hygiene") == []

    def test_silent_when_handler_emits(self, tmp_path):
        source = (
            "from repro.obs import emit\n"
            "try:\n    x = 1\n"
            "except Exception as error:\n"
            "    emit(f'failed: {error}', error=True)\n"
        )
        assert _findings(tmp_path, source, "exception-hygiene") == []

    def test_silent_when_handler_routes_through_repro_errors(self, tmp_path):
        source = (
            "from repro.errors import CheckpointError\n"
            "try:\n    x = 1\n"
            "except Exception as error:\n"
            "    failure = CheckpointError(str(error))\n"
        )
        assert _findings(tmp_path, source, "exception-hygiene") == []

    def test_silent_on_narrow_handlers(self, tmp_path):
        source = "try:\n    x = 1\nexcept ValueError:\n    x = 2\n"
        assert _findings(tmp_path, source, "exception-hygiene") == []

    def test_fires_on_raise_of_unknown_type(self, tmp_path):
        source = "class Odd:\n    pass\n\nraise Odd()\n"
        findings = _findings(tmp_path, source, "exception-hygiene")
        assert [f.line for f in findings] == [4]
        assert "'Odd'" in findings[0].message

    def test_silent_on_stdlib_and_repro_errors_raises(self, tmp_path):
        source = (
            "from repro.errors import SchemaError\n"
            "def check(ok):\n"
            "    if not ok:\n"
            "        raise SchemaError('bad')\n"
            "    raise ValueError('also fine')\n"
        )
        assert _findings(tmp_path, source, "exception-hygiene") == []

    def test_local_repro_error_subclass_is_raisable(self, tmp_path):
        source = (
            "from repro.errors import ReproError\n"
            "class ShardTimeout(ReproError):\n"
            "    pass\n"
            "class Nested(ShardTimeout):\n"
            "    pass\n"
            "raise Nested('late')\n"
        )
        assert _findings(tmp_path, source, "exception-hygiene") == []

    def test_silent_on_variable_reraise(self, tmp_path):
        source = "def rethrow(error):\n    raise error\n"
        assert _findings(tmp_path, source, "exception-hygiene") == []


_GOOD_SOURCE = """\
class ArraySource:
    def __init__(self, names, levels, classes):
        self.feature_names = names
        self.n_levels = levels
        self._classes = classes

    @property
    def n_rows(self):
        return 10

    @property
    def n_shards(self):
        return 1

    @property
    def n_classes(self):
        return self._classes

    def iter_shards(self):
        yield None
"""


class TestFeatureSource:
    def test_fires_when_metadata_surface_is_missing(self, tmp_path):
        source = (
            "class HalfSource:\n"
            "    def __init__(self, names):\n"
            "        self.feature_names = names\n"
            "    def iter_shards(self):\n"
            "        yield None\n"
        )
        findings = _findings(tmp_path, source, "feature-source")
        assert len(findings) == 1
        message = findings[0].message
        assert "n_levels" in message and "n_classes" in message
        assert "feature_names" not in message.split("define:")[1]

    def test_fires_on_unresolvable_protocol_base(self, tmp_path):
        source = (
            "class Wrapper(SourceDecorator):\n"
            "    def extra(self):\n"
            "        return 1\n"
        )
        findings = _findings(tmp_path, source, "feature-source")
        assert len(findings) == 1

    def test_silent_on_full_metadata_surface(self, tmp_path):
        assert _findings(tmp_path, _GOOD_SOURCE, "feature-source") == []

    def test_protocol_definition_classes_are_skipped(self, tmp_path):
        source = (
            "class FeatureSource:\n"
            "    feature_names: list\n"
            "    n_levels: list\n"
            "    def iter_shards(self):\n"
            "        raise NotImplementedError\n"
            "    @property\n"
            "    def n_rows(self):\n"
            "        raise NotImplementedError\n"
            "    @property\n"
            "    def n_shards(self):\n"
            "        raise NotImplementedError\n"
            "    @property\n"
            "    def n_classes(self):\n"
            "        raise NotImplementedError\n"
        )
        assert _findings(tmp_path, source, "feature-source") == []

    def test_members_resolve_through_cross_file_bases(self, tmp_path):
        findings = _project_findings(
            tmp_path,
            {
                "base.py": _GOOD_SOURCE,
                "sub.py": (
                    "from base import ArraySource\n"
                    "class Decorated(ArraySource):\n"
                    "    def iter_shards(self):\n"
                    "        yield from ()\n"
                ),
            },
            "feature-source",
        )
        assert findings == []

    def test_incomplete_subclass_of_resolvable_base_is_flagged(self, tmp_path):
        findings = _project_findings(
            tmp_path,
            {
                "base.py": (
                    "class Partial:\n"
                    "    def iter_shards(self):\n"
                    "        yield None\n"
                    "    @property\n"
                    "    def n_rows(self):\n"
                    "        return 1\n"
                ),
                "sub.py": (
                    "from base import Partial\n"
                    "class Child(Partial):\n"
                    "    pass\n"
                ),
            },
            "feature-source",
        )
        assert {f.line for f in findings} == {1, 2}


class TestEngineConformance:
    """Both kernel operands offer the sizing and column-stats surface
    their callers (working-set accounting, resident bytes, scalers) use
    without a type switch."""

    def test_shipped_engine_matrices_pass_clean(self):
        X = CategoricalMatrix(
            np.array([[0, 1], [2, 0], [1, 1], [0, 0]]), (3, 2), ("a", "d")
        )
        factorized = FactorizedMatrix(
            X.names, X.n_levels, np.array([0]), X.codes[:, :1],
            [FactorizedGroup("D", np.array([1]), np.array([1, 0, 1, 0]),
                             np.array([[0], [1]]))],
        )
        for operand in (OneHotMatrix(X), factorized):
            for member in (
                "nbytes", "column_counts", "column_means", "column_scales",
            ):
                assert hasattr(operand, member), (type(operand), member)
            assert operand.nbytes > 0
            assert np.array_equal(operand.column_counts(), X.onehot().sum(axis=0))
