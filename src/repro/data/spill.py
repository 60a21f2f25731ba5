"""A disk-spilling cache of encoded shards.

Multi-pass consumers — exact FISTA makes one full pass over the shards
*per iteration* and re-reads every shard past its residency cap, tree
frontiers and MLP epochs re-read them all — force out-of-core sources
to re-produce shards many times.  For a CSV-backed source each
production is a seek, a text parse, a per-column domain encode and a
KFK join; all of it yields the same bytes every time.
:class:`SpillCacheSource` intercepts :meth:`shard` and keeps each
shard's encoded form — the integer code matrix (or, for a factorized
shard, its per-row codes plus each blocked dimension's resolved rows
and code block) and the label vector, exactly the arrays training
consumes — in an ``.npz`` file, within an optional byte budget.
Re-reads become one ``np.load`` instead of a re-parse and re-join,
while peak *memory* stays one shard: the cache spills to disk, not to
RAM.

The budget admits shards while there is room and never evicts.  A
multi-pass scan reads shards in the same order every pass, so under
LRU the shard a pass is about to read is always the one just evicted
and nothing ever hits; keeping the first shards that fit makes every
later pass hit on all of them.

The decorator contract holds: cached shards are byte-identical to what
the wrapped source produces (``tests/test_data_spill.py`` asserts it),
so training results cannot depend on whether a shard came from the
cache or the source.

Cache entries are crash-safe and self-verifying: each ``.npz`` is
written to a temp file and ``os.replace``-d into place (a mid-write
kill leaves no torn entry), and carries a CRC-32 over every array it
stores.  A
corrupt entry — torn write survived from an older format, bit rot, an
injected ``corrupt_spill`` fault — fails verification on load and is
transparently dropped and re-encoded from the wrapped source instead
of crashing the pass.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import zipfile
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.data.source import FeatureSource, SourceDecorator
from repro.errors import SpillCorruptionError
from repro.obs import MetricsRegistry


def _checksum(arrays: dict[str, np.ndarray]) -> int:
    """CRC-32 over every stored array's name, shape, dtype and bytes."""
    crc = 0
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        header = str((name, array.shape, str(array.dtype))).encode()
        crc = zlib.crc32(header, crc)
        crc = zlib.crc32(array.tobytes(), crc)
    return crc


def _shard_arrays(X, y: np.ndarray) -> dict[str, np.ndarray]:
    """A shard of either layout as named arrays for one ``.npz`` entry."""
    from repro.ml.sparse import FactorizedMatrix

    if not isinstance(X, FactorizedMatrix):
        return {"codes": X.codes, "y": y}
    arrays = {
        "codes": X.fact_codes,
        "positions": X.fact_positions,
        "group_names": np.array([group.name for group in X.groups], dtype=str),
        "y": y,
    }
    for i, group in enumerate(X.groups):
        arrays[f"group{i}_positions"] = group.positions
        arrays[f"group{i}_rows"] = group.dim_rows
        arrays[f"group{i}_block"] = group.block
    return arrays


@dataclass
class SpillStats:
    """Hit/miss accounting for one spill cache.

    A point-in-time snapshot view over the cache's registry-backed
    metrics (``data.spill.*``).  ``spilled_bytes`` is gauge-backed — it
    falls when a corrupt entry is dropped from disk.
    """

    hits: int = 0
    misses: int = 0
    spilled_bytes: int = 0
    corruptions: int = 0

    def as_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return asdict(self)

    def __str__(self) -> str:
        return (
            f"spill cache: {self.hits} hits / {self.misses} misses, "
            f"{self.spilled_bytes} bytes on disk"
        )


class SpillCacheSource(SourceDecorator):
    """Cache the wrapped source's encoded shards on disk.

    Parameters
    ----------
    source:
        Any :class:`FeatureSource`.  Wrapping an already-cheap source
        (an in-memory :class:`MatrixSource`) is allowed and harmless —
        single-shard sources pass straight through uncached, since the
        one shard is already resident — while the win comes from
        multi-shard sources whose :meth:`shard` re-reads and re-encodes
        external data.
    directory:
        Where shard files live.  ``None`` creates a private temporary
        directory that :meth:`close` deletes; an explicit directory is
        created if needed and left in place (only the shard files this
        cache wrote are removed on close).
    max_bytes:
        Byte budget for the on-disk cache; ``None`` means unbounded.
        A shard is admitted if it fits in what is left and nothing is
        ever evicted, so a multi-pass scan hits on every admitted shard.
    registry:
        Metrics registry backing the ``data.spill.*`` metrics.
        ``None`` keeps a private one (exact per-instance stats).
    retry_policy:
        Optional :class:`~repro.resilience.RetryPolicy` (or anything
        with its ``call`` shape) applied to the wrapped source's
        ``shard`` reads, so a transient producer failure costs a
        bounded backoff instead of the pass.  Duck-typed to keep
        ``repro.data`` import-independent of ``repro.resilience``.
    """

    def __init__(
        self,
        source: FeatureSource,
        directory: str | Path | None = None,
        max_bytes: int | None = None,
        registry: MetricsRegistry | None = None,
        retry_policy=None,
    ):
        super().__init__(source)
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self._owns_directory = directory is None
        if directory is None:
            self.directory = Path(tempfile.mkdtemp(prefix="repro-spill-"))
        else:
            self.directory = Path(directory)
            self.directory.mkdir(parents=True, exist_ok=True)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._hits = self.metrics.counter("data.spill.hits")
        self._misses = self.metrics.counter("data.spill.misses")
        self._spilled_bytes = self.metrics.gauge("data.spill.bytes")
        self._corruptions = self.metrics.counter("data.spill.corruptions")
        self.retry_policy = retry_policy
        self._entries: dict[int, int] = {}  # index -> bytes
        self._closed = False

    @property
    def stats(self) -> SpillStats:
        """Point-in-time snapshot of the registry-backed metrics."""
        return SpillStats(
            hits=self._hits.value,
            misses=self._misses.value,
            spilled_bytes=int(self._spilled_bytes.value),
            corruptions=self._corruptions.value,
        )

    # ------------------------------------------------------------------
    # Cache mechanics
    # ------------------------------------------------------------------
    def _path(self, index: int) -> Path:
        return self.directory / f"shard-{index:08d}.npz"

    def shard(self, index: int):
        if self._closed:
            raise ValueError("cannot read from a closed SpillCacheSource")
        if self.source.n_shards <= 1:
            # A single-shard source is already its own best cache (the
            # in-memory adapters and StreamingMatrices both keep the one
            # shard resident); spilling it would replace a resident
            # object with a disk re-load per pass.
            return self.source.shard(index)
        if index in self._entries:
            try:
                loaded = self._load(index)
            except SpillCorruptionError:
                # The entry is damaged (torn write survived a crash,
                # bit rot, injected corruption).  Drop it and fall
                # through to the miss path: the wrapped source is the
                # durable truth, so re-encoding restores the exact
                # bytes the cache should have held.
                self._corruptions.inc()
                self._drop(index)
            else:
                self._hits.inc()
                return loaded
        self._misses.inc()
        X, y = self._produce(index)
        self._store(index, X, y)
        return X, y

    def _produce(self, index: int):
        """Read a shard from the wrapped source, retried when configured."""
        if self.retry_policy is None:
            return self.source.shard(index)
        return self.retry_policy.call(
            lambda: self.source.shard(index),
            registry=self.metrics,
            describe=f"spill-cache source read of shard {index}",
        )

    def _drop(self, index: int) -> None:
        """Remove one entry (and its file) from the cache."""
        size = self._entries.pop(index, 0)
        self._path(index).unlink(missing_ok=True)
        self._spilled_bytes.add(-size)

    def _load(self, index: int):
        # Local import: keeps repro.data.source importable from within
        # repro.ml's own module initialisation (see repro.data.__init__).
        from repro.ml.encoding import CategoricalMatrix
        from repro.ml.sparse import FactorizedGroup, FactorizedMatrix

        path = self._path(index)
        try:
            with np.load(path) as archive:
                arrays = {name: archive[name] for name in archive.files}
            stored = int(arrays.pop("crc")[()]) if "crc" in arrays else None
            valid = stored is not None and _checksum(arrays) == stored
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile) as error:
            raise SpillCorruptionError(
                f"{path}: spill entry unreadable ({error})"
            ) from error
        if not valid:
            raise SpillCorruptionError(
                f"{path}: spill entry failed checksum verification"
            )
        codes, y = arrays["codes"], arrays["y"]
        if "positions" not in arrays:
            # Codes round-trip exactly and were validated when the
            # source produced them, so skip the range re-scan.
            X = CategoricalMatrix(
                codes, self.n_levels, self.feature_names, validate=False
            )
            return X, y
        groups = [
            FactorizedGroup(
                str(name),
                arrays[f"group{i}_positions"],
                arrays[f"group{i}_rows"],
                arrays[f"group{i}_block"],
            )
            for i, name in enumerate(arrays["group_names"])
        ]
        X = FactorizedMatrix(
            self.feature_names, self.n_levels, arrays["positions"], codes,
            groups,
        )
        return X, y

    def _store(self, index: int, X, y) -> None:
        path = self._path(index)
        arrays = _shard_arrays(X, np.asarray(y))
        # Temp file in the cache directory + os.replace: a kill at any
        # instant leaves either no entry or a complete one, never a
        # torn .npz that np.load chokes on next pass.
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle, **arrays, crc=np.uint32(_checksum(arrays))
                )
            size = os.path.getsize(tmp)
            # Admit only what fits in the budget left; a shard that does
            # not fit is not cached (the wrapped source serves it again).
            if (
                self.max_bytes is not None
                and sum(self._entries.values()) + size > self.max_bytes
            ):
                os.unlink(tmp)
                return
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._entries[index] = size
        self._spilled_bytes.add(size)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of shards currently resident on disk."""
        return len(self._entries)

    def close(self) -> None:
        """Drop the cached files (and the owned directory), close inner."""
        if not self._closed:
            self._closed = True
            for index in list(self._entries):
                self._path(index).unlink(missing_ok=True)
            self._entries.clear()
            if self._owns_directory:
                shutil.rmtree(self.directory, ignore_errors=True)
        self.source.close()

    def __repr__(self) -> str:
        return (
            f"SpillCacheSource({self.source!r}, dir={str(self.directory)!r}, "
            f"{self.stats})"
        )
