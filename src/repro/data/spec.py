"""Declarative recipes for building per-split :class:`FeatureSource`\\ s.

The experiment runner, the CLI and the benchmarks all need the same
decision made in the same way: given a dataset and a strategy, should a
split's features be one resident matrix or a stream of bounded shards,
and which decorators wrap the result?  :class:`SourceSpec` captures
that choice as data — ``SourceSpec()`` is the in-memory path,
``SourceSpec(shard_rows=...)`` (or ``n_shards=...``) the out-of-core
one, ``prefetch``/``spill_cache`` layer the decorators — so
``run_experiment(source=spec)`` replaces the two hand-rolled runner
functions PR 4 left behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.data.prefetch import PrefetchingSource
from repro.data.source import FeatureSource, MatrixSource
from repro.data.spill import SpillCacheSource
from repro.obs import MetricsRegistry

#: The split names every dataset carries, in scoring order.
SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class SourceSpec:
    """How to turn ``(dataset, strategy, split)`` into a FeatureSource.

    Parameters
    ----------
    shard_rows, n_shards:
        Shard layout for the out-of-core path; mutually exclusive.
        Leaving both unset selects the in-memory path: the strategy's
        matrices are materialised once and each split is a single
        resident shard.
    prefetch:
        When set, wrap each source in a :class:`PrefetchingSource` with
        this queue depth.
    spill_cache:
        ``False`` (default) for no cache, ``True`` for a
        :class:`SpillCacheSource` in a private temporary directory, or
        an explicit directory path.  Spill before prefetch, so the
        background thread reads through the cache.

    How each shard lays out its joined dimensions is not part of the
    spec: the encoder decides per dimension from the shard's size
    (:func:`repro.data.encoder.factorize_dimension`).
    """

    shard_rows: int | None = None
    n_shards: int | None = None
    prefetch: int | None = None
    spill_cache: bool | str | Path = False

    def __post_init__(self) -> None:
        if self.shard_rows is not None and self.n_shards is not None:
            raise ValueError(
                "shard_rows and n_shards are two ways to lay out the same "
                "shards; pass exactly one"
            )
        for name in ("shard_rows", "n_shards", "prefetch"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    @property
    def streaming(self) -> bool:
        """Whether this spec selects the out-of-core shard path."""
        return self.shard_rows is not None or self.n_shards is not None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def split_sources(
        self,
        dataset,
        strategy,
        splits: tuple[str, ...] = SPLITS,
        registry: MetricsRegistry | None = None,
    ) -> dict[str, FeatureSource]:
        """Build one decorated source per requested split.

        The in-memory path materialises the strategy's matrices once
        (one join shared by all splits, as the tuned pipeline does);
        the streaming path builds one shard stream per split, so no
        split is ever resident whole.  Callers own the sources and
        should ``close()`` them when done (spill caches hold disk).

        ``registry`` threads one metrics registry through the encoder
        and every decorator (the experiment runner passes the
        process-wide one, so ``repro fit --telemetry`` reports
        ``data.*`` metrics); ``None`` keeps each component's private
        default.
        """
        if self.streaming:
            from repro.data.encoder import ShardEncoder
            from repro.streaming import ShardedDataset, StreamingMatrices

            # One encoder across the splits: they share the schema, so
            # each dimension's index is built once per experiment, not
            # once per split.
            encoder = ShardEncoder(dataset.schema, strategy, registry=registry)
            sources = {
                split: StreamingMatrices(
                    ShardedDataset.from_split(
                        dataset,
                        shard_rows=self.shard_rows,
                        n_shards=self.n_shards,
                        split=split,
                    ),
                    strategy,
                    encoder=encoder,
                )
                for split in splits
            }
        else:
            matrices = strategy.matrices(dataset)
            blocks = {
                "train": (matrices.X_train, matrices.y_train),
                "validation": (matrices.X_validation, matrices.y_validation),
                "test": (matrices.X_test, matrices.y_test),
            }
            sources = {split: MatrixSource(*blocks[split]) for split in splits}
        return {
            split: self.decorate(source, label=split, registry=registry)
            for split, source in sources.items()
        }

    def build(self, dataset, strategy, split: str = "train") -> FeatureSource:
        """Build one split's source (see :meth:`split_sources`)."""
        return self.split_sources(dataset, strategy, splits=(split,))[split]

    def decorate(
        self,
        source: FeatureSource,
        label: str | None = None,
        registry: MetricsRegistry | None = None,
    ) -> FeatureSource:
        """Wrap a source with this spec's decorators (spill, then prefetch).

        ``label`` namespaces an explicit ``spill_cache`` directory (one
        subdirectory per split), so several sources built from one spec
        never collide on shard file names.
        """
        if self.spill_cache:
            if self.spill_cache is True:
                directory = None
            else:
                directory = Path(self.spill_cache)
                if label is not None:
                    directory = directory / label
            source = SpillCacheSource(
                source, directory=directory, registry=registry
            )
        if self.prefetch is not None:
            source = PrefetchingSource(
                source, depth=self.prefetch, registry=registry
            )
        return source

    def describe(self) -> dict:
        """The spec as flat result metadata (for ``RunResult.best_params``)."""
        described: dict = {"streaming": self.streaming}
        if self.prefetch is not None:
            described["prefetch"] = self.prefetch
        if self.spill_cache:
            described["spill_cache"] = (
                True if self.spill_cache is True else str(self.spill_cache)
            )
        return described
