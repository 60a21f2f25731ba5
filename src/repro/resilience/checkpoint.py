"""Atomic, checksummed training checkpoints.

A checkpoint is one pickled payload (model state, RNG/optimizer state,
epoch+shard cursor — whatever the trainer hands over) written so that a
kill at *any* instant leaves the directory either without the new
checkpoint or with a complete, verified one — never a torn file:

1. the payload is pickled and prefixed with a CRC-32 of the pickle
   bytes,
2. written to a temp file in the checkpoint directory (same
   filesystem, so the final rename cannot cross devices),
3. flushed and ``os.replace``-d into its final
   ``ckpt-<epoch>-<shard>.pkl`` name (atomic on POSIX).

On resume, :meth:`CheckpointManager.latest` walks checkpoints newest
first and returns the first one whose checksum verifies, so a corrupt
or torn file (a crash mid-``write``, a disk flipping bits) silently
falls back to the previous good state instead of killing the resumed
run too.

Writes are counted as ``resilience.checkpoints`` and sized in the
``resilience.checkpoint_bytes`` histogram.  ``resilience.resumes``
counts successful resumes only: :meth:`CheckpointManager.latest` is a
pure read, and the trainer calls :meth:`CheckpointManager.count_resume`
once it has accepted the checkpoint as its own run's.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
import zlib
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError
from repro.obs import MetricsRegistry

_NAME = re.compile(r"^ckpt-(\d{6})-(\d{6})\.pkl$")
_MAGIC = b"RCKPT1\n"


def _write_atomic(path: Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class CheckpointManager:
    """Write, list, verify, and prune checkpoints in one directory.

    Parameters
    ----------
    directory:
        Checkpoint directory; created on first save.
    keep:
        Number of most-recent checkpoints retained after each save
        (older ones are pruned).  The latest good checkpoint plus one
        predecessor (``keep=2``, the default) survives a crash during
        the save itself.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` for the
        ``resilience.checkpoints`` / ``checkpoint_bytes`` / ``resumes``
        instruments.
    """

    def __init__(
        self,
        directory: str | Path,
        keep: int = 2,
        registry: MetricsRegistry | None = None,
    ):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._saves = self.metrics.counter("resilience.checkpoints")
        self._bytes = self.metrics.histogram("resilience.checkpoint_bytes")
        self._resumes = self.metrics.counter("resilience.resumes")

    def _path(self, epoch: int, shard: int) -> Path:
        if not 0 <= epoch < 10**6 or not 0 <= shard < 10**6:
            raise CheckpointError(
                f"checkpoint cursor out of range: epoch={epoch} shard={shard}"
            )
        return self.directory / f"ckpt-{epoch:06d}-{shard:06d}.pkl"

    def save(self, epoch: int, shard: int, state: Any) -> Path:
        """Atomically persist ``state`` at cursor ``(epoch, shard)``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        payload = (
            _MAGIC
            + zlib.crc32(blob).to_bytes(4, "big")
            + blob
        )
        path = self._path(epoch, shard)
        _write_atomic(path, payload)
        self._saves.inc()
        self._bytes.observe(len(payload))
        self._prune()
        return path

    def _entries(self) -> list[tuple[int, int, Path]]:
        """All checkpoint files as ``(epoch, shard, path)``, oldest first."""
        if not self.directory.is_dir():
            return []
        entries = []
        for path in self.directory.iterdir():
            match = _NAME.match(path.name)
            if match:
                entries.append((int(match[1]), int(match[2]), path))
        entries.sort()
        return entries

    def _prune(self) -> None:
        entries = self._entries()
        for _, _, path in entries[: max(0, len(entries) - self.keep)]:
            try:
                path.unlink()
            except OSError:
                pass  # someone else pruned it; the next save retries

    def _read(self, path: Path) -> Any:
        payload = path.read_bytes()
        if not payload.startswith(_MAGIC):
            raise CheckpointError(f"{path}: not a checkpoint file")
        stored = int.from_bytes(payload[len(_MAGIC): len(_MAGIC) + 4], "big")
        blob = payload[len(_MAGIC) + 4:]
        if zlib.crc32(blob) != stored:
            raise CheckpointError(
                f"{path}: checksum mismatch (torn write or corruption)"
            )
        return pickle.loads(blob)

    def latest(self) -> tuple[int, int, Any] | None:
        """The newest *verified* checkpoint as ``(epoch, shard, state)``.

        Skips files that fail checksum or unpickling (a torn write from
        a crash mid-save) and falls back to the previous checkpoint;
        returns ``None`` when no usable checkpoint exists.  A pure read:
        finding a checkpoint is not resuming from it.
        """
        for epoch, shard, path in reversed(self._entries()):
            try:
                state = self._read(path)
            except (CheckpointError, OSError, pickle.UnpicklingError,
                    EOFError, AttributeError):
                continue
            return epoch, shard, state
        return None

    def count_resume(self) -> None:
        """Count one accepted resume in ``resilience.resumes``."""
        self._resumes.inc()

    def load(self, epoch: int, shard: int) -> Any:
        """The verified state at exactly cursor ``(epoch, shard)``."""
        path = self._path(epoch, shard)
        if not path.exists():
            raise CheckpointError(f"{path}: no such checkpoint")
        return self._read(path)

    def __repr__(self) -> str:
        return (
            f"CheckpointManager({str(self.directory)!r}, keep={self.keep}, "
            f"{len(self._entries())} on disk)"
        )
