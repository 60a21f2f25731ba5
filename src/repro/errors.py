"""Exception hierarchy shared across the package.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch one type to handle anything the library signals.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SchemaError(ReproError):
    """A table or star schema is malformed.

    Raised for duplicate column names, ragged column lengths, unknown
    column references, non-unique primary keys, and similar structural
    problems.
    """


class ReferentialIntegrityError(SchemaError):
    """A foreign-key column references values absent from the dimension.

    The paper assumes closed foreign-key domains (Section 2.2); this error
    signals a violation of that assumption at schema-validation time.
    """


class UnseenCategoryError(ReproError):
    """A categorical value absent from training data arose at prediction.

    The paper observes (Section 6.2) that popular R decision-tree
    implementations crash in this situation.  We reproduce the behaviour
    as a typed error so the smoothing heuristics of
    :mod:`repro.core.smoothing` have something concrete to fix.
    """

    def __init__(self, feature, code):
        self.feature = feature
        self.code = code
        super().__init__(
            f"feature {feature!r} saw category code {code!r} at prediction "
            f"time that never occurred during training; apply a smoother "
            f"from repro.core.smoothing or set unseen='majority'"
        )


class NotFittedError(ReproError):
    """An estimator method requiring a fitted model was called before fit."""


class ModelSelectionError(ReproError):
    """A model-selection search produced no usable model.

    Raised when every grid point of a :class:`repro.ml.GridSearch`
    yields a non-comparable (NaN) validation score, instead of leaving
    the search silently unfitted and failing later with a bare
    ``AttributeError`` at predict time.
    """


class CSVIntegrityError(SchemaError):
    """A CSV file was truncated or mutated while being streamed.

    Raised by :func:`repro.relational.io.iter_csv_chunks` and the
    CSV-backed shard loaders when a file yields fewer rows than it held
    when it was scanned, or a row with the wrong field count — the
    signatures of a truncated or concurrently rewritten file.  Carries
    the offending row number (1-based data row) and the byte offset of
    the failure so an operator can inspect the file directly.
    """

    def __init__(self, path, message, row: int | None = None,
                 byte_offset: int | None = None):
        self.path = path
        self.row = row
        self.byte_offset = byte_offset
        where = ""
        if row is not None:
            where += f" at data row {row}"
        if byte_offset is not None:
            where += f" (byte offset {byte_offset})"
        super().__init__(f"{path}: {message}{where}")


class SpillCorruptionError(ReproError):
    """A spill-cache entry failed its checksum or could not be decoded.

    :class:`repro.data.SpillCacheSource` handles this internally — a
    corrupt entry triggers a transparent re-encode from the wrapped
    source — so callers only ever see it if re-production fails too.
    """


class CheckpointError(ReproError):
    """A training checkpoint could not be written, read, or applied.

    Raised for incompatible resume attempts (different model class,
    shard count, or epoch schedule than the checkpointed run) and for
    checkpoint directories containing no usable checkpoint when one was
    required.
    """


class ConvergenceWarning(UserWarning):
    """An iterative solver stopped at its iteration limit."""
