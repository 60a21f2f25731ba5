"""Categorical domains and columns.

The paper assumes every feature is categorical with a known, finite
("closed") domain — Section 2.2.  :class:`Domain` models such a domain as
an ordered, immutable collection of labels; :class:`CategoricalColumn`
stores a vector of values as integer codes into a domain, the
representation every downstream component (joins, encoders, learners)
operates on.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from types import MappingProxyType
from typing import Hashable

import numpy as np

from repro.errors import SchemaError

#: Conventional label for the placeholder level the paper uses to absorb
#: hitherto-unseen values of a closed domain (Section 2.2).
OTHERS_LABEL = "Others"


class Domain:
    """An ordered, immutable, closed categorical domain.

    Parameters
    ----------
    labels:
        The category labels, in code order.  Labels must be hashable and
        unique; code ``i`` denotes ``labels[i]``.

    Examples
    --------
    >>> gender = Domain(["F", "M"])
    >>> gender.encode(["M", "F", "M"]).tolist()
    [1, 0, 1]
    """

    __slots__ = ("_labels", "_index")

    def __init__(self, labels: Iterable[Hashable]):
        labels = tuple(labels)
        if not labels:
            raise SchemaError("a Domain requires at least one label")
        index = {label: code for code, label in enumerate(labels)}
        if len(index) != len(labels):
            raise SchemaError("Domain labels must be unique")
        self._labels = labels
        self._index = index

    @classmethod
    def of_size(cls, size: int, prefix: str = "v") -> "Domain":
        """Build a domain of ``size`` synthetic labels ``prefix0..prefixN``."""
        if size <= 0:
            raise SchemaError(f"domain size must be positive, got {size}")
        return cls(tuple(f"{prefix}{i}" for i in range(size)))

    @classmethod
    def boolean(cls) -> "Domain":
        """The two-level domain used for boolean features in Section 4."""
        return cls(("0", "1"))

    @property
    def labels(self) -> tuple:
        """The labels in code order."""
        return self._labels

    @property
    def index(self) -> Mapping[Hashable, int]:
        """The label → code dict, read-only and uncopied; no ``"Others"`` fallback."""
        return MappingProxyType(self._index)

    @property
    def has_others(self) -> bool:
        """Whether the domain carries the ``"Others"`` placeholder level."""
        return OTHERS_LABEL in self._index

    def with_others(self) -> "Domain":
        """Return a copy with the ``"Others"`` placeholder appended."""
        if self.has_others:
            return self
        return Domain(self._labels + (OTHERS_LABEL,))

    def code_of(self, label: Hashable) -> int:
        """Return the integer code for ``label``.

        Raises
        ------
        KeyError
            If ``label`` is not in the domain.
        """
        return self._index[label]

    def encode(self, values: Iterable[Hashable]) -> np.ndarray:
        """Map labels to codes, sending unknown labels to ``"Others"``.

        Unknown labels are only tolerated if the domain has the
        ``"Others"`` placeholder; otherwise a :class:`SchemaError` is
        raised, matching the closed-domain assumption.
        """
        others = self._index.get(OTHERS_LABEL)
        codes = np.empty(0, dtype=np.int64)
        out = []
        for value in values:
            code = self._index.get(value, others)
            if code is None:
                raise SchemaError(
                    f"value {value!r} is outside the closed domain and the "
                    f"domain has no 'Others' placeholder"
                )
            out.append(code)
        if out:
            codes = np.asarray(out, dtype=np.int64)
        return codes

    def decode(self, codes: Iterable[int]) -> list:
        """Map integer codes back to labels."""
        labels = self._labels
        return [labels[int(code)] for code in codes]

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Domain) and self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __repr__(self) -> str:
        preview = ", ".join(map(repr, self._labels[:4]))
        suffix = ", ..." if len(self._labels) > 4 else ""
        return f"Domain([{preview}{suffix}], size={len(self._labels)})"


class CategoricalColumn:
    """A named vector of categorical values stored as integer codes.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    domain:
        The closed domain the codes index into.
    codes:
        Integer array; every entry must satisfy ``0 <= code < len(domain)``.
    """

    __slots__ = ("name", "domain", "codes")

    def __init__(self, name: str, domain: Domain, codes: np.ndarray | Sequence[int]):
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 1:
            raise SchemaError(f"column {name!r}: codes must be 1-D, got {codes.ndim}-D")
        if codes.size and (codes.min() < 0 or codes.max() >= len(domain)):
            raise SchemaError(
                f"column {name!r}: codes out of range for domain of size {len(domain)}"
            )
        self.name = name
        self.domain = domain
        self.codes = codes

    @classmethod
    def from_labels(
        cls, name: str, values: Iterable[Hashable], domain: Domain | None = None
    ) -> "CategoricalColumn":
        """Build a column from raw labels, inferring the domain if absent.

        When the domain is inferred, labels are ordered by first
        appearance so round-tripping preserves the input.
        """
        values = list(values)
        if domain is None:
            seen: dict = {}
            for value in values:
                seen.setdefault(value, None)
            domain = Domain(seen.keys())
        return cls(name, domain, domain.encode(values))

    @property
    def n_levels(self) -> int:
        """Size of the column's domain (not just the levels present)."""
        return len(self.domain)

    def labels(self) -> list:
        """Decode the stored codes back to labels."""
        return self.domain.decode(self.codes)

    def level_counts(self) -> np.ndarray:
        """Occurrences of each domain level, indexed by code."""
        return np.bincount(self.codes, minlength=len(self.domain))

    def present_levels(self) -> np.ndarray:
        """Sorted array of codes that actually occur in the column."""
        return np.unique(self.codes)

    def is_unique(self) -> bool:
        """Whether no code occurs more than once (primary-key property)."""
        return len(np.unique(self.codes)) == len(self.codes)

    def take(self, indices: np.ndarray) -> "CategoricalColumn":
        """Return a new column holding ``codes[indices]``."""
        return CategoricalColumn(self.name, self.domain, self.codes[indices])

    def renamed(self, name: str) -> "CategoricalColumn":
        """Return a copy of the column under a different name."""
        return CategoricalColumn(name, self.domain, self.codes)

    def with_codes(self, codes: np.ndarray) -> "CategoricalColumn":
        """Return a copy with the same name/domain but new codes."""
        return CategoricalColumn(self.name, self.domain, codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __repr__(self) -> str:
        return (
            f"CategoricalColumn({self.name!r}, n={len(self.codes)}, "
            f"levels={len(self.domain)})"
        )
