"""The one place library code is allowed to write to the console.

The ``bare-print`` lint rule (``python -m tools.analysis`` in a source
checkout, run in CI and tier-1) forbids bare ``print()`` inside
``src/repro`` and allowlists this module: scattered prints are how
benchmark and CLI output drifts away from anything parseable.
Human-facing output goes through :func:`emit` instead — one chokepoint
that keeps an explicit stream, can be silenced for tests, and gives
future work (structured CLI output, log capture) a single seam.

Error text still goes to ``stderr`` via ``emit(..., error=True)``.
"""

from __future__ import annotations

import sys
from typing import Any, TextIO

__all__ = ["emit"]


def emit(
    *parts: Any,
    sep: str = " ",
    end: str = "\n",
    error: bool = False,
    stream: TextIO | None = None,
) -> None:
    """Write one console line (stdout by default, stderr with ``error``)."""
    if stream is None:
        stream = sys.stderr if error else sys.stdout
    print(*parts, sep=sep, end=end, file=stream)
