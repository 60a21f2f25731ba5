"""The fault kit's one place allowed to block on the clock.

Retry backoff and injected slow shards funnel through :func:`sleep`.
The ``raw-sleep`` lint rule allowlists this file, so a bare
``time.sleep()`` anywhere else in the kit fails the lint, and tests can
monkeypatch a single function to make every backoff instantaneous.
"""

from __future__ import annotations

import time


def sleep(seconds: float) -> None:
    """Block the calling thread for ``seconds`` (no-op when <= 0)."""
    if seconds > 0:
        time.sleep(seconds)
