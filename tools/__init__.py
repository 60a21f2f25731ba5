"""Repository tooling that no fit and no prediction runs.

- :mod:`tools.analysis` — the rule-plugin static-analysis suite, run as
  ``python -m tools.analysis`` from a source checkout.
"""
