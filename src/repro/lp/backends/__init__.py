"""LP backends: row storage plus the solver of one LP problem.

:func:`default_backend` is the one factory behind every new
:class:`~repro.lp.problem.LPProblem`:

* :class:`IncrementalBackend` — COO triplet assembly into a persistent
  warm-started HiGHS model; lexicographic stage cuts are *appended*, not
  rebuilt (:mod:`repro.lp.backends.incremental`).
* :class:`ScipyDenseBackend` — only where no HiGHS binding imports (the
  platform picks it, not the user); it is also the incremental backend's
  last-resort solve and the test suite's parity oracle
  (:mod:`repro.lp.backends.scipy_dense`).
"""

from __future__ import annotations

from repro.lp.backends.base import BackendStats, Checkpoint, LPBackend
from repro.lp.backends.incremental import IncrementalBackend, highs_available
from repro.lp.backends.scipy_dense import ScipyDenseBackend


def default_backend() -> LPBackend:
    """A fresh backend for a new LP problem."""
    if highs_available():
        return IncrementalBackend()
    return ScipyDenseBackend()  # pragma: no cover - scipy without HiGHS bindings


__all__ = [
    "BackendStats",
    "Checkpoint",
    "IncrementalBackend",
    "LPBackend",
    "ScipyDenseBackend",
    "default_backend",
    "highs_available",
]
