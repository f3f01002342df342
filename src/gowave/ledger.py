"""Global accounting of PDE solves.

Every convergence comparison in this package is plotted against the number
of wave-equation solves consumed, so the counter has to be exact: each
forward, adjoint, and Born sweep counts as one solve, nothing else does.
Sweeps run one after another; only whole optimizer runs go on threads
(`harness.run_comparison` with `threads > 1`), each with its own ledger.
Increments are lock-protected all the same, so a ledger may be read from
another thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass


@dataclass(frozen=True)
class LedgerSnapshot:
    forward: int
    adjoint: int
    born: int

    @property
    def total(self) -> int:
        return self.forward + self.adjoint + self.born


class SolveLedger:
    """Thread-safe counter of forward/adjoint/Born wave-equation solves."""

    def __init__(self):
        self._lock = threading.Lock()
        self.forward = 0
        self.adjoint = 0
        self.born = 0

    def count_forward(self, n: int = 1) -> None:
        with self._lock:
            self.forward += n

    def count_adjoint(self, n: int = 1) -> None:
        with self._lock:
            self.adjoint += n

    def count_born(self, n: int = 1) -> None:
        with self._lock:
            self.born += n

    @property
    def total(self) -> int:
        with self._lock:
            return self.forward + self.adjoint + self.born

    def snapshot(self) -> LedgerSnapshot:
        with self._lock:
            return LedgerSnapshot(self.forward, self.adjoint, self.born)

    def delta(self, since: LedgerSnapshot) -> LedgerSnapshot:
        now = self.snapshot()
        return LedgerSnapshot(
            now.forward - since.forward,
            now.adjoint - since.adjoint,
            now.born - since.born,
        )

    def __repr__(self):
        s = self.snapshot()
        return f"SolveLedger(forward={s.forward}, adjoint={s.adjoint}, born={s.born})"
