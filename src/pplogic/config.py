"""Runtime knobs shared by the deciders and the command line."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .prop import DEFAULT_SCOPE_CAP

SOLVER_ENV_VAR = "PPLOGIC_SOLVER"


@dataclass
class Config:
    solver: Optional[str] = None  # external SMT command, e.g. "z3 -smt2"
    timeout: float = 30.0  # seconds per external solver call
    scope_cap: int = DEFAULT_SCOPE_CAP  # atoms enumerable per scope
    clause_cap: int = 4096  # clauses tolerated in a negated matrix

    def __post_init__(self):
        if self.scope_cap <= 0 or self.clause_cap <= 0:
            raise ValueError("caps must be positive")
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def resolved_solver(self) -> Optional[str]:
        """Configured solver command, with the environment overriding."""
        return os.environ.get(SOLVER_ENV_VAR) or self.solver
