"""Exception taxonomy shared across the toolkit.

Every error carries a ``category`` used by the command-line front end to pick
an exit status: ``config`` (malformed input), ``infeasible`` (model violates a
solvability or stabilizability requirement), ``numerical`` (a solver hit its
guard rails even though the model looked healthy).
"""

from __future__ import annotations

__all__ = [
    "MFLQError",
    "ModelValidationError",
    "ImaginaryAxisError",
    "SingularSubspaceError",
    "RiccatiBlowUpError",
    "FiniteHorizonInsolvableError",
    "MeanFieldInfeasibleError",
    "UnsupportedModelError",
    "SimulationUnstableError",
]


class MFLQError(Exception):
    """Base class; ``category`` drives CLI exit codes."""

    category = "numerical"


class ModelValidationError(MFLQError):
    """Model data fails shape / symmetry / definiteness validation."""

    category = "config"


class ImaginaryAxisError(MFLQError):
    """A Hamiltonian matrix has eigenvalues on the imaginary axis, so no
    dichotomic stable/antistable splitting exists."""

    category = "infeasible"


class SingularSubspaceError(MFLQError):
    """The stable invariant subspace is not of graph form (L1 singular or the
    stable dimension is not n); no stabilizing Riccati root of graph type."""

    category = "infeasible"


class RiccatiBlowUpError(MFLQError):
    """Backward Riccati integration escaped the blow-up cap before reaching
    t=0."""

    category = "numerical"

    def __init__(self, message: str, t_escape: float | None = None):
        super().__init__(message)
        self.t_escape = t_escape


class FiniteHorizonInsolvableError(MFLQError):
    """The finite-horizon game Riccati equation has no solution on [0, T]
    (determinant test failed)."""

    category = "infeasible"


class MeanFieldInfeasibleError(MFLQError):
    """No admissible mean-field path: the closed-loop drift has non-decaying
    modes excited by the initial state."""

    category = "infeasible"

    def __init__(self, message: str, required_x0=None):
        super().__init__(message)
        self.required_x0 = required_x0


class UnsupportedModelError(MFLQError):
    """Model shape outside the supported design space (e.g. infinite-horizon
    game with nonzero mean-field coupling in the dynamics)."""

    category = "config"


class SimulationUnstableError(MFLQError):
    """Monte Carlo state overflowed — the simulated closed loop is unstable at
    the chosen step size."""

    category = "numerical"

    def __init__(self, message: str, t_escape: float | None = None):
        super().__init__(message)
        self.t_escape = t_escape
