"""Stabilizability, observability, and solvability diagnostics.

PBH rank tests on the rho/2-shifted pairs, square roots of PSD weights, and
``analyze`` which evaluates the equivalent solvability characterizations side
by side: the algebraic-root route (Riccati equations admit suitably signed
rho-stabilizing solutions) against the system-theoretic route (shifted
stabilizability plus the Hurwitz condition on the averaged closed loop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MFLQError, ModelValidationError
from .model import ModelParams, _jsonify, _tol, control_gain_matrix, derived_weights, validate
from .riccati import (
    AlgebraicRiccatiSolution,
    build_hamiltonian,
    imaginary_axis_clear,
    solve_are_stable_subspace,
)

__all__ = [
    "sqrt_psd",
    "AreSummary",
    "StabilizationReport",
    "analyze",
]

PBH_RTOL = 1e-9


def _pbh(A: np.ndarray, W: np.ndarray, stacked: str, every_mode: bool = False) -> bool:
    """PBH rank test of the pair (A, W): [lam I - A, W] (``stacked`` "cols",
    stabilizability) or [lam I - A; W] ("rows", detectability) keeps full
    rank, its smallest singular value above PBH_RTOL times the largest, at
    every eigenvalue lam of A with nonnegative real part, or at every
    eigenvalue when ``every_mode`` (observability).  The caller passes the
    shifted matrix."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    atol = PBH_RTOL * (1.0 + float(np.linalg.norm(A, 2)))
    for lam in np.linalg.eigvals(A):
        if every_mode or lam.real >= -atol:
            pencil = lam * np.eye(n) - A
            M = np.hstack([pencil, W]) if stacked == "cols" else np.vstack([pencil, W])
            s = np.linalg.svd(M, compute_uv=False)
            if not s[-1] > PBH_RTOL * s[0]:
                return False
    return True


def sqrt_psd(Q: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix; rejects input that
    ``validate`` would call indefinite (an eigenvalue below -tol,
    tol = 1e-10 (1 + max |entry|))."""
    Q = np.asarray(Q, dtype=float)
    w, U = np.linalg.eigh(0.5 * (Q + Q.T))
    if np.min(w) < -_tol(Q):
        raise ModelValidationError(
            f"matrix square root requested for an indefinite matrix (min eig {np.min(w):.3e})"
        )
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AreSummary:
    solved: bool
    error: str | None = None
    min_eig: float | None = None
    max_eig: float | None = None
    rho_stabilizing: bool | None = None
    closed_loop_margin: float | None = None  # max Re of the shifted closed loop

    def to_dict(self) -> dict:
        return _jsonify(self)


def _summarize(sol_or_err) -> tuple[AreSummary, AlgebraicRiccatiSolution | None]:
    if isinstance(sol_or_err, Exception):
        return AreSummary(solved=False, error=str(sol_or_err)), None
    sol = sol_or_err
    w = np.linalg.eigvalsh(0.5 * (sol.X + sol.X.T))
    return (
        AreSummary(
            solved=True,
            min_eig=float(w[0]),
            max_eig=float(w[-1]),
            rho_stabilizing=sol.rho_stabilizing,
            closed_loop_margin=float(np.max(sol.spectrum.real)),
        ),
        sol,
    )


@dataclass(frozen=True, eq=False)
class StabilizationReport:
    stabilizable_A: bool
    stabilizable_AG: bool
    observable_Q: bool
    observable_QIG: bool
    detectable_Q: bool
    detectable_QIG: bool
    m1_clear: bool
    m2_clear: bool
    a4_hurwitz: bool | None
    governing: str | None
    cond_ii: bool | None
    cond_iii: bool | None
    verdict: str
    notes: list
    are_P: AreSummary
    are_Pi: AreSummary

    def to_dict(self) -> dict:
        return _jsonify(self)

    def render(self) -> str:
        rows = [
            ("stabilizable (A - rho/2 I, B)", self.stabilizable_A),
            ("stabilizable (A + G - rho/2 I, B)", self.stabilizable_AG),
            ("observable (A - rho/2 I, sqrtQ)", self.observable_Q),
            ("observable (A + G - rho/2 I, sqrtQ(I - Gamma))", self.observable_QIG),
            ("detectable (A - rho/2 I, sqrtQ)", self.detectable_Q),
            ("detectable (A + G - rho/2 I, sqrtQ(I - Gamma))", self.detectable_QIG),
            ("M1 spectrum clear of imaginary axis", self.m1_clear),
            ("M2 spectrum clear of imaginary axis", self.m2_clear),
            ("individual ARE solved", self.are_P.solved),
            ("average ARE solved", self.are_Pi.solved),
            ("averaged closed loop Hurwitz (shifted)", self.a4_hurwitz),
            ("governing characterization", self.governing),
            ("algebraic route (ii)", self.cond_ii),
            ("system-theoretic route (iii)", self.cond_iii),
            ("verdict", self.verdict),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def analyze(params: ModelParams) -> StabilizationReport:
    """Evaluate both solvability routes and report their consistency.

    The governing characterization is picked by the strongest premise that
    holds: full observability, then detectability, then axis-clear Hamiltonian
    spectra.  When none applies the verdict is ``premise-violated``.  The
    model is validated first.
    """
    validate(params)
    w = derived_weights(params)
    A, B, G, rho = params.A, params.B, params.G, params.rho
    n = params.n
    shift = 0.5 * rho * np.eye(n)
    S = control_gain_matrix(params.B, params.R)
    sqQ = sqrt_psd(params.Q)
    C1 = sqQ
    C2 = sqQ @ (np.eye(n) - params.Gamma)

    stab_A = _pbh(A - shift, B, "cols")
    stab_AG = _pbh(A + G - shift, B, "cols")
    obs_Q = _pbh(A - shift, C1, "rows", every_mode=True)
    obs_QIG = _pbh(A + G - shift, C2, "rows", every_mode=True)
    det_Q = _pbh(A - shift, C1, "rows")
    det_QIG = _pbh(A + G - shift, C2, "rows")

    m1 = build_hamiltonian(params, w, "M1")
    m2 = build_hamiltonian(params, w, "M2")
    m1_clear = imaginary_axis_clear(m1)
    m2_clear = imaginary_axis_clear(m2)

    def attempt(ham):
        try:
            return solve_are_stable_subspace(ham)
        except MFLQError as exc:
            return exc

    sum_P, sol_P = _summarize(attempt(m1))
    sum_Pi, sol_Pi = _summarize(attempt(m2))

    a4 = None
    if sol_P is not None:
        Abar_G = A - S @ sol_P.X + G - shift
        a4 = bool(np.max(np.linalg.eigvals(Abar_G).real) < 0.0)

    # the paper's premises, strongest first, each with the sign test both
    # Riccati roots must pass under it; the first premise that holds governs
    pd_tol = 1e-9
    premises = (
        ("observability", obs_Q and obs_QIG, lambda are: are.min_eig > pd_tol),
        ("detectability", det_Q and det_QIG, lambda are: are.min_eig > -pd_tol),
        ("axis-clear", m1_clear and m2_clear, lambda are: are.rho_stabilizing),
    )
    governing, sign_test = next(((name, test) for name, holds, test in premises if holds),
                                (None, None))

    notes: list[str] = []
    cond_ii = cond_iii = None
    verdict = "premise-violated"
    if governing is not None:
        sign_ok = sum_P.solved and sum_Pi.solved and sign_test(sum_P) and sign_test(sum_Pi)
        cond_ii = bool(sign_ok and a4 is True)
        cond_iii = bool(stab_A and stab_AG and a4 is True)
        if stab_A and stab_AG and a4 is None:
            notes.append("stabilizability holds but the individual ARE did not solve; "
                         "routes cannot be compared cleanly")
        if cond_ii == cond_iii:
            verdict = "consistent-true" if cond_ii else "consistent-false"
        else:
            verdict = "inconsistent"

    return StabilizationReport(
        stabilizable_A=stab_A, stabilizable_AG=stab_AG,
        observable_Q=obs_Q, observable_QIG=obs_QIG,
        detectable_Q=det_Q, detectable_QIG=det_QIG,
        m1_clear=m1_clear, m2_clear=m2_clear,
        are_P=sum_P, are_Pi=sum_Pi,
        a4_hurwitz=a4, governing=governing,
        cond_ii=cond_ii, cond_iii=cond_iii, verdict=verdict, notes=notes,
    )
