"""Stabilizability, observability, and solvability diagnostics.

PBH rank tests on the rho/2-shifted pairs, square roots of PSD weights, the
closed-form scalar criteria, and ``analyze`` which evaluates the equivalent
solvability characterizations side by side: the algebraic-root route (Riccati
equations admit suitably signed rho-stabilizing solutions) against the
system-theoretic route (shifted stabilizability plus the Hurwitz condition on
the averaged closed loop).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MFLQError, ModelValidationError
from .model import ModelParams, _jsonify, _tol, derived_weights
from .riccati import (
    AlgebraicRiccatiSolution,
    build_hamiltonian,
    control_gain_matrix,
    imaginary_axis_clear,
    solve_are_stable_subspace,
)

__all__ = [
    "pbh_rank_ok",
    "pbh_stabilizable",
    "pbh_observable",
    "pbh_detectable",
    "sqrt_psd",
    "AreSummary",
    "StabilizationReport",
    "analyze",
    "Example1Result",
    "scalar_example1",
]

PBH_RTOL = 1e-9


def pbh_rank_ok(A: np.ndarray, W: np.ndarray, lam: complex, stacked: str = "cols") -> bool:
    """Full-rank test of [lam I - A, W] (cols) or [lam I - A; W] (rows): the
    smallest singular value exceeds PBH_RTOL times the largest."""
    n = A.shape[0]
    pencil = lam * np.eye(n) - A
    M = np.hstack([pencil, W]) if stacked == "cols" else np.vstack([pencil, W])
    s = np.linalg.svd(M, compute_uv=False)
    return bool(s[-1] > PBH_RTOL * s[0])


def _pbh_unstable_modes_ok(A, W, stacked: str) -> bool:
    """The PBH rank test on every eigenvalue with nonnegative real part."""
    A = np.asarray(A, dtype=float)
    atol = PBH_RTOL * (1.0 + float(np.linalg.norm(A, 2)))
    return all(pbh_rank_ok(A, W, lam, stacked)
               for lam in np.linalg.eigvals(A) if lam.real >= -atol)


def pbh_stabilizable(A: np.ndarray, B: np.ndarray) -> bool:
    """PBH: every eigenvalue with nonnegative real part must keep
    [lam I - A, B] at full row rank.  The caller passes the shifted matrix."""
    return _pbh_unstable_modes_ok(A, B, "cols")


def pbh_observable(A: np.ndarray, C: np.ndarray) -> bool:
    """PBH observability: [lam I - A; C] full column rank at every eigenvalue."""
    A = np.asarray(A, dtype=float)
    return all(pbh_rank_ok(A, C, lam, "rows") for lam in np.linalg.eigvals(A))


def pbh_detectable(A: np.ndarray, C: np.ndarray) -> bool:
    """PBH detectability: the rank test only binds on non-decaying modes."""
    return _pbh_unstable_modes_ok(A, C, "rows")


def sqrt_psd(Q: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix; rejects input that
    ``validation_issues`` would call indefinite (an eigenvalue below -tol,
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
    spectra.  When none applies the verdict is ``premise-violated``.
    """
    w = derived_weights(params)
    A, B, G, rho = params.A, params.B, params.G, params.rho
    n = params.n
    shift = 0.5 * rho * np.eye(n)
    S = control_gain_matrix(params.B, params.R)
    sqQ = sqrt_psd(params.Q)
    C1 = sqQ
    C2 = sqQ @ (np.eye(n) - params.Gamma)

    stab_A = pbh_stabilizable(A - shift, B)
    stab_AG = pbh_stabilizable(A + G - shift, B)
    obs_Q = pbh_observable(A - shift, C1)
    obs_QIG = pbh_observable(A + G - shift, C2)
    det_Q = pbh_detectable(A - shift, C1)
    det_QIG = pbh_detectable(A + G - shift, C2)

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


# ---------------------------------------------------------------------------
# closed-form scalar criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Example1Result:
    individual_ok: bool        # (a - rho/2)^2 + b^2 q / r > 0
    average_ok: bool           # (a + g - rho/2)^2 + (b^2/r)(1-gamma)^2 q > 0
    delta: float               # 4 [ (a - rho/2)^2 + b^2 q / r ]
    p: float                   # nonnegative stabilizing root
    closed_loop: float         # a - b^2 p / r - rho/2
    identity_residual: float   # closed_loop + sqrt(delta)/2


def scalar_example1(a: float, b: float, q: float, r: float, rho: float,
                    g: float = 0.0, gamma: float = 0.0) -> Example1Result:
    """Closed-form scalar solvability data.

    The quadratic (b^2/r) p^2 - (2a - rho) p - q = 0 has the rho-stabilizing
    root p = [(2a - rho) + sqrt(delta)] / (2 b^2 / r) when b != 0, and the
    shifted closed loop then equals -sqrt(delta)/2 identically.
    """
    if r <= 0:
        raise ModelValidationError("scalar criteria need r > 0")
    half = a - rho / 2.0
    delta = 4.0 * (half * half + b * b * q / r)
    individual_ok = half * half + b * b * q / r > 0.0
    half_g = a + g - rho / 2.0
    average_ok = half_g * half_g + (b * b / r) * (1.0 - gamma) ** 2 * q > 0.0
    if b != 0.0:
        p = ((2.0 * a - rho) + np.sqrt(delta)) / (2.0 * b * b / r)
        closed_loop = a - b * b * p / r - rho / 2.0
        residual = closed_loop + np.sqrt(delta) / 2.0
    else:
        # linear equation; defined only away from a = rho/2
        p = q / (rho - 2.0 * a) if rho != 2.0 * a else np.inf
        closed_loop = a - rho / 2.0
        residual = np.nan
    return Example1Result(
        individual_ok=bool(individual_ok),
        average_ok=bool(average_ok),
        delta=float(delta),
        p=float(p),
        closed_loop=float(closed_loop),
        identity_residual=float(residual),
    )
