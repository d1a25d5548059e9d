"""Frozen-coefficient mode analysis and energy certificates for the linearized flow.

Perturbations of the uniform shearing state, written in relative form and in
the rescaled time tau, decouple into cosine modes.  Mode j evolves by

    d/dtau (u_j, theta_j) = [[-n x,  alpha x], [n+1, -alpha - k x]] (u_j, theta_j),

with x = (j pi)^2 and diffusion coefficient k; the physical problem has the
non-autonomous coefficient k(tau) = kappa c0 exp(alpha tau).  The two real
eigenvalues per mode classify stability: mode j >= 1 is asymptotically stable
iff n k (j pi)^2 > alpha.  Energy weights (A, B) certify decay of the full
non-autonomous system after a computable stabilization time T.  The mode ODEs
are integrated by DOPRI5 with SciPy RK45's tableau and step controller
(``_dopri``), or by the trapezoidal rule when explicit stepping is too stiff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dopri import check_t_eval, solve_ivp
from .errors import ParameterError, StiffnessError
from .material import MaterialParams, t_of_tau, tau_of_t

__all__ = [
    "ModeEigen",
    "ModeSpectrum",
    "ModeTrajectory",
    "EnergyCertificate",
    "DecayReport",
    "mode_eigen",
    "spectrum",
    "asymptotic_eigen",
    "mode_matrix",
    "trotter_split",
    "frozen_mode_solution",
    "integrate_mode",
    "energy_certificate",
    "energy_decay_check",
]

STABLE = "asymptotically-stable"
UNSTABLE = "unstable"
MARGINAL = "marginal"

DEFAULT_JMAX = 256


@dataclass(frozen=True)
class ModeEigen:
    """Eigenpair of one cosine mode of the frozen-coefficient linearization."""

    j: int
    lambda_minus: float
    lambda_plus: float
    discriminant: float
    classification: str


@dataclass(frozen=True)
class ModeSpectrum:
    """Eigenvalues and classifications for modes j = 0..jmax at frozen diffusion k."""

    params: MaterialParams
    k: float
    modes: tuple
    num_unstable: int

    def __iter__(self):
        return iter(self.modes)


def _quadratic_coeffs(params: MaterialParams, k: float, j: int):
    x = (j * math.pi) ** 2
    b = params.alpha + (params.n + k) * x
    c = params.n * k * x * x - params.alpha * x
    return x, b, c


def mode_eigen(params: MaterialParams, k: float, j: int) -> ModeEigen:
    """Both eigenvalues of mode j at frozen diffusion k >= 0.

    Roots of lambda^2 + b lambda + c with b = alpha + (n+k)(j pi)^2 and
    c = n k (j pi)^4 - alpha (j pi)^2, computed cancellation-free: the
    larger-magnitude root from -(b + sqrt(D))/2 (b > 0 always), the companion
    from the product c.  For large j the roots differ by orders of magnitude,
    which the textbook formula would lose.
    """
    if j < 0:
        raise ParameterError(f"mode index must be >= 0, got {j}")
    if k < 0.0:
        raise ParameterError(f"k must be >= 0, got {k}")
    x, b, c = _quadratic_coeffs(params, k, j)
    disc = b * b - 4.0 * c
    lam_minus = -0.5 * (b + math.sqrt(disc))
    lam_plus = c / lam_minus if lam_minus != 0.0 else 0.0
    if j == 0 or c == 0.0:
        cls = MARGINAL
    elif c < 0.0:
        cls = UNSTABLE
    else:
        cls = STABLE
    return ModeEigen(j=j, lambda_minus=lam_minus, lambda_plus=lam_plus,
                     discriminant=disc, classification=cls)


def spectrum(params: MaterialParams, k: float, jmax: int = DEFAULT_JMAX) -> ModeSpectrum:
    """Modes 0..jmax with the count of unstable ones.

    For k = 0 every mode j >= 1 is unstable; for k above alpha/(n pi^2) none is.
    """
    if jmax < 1:
        raise ParameterError(f"jmax must be >= 1, got {jmax}")
    modes = tuple(mode_eigen(params, k, j) for j in range(jmax + 1))
    num_unstable = sum(1 for m in modes if m.classification == UNSTABLE)
    return ModeSpectrum(params=params, k=k, modes=modes, num_unstable=num_unstable)


def asymptotic_eigen(params: MaterialParams, k: float, j: int):
    """Truncated large-j eigenvalue expansions and the regime they belong to.

    Returns (lambda_minus_approx, lambda_plus_approx, regime) with regime one
    of 'hadamard' (k = 0, n = 0), 'turing' (k = 0, n > 0) or 'diffusive'
    (k > 0, n > 0).  The diffusive expansion is derived for n > k; the n < k
    companion mirrors the leading (j pi)^2 terms with the correction
    coefficient alpha(n+1) in place of alpha(k+1).  Within |n - k| < 1e-8 the
    expansions degenerate and the exact roots are returned instead.
    """
    if j < 1:
        raise ParameterError(f"asymptotics require j >= 1, got {j}")
    n, alpha = params.n, params.alpha
    x = (j * math.pi) ** 2
    if k == 0.0 and n == 0.0:
        jp = j * math.pi
        s = math.sqrt(alpha)
        lam_m = -s * jp - alpha / 2.0 - alpha * s / (8.0 * jp)
        lam_p = s * jp - alpha / 2.0 + alpha * s / (8.0 * jp)
        return lam_m, lam_p, "hadamard"
    if k == 0.0:
        lam_p = alpha * x / (alpha + n * x)
        lam_m = -n * x - alpha - lam_p
        return lam_m, lam_p, "turing"
    if n == 0.0:
        raise ParameterError("no expansion for k > 0, n = 0")
    if abs(n - k) < 1e-8:
        m = mode_eigen(params, k, j)
        return m.lambda_minus, m.lambda_plus, "diffusive"
    d = abs(n - k + alpha / x)
    if n > k:
        corr = alpha * (k + 1.0) / d
        lam_m = -n * x - alpha - corr
        lam_p = -k * x + corr
    else:
        corr = alpha * (n + 1.0) / d
        lam_p = -n * x + corr
        lam_m = -k * x - alpha - corr
    return lam_m, lam_p, "diffusive"


def mode_matrix(params: MaterialParams, k: float, j: int) -> np.ndarray:
    """The 2x2 coefficient matrix of mode j at frozen diffusion k."""
    x = (j * math.pi) ** 2
    return np.array([[-params.n * x, params.alpha * x],
                     [params.n + 1.0, -params.alpha - k * x]])


def trotter_split(params: MaterialParams, j: int):
    """The two individually stable matrices whose sum is the k = 0 mode matrix.

    Each summand has spectrum in the closed left half-plane, yet the sum has a
    positive eigenvalue for every j >= 1: the instability is of Turing type.
    """
    x = (j * math.pi) ** 2
    a1 = np.array([[-0.5 * params.n * x, params.alpha * x],
                   [0.0, -0.5 * params.alpha]])
    a2 = np.array([[-0.5 * params.n * x, 0.0],
                   [params.n + 1.0, -0.5 * params.alpha]])
    return a1, a2


def frozen_mode_solution(params: MaterialParams, k: float, j: int, init, tau):
    """Closed-form solution of the frozen mode ODE via eigen-decomposition.

    Independent of the time-stepping route: builds the solution from the
    eigenvalues of :func:`mode_eigen` and the matrix eigenvectors, so it can
    cross-check the integrator.  The discriminant is >= alpha^2 > 0, so the
    eigenvalues are always distinct.
    """
    m = mode_eigen(params, k, j)
    A = mode_matrix(params, k, j)
    V = np.empty((2, 2))
    for col, lam in enumerate((m.lambda_minus, m.lambda_plus)):
        # eigenvector of [[a11-lam, a12], [a21, a22-lam]]
        if abs(A[0, 1]) > abs(A[1, 0]):
            V[:, col] = (A[0, 1], lam - A[0, 0])
        else:
            V[:, col] = (lam - A[1, 1], A[1, 0])
    coeff = np.linalg.solve(V, np.asarray(init, dtype=float))
    tau = np.asarray(tau, dtype=float)
    u = coeff[0] * V[0, 0] * np.exp(m.lambda_minus * tau) \
        + coeff[1] * V[0, 1] * np.exp(m.lambda_plus * tau)
    th = coeff[0] * V[1, 0] * np.exp(m.lambda_minus * tau) \
        + coeff[1] * V[1, 1] * np.exp(m.lambda_plus * tau)
    return u, th


@dataclass(frozen=True)
class ModeTrajectory:
    """Sampled trajectory of one mode: (u_j, theta_j) on a tau grid."""

    j: int
    taus: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    method: str

    @property
    def endpoint(self):
        return self.u[-1], self.theta[-1]


def _nonautonomous_k(params: MaterialParams, tau):
    with np.errstate(over="ignore"):   # k = inf past the float range; callers reject it
        return params.kappa * np.exp(params.log_c0 + params.alpha * tau)


# The most steps _trapezoid_mode takes: 130x the most any test or benchmark op
# needs (76,765), and about 1 GB of samples.
MAX_TRAPEZOID_STEPS = 10_000_000


def _trapezoid_mode(params: MaterialParams, j: int, init, tau_end: float,
                    k_of_tau, tau_eval=None) -> ModeTrajectory:
    # A-stable fixed-step trapezoidal rule; the system is linear so each step
    # is one closed-form 2x2 solve.
    x = (j * math.pi) ** 2
    k_end = float(k_of_tau(tau_end))
    if not math.isfinite(k_end):
        raise StiffnessError(f"mode {j}: k(tau_end) = {k_end} is not finite "
                             f"at tau_end = {tau_end}")
    h = min(1e-3, 0.1 / max(k_end, 1e-30))
    # checked before anything is allocated; the ratio may be inf
    if not tau_end / h <= MAX_TRAPEZOID_STEPS:
        raise StiffnessError(
            f"mode {j} needs {tau_end / h:.3g} trapezoid steps on [0, {tau_end}] "
            f"(k(tau_end) = {k_end:.3g}), more than {MAX_TRAPEZOID_STEPS}")
    nsteps = max(2, int(math.ceil(tau_end / h)))
    taus = np.linspace(0.0, tau_end, nsteps + 1)
    h = taus[1] - taus[0]
    kvals = np.asarray(k_of_tau(taus), dtype=float)

    a11 = -params.n * x
    a12 = params.alpha * x
    a21 = params.n + 1.0
    a22 = (-params.alpha - kvals * x).tolist()

    # the loop runs on Python floats: the same IEEE operations as on float64
    # array elements, without the per-element indexing
    hh = 0.5 * float(h)
    m11 = 1.0 - hh * a11
    m12 = -hh * a12
    m21 = -hh * a21
    u0, th0 = (float(v) for v in init)
    us = [u0]
    ths = [th0]
    for m in range(nsteps):
        r0 = u0 + hh * (a11 * u0 + a12 * th0)
        r1 = th0 + hh * (a21 * u0 + a22[m] * th0)
        # solve (I - hh*A(tau_{m+1})) y = r
        m22 = 1.0 - hh * a22[m + 1]
        det = m11 * m22 - m12 * m21
        u0 = (m22 * r0 - m12 * r1) / det
        th0 = (m11 * r1 - m21 * r0) / det
        us.append(u0)
        ths.append(th0)

    u, th = np.array(us), np.array(ths)
    if tau_eval is not None:
        u = np.interp(tau_eval, taus, u)
        th = np.interp(tau_eval, taus, th)
        taus = tau_eval
    return ModeTrajectory(j=j, taus=taus, u=u, theta=th, method="trapezoid")


def integrate_mode(params: MaterialParams, j: int, init, tau_end: float,
                   frozen_k: float | None = None, rtol: float = 1e-10,
                   method: str = "auto", tau_eval=None) -> ModeTrajectory:
    """Integrate the mode-j ODE on [0, tau_end].

    With ``frozen_k`` the 2x2 system is autonomous at that diffusion value;
    without it the true non-autonomous coefficient k(tau) = kappa c0
    exp(alpha tau) is evaluated analytically inside the right-hand side (never
    tabulated: it is the stiffness-critical coefficient).

    method 'auto' uses the adaptive embedded Runge-Kutta 5(4) pair, DOPRI5
    (``_dopri.solve_ivp``: SciPy RK45's tableau and step controller on Python
    floats), and switches to the fixed-step trapezoidal rule when the
    stiffness estimate k(tau_end) (j pi)^2 tau_end makes explicit stepping
    hopeless; 'rk45' raises StiffnessError in that situation instead.
    ``tau_eval``, if given, must be 1-D, inside [0, tau_end] and strictly
    increasing (ParameterError otherwise).
    """
    if tau_end <= 0.0:
        raise ParameterError(f"tau_end must be > 0, got {tau_end}")
    if j < 0:
        raise ParameterError(f"mode index must be >= 0, got {j}")
    if tau_eval is not None:
        try:
            tau_eval = check_t_eval(tau_eval, (0.0, tau_end))
        except ValueError as exc:
            raise ParameterError(f"tau_eval: {exc}") from None
    x = (j * math.pi) ** 2

    if frozen_k is not None:
        if frozen_k < 0.0:
            raise ParameterError(f"frozen_k must be >= 0, got {frozen_k}")
        k_of_tau = lambda tau: np.full_like(np.asarray(tau, dtype=float), frozen_k)
        k_end = frozen_k
    else:
        k_of_tau = lambda tau: _nonautonomous_k(params, tau)
        k_end = float(_nonautonomous_k(params, tau_end))

    # fastest rate in the system over the horizon; explicit steps ~ 3/rate
    rate = params.alpha + (params.n + k_end) * x
    est_steps = rate * tau_end / 3.0
    if method == "auto":
        method = "trapezoid" if est_steps > 2e4 else "rk45"
    if method == "trapezoid":
        return _trapezoid_mode(params, j, init, tau_end, k_of_tau, tau_eval)
    if method != "rk45":
        raise ParameterError(f"unknown method {method!r}")
    if est_steps > 2e5:
        raise StiffnessError(
            f"mode {j} needs ~{est_steps:.1e} explicit steps on [0, {tau_end}]; "
            "use method='trapezoid'")

    a11 = -params.n * x
    a12 = params.alpha * x
    a21 = params.n + 1.0

    alpha, kappa, log_c0 = params.alpha, params.kappa, params.log_c0

    def rhs(tau, u, th):
        k = frozen_k if frozen_k is not None else kappa * math.exp(log_c0 + alpha * tau)
        return (a11 * u + a12 * th, a21 * u - (alpha + k * x) * th)

    sol = solve_ivp(rhs, (0.0, tau_end), init, rtol=rtol, atol=1e-14,
                    t_eval=tau_eval)
    if sol.status != 0:
        raise StiffnessError(f"mode integration failed: {sol.message}")
    return ModeTrajectory(j=j, taus=sol.t, u=sol.y[0], theta=sol.y[1], method="rk45")


@dataclass(frozen=True)
class EnergyCertificate:
    """Weights certifying decay of the weighted perturbation energy.

    A  -- weight on the strain-rate part; A n/(2 Cp) >= (n+1)^2/alpha
    B  -- weight for the intermediate-time bound; B kappa > (alpha^2/2n) sigma_s(0)
    C_B -- Gronwall growth constant of the intermediate-time bound
    Cp -- Poincare constant of zero-mean Neumann functions on [0,1] (1/pi^2)
    T  -- stabilization time: (A alpha^2 / 2n) sigma_s(t) < kappa for t >= T
    """

    params: MaterialParams
    A: float
    B: float
    C_B: float
    Cp: float
    T: float

    @property
    def tau_T(self) -> float:
        return tau_of_t(self.params, self.T)


_HEADROOM = 1.1
_MONOTONE_SLACK = 1e-9


def energy_certificate(params: MaterialParams) -> EnergyCertificate:
    """Minimal (A, B) meeting the selection inequalities, with 10% headroom."""
    n, alpha, kappa = params.n, params.alpha, params.kappa
    if n <= 0.0 or kappa <= 0.0:
        raise ParameterError("energy certificate requires n > 0 and kappa > 0")
    cp = 1.0 / math.pi ** 2
    A = _HEADROOM * 2.0 * cp * (n + 1.0) ** 2 / (alpha * n)
    c0 = params.c0
    sigma_s0 = 1.0 / c0
    B = _HEADROOM * alpha ** 2 * sigma_s0 / (2.0 * n * kappa)
    C_B = B * (n + 1.0) ** 2 * sigma_s0 / alpha
    T = max(0.0, (A * alpha ** 2 / (2.0 * n * kappa) - c0) / alpha)
    return EnergyCertificate(params=params, A=A, B=B, C_B=C_B, Cp=cp, T=T)


@dataclass(frozen=True)
class DecayReport:
    """Synthesis of the weighted energy over a set of perturbation modes."""

    taus: np.ndarray
    ts: np.ndarray
    E: np.ndarray
    T: float | None
    tau_T: float | None
    max_E_before_T: float | None
    monotone_after_T: bool | None
    E_end_over_E0: float
    certificate_applicable: bool
    monotone_slack: float = _MONOTONE_SLACK


def energy_decay_check(params: MaterialParams, cert: EnergyCertificate | None,
                       modes, tau_end: float, npoints: int = 1200) -> DecayReport:
    """Integrate the given modes (non-autonomous) and report on the energy.

    ``modes`` is a sequence of (j, (u0, theta0)) with j >= 1: the j = 0 strain
    mode is excluded by the zero-mean constraint on u.  The energy is
    E = sum_j [(A/2) u_j^2 + (1/2) theta_j^2] / 2, the 1/2 from the L2 norm of
    cos(j pi x).  With kappa = 0 (or no certificate) the report flags the
    certificate as non-applicable and uses A = 1.
    """
    for j, _ in modes:
        if j < 1:
            raise ParameterError("energy check admits only modes j >= 1")
    applicable = cert is not None and params.kappa > 0.0
    A = cert.A if applicable else 1.0

    taus = np.linspace(0.0, tau_end, npoints)
    E = np.zeros(npoints)
    for j, init in modes:
        traj = integrate_mode(params, j, init, tau_end, tau_eval=taus)
        E += 0.5 * (0.5 * A * traj.u ** 2 + 0.5 * traj.theta ** 2)
    ts = t_of_tau(params, taus)

    T = tau_T = max_before = monotone = None
    if applicable:
        T = cert.T
        tau_T = cert.tau_T
        before = taus <= tau_T
        after = ~before
        max_before = float(E[before].max()) if np.any(before) else None
        if np.any(after):
            seg = E[after]
            # below integrator tolerance the energy is solver noise
            tol = _MONOTONE_SLACK * max(seg.max(), 1e-300)
            monotone = bool(np.all(np.diff(seg) <= tol))
        else:
            monotone = True
    return DecayReport(taus=taus, ts=ts, E=E, T=T, tau_T=tau_T,
                       max_E_before_T=max_before, monotone_after_T=monotone,
                       E_end_over_E0=float(E[-1] / E[0]) if E[0] > 0 else math.nan,
                       certificate_applicable=applicable)
