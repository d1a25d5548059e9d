"""Frozen-coefficient mode analysis and energy certificates for the linearized flow.

Perturbations of the uniform shearing state, written in relative form and in
the rescaled time tau, decouple into cosine modes.  Mode j evolves by

    d/dtau (u_j, theta_j) = [[-n x,  alpha x], [n+1, -alpha - k x]] (u_j, theta_j),

with x = (j pi)^2 and diffusion coefficient k; the physical problem has the
non-autonomous coefficient k(tau) = kappa c0 exp(alpha tau).  The two real
eigenvalues per mode classify stability: mode j >= 1 is asymptotically stable
iff n k (j pi)^2 > alpha.  Energy weights (A, B) certify decay of the full
non-autonomous system after a computable stabilization time T.  The mode ODEs
are integrated by the sixth-order Magnus propagator of ``_magnus`` (three
Gauss points per substep, fourth order where a substep is too stiff for the
series), exact for frozen k, with the substeps of each output interval set to
meet rtol.  As k(tau) grows the mode settles on its slow manifold
theta = m(tau) u, whose series in 1/(k x) has closed-form terms; from the
first grid point where it holds, the stiff tail is taken in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError, StiffnessError
from .material import _HEADROOM, MaterialParams, energy_weight, t_of_tau, tau_of_t

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

# samples of the energy, and of a mode trajectory when no grid is given
MODE_POINTS = 1200


@dataclass(frozen=True)
class ModeEigen:
    """Eigenpair of one cosine mode of the frozen-coefficient linearization."""

    j: int
    lambda_minus: float
    lambda_plus: float
    discriminant: float
    classification: str


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Eigenvalues and classifications for modes j = 0..jmax at frozen diffusion k.

    The fields of :class:`ModeEigen` are held as arrays indexed by j; ``modes``
    gives them as a tuple of ``ModeEigen``, built on first access.
    """

    params: MaterialParams
    k: float
    j: np.ndarray
    lambda_minus: np.ndarray
    lambda_plus: np.ndarray
    discriminant: np.ndarray
    classification: np.ndarray

    @property
    def num_unstable(self) -> int:
        return int(np.count_nonzero(self.classification == UNSTABLE))

    @functools.cached_property
    def modes(self) -> tuple:
        return tuple(ModeEigen(*row) for row in zip(*(a.tolist() for a in (
            self.j, self.lambda_minus, self.lambda_plus, self.discriminant,
            self.classification))))


def _quadratic_coeffs(params: MaterialParams, k: float, j):
    """x = (j pi)^2, b and c of the modes ``j`` (an int array, or an int), shaped as ``j``."""
    x = np.float_power(np.multiply(j, math.pi, dtype=float), 2.0)
    b = params.alpha + (params.n + k) * x
    c = params.n * k * x * x - params.alpha * x
    return x, b, c


def _eigen(params: MaterialParams, k: float, j: np.ndarray):
    """The fields of :class:`ModeEigen` for the int array ``j``, as arrays (see
    :func:`mode_eigen`)."""
    # overflow gives inf and nan without a warning, as in Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        _, b, c = _quadratic_coeffs(params, k, j)
        disc = b * b - 4.0 * c
        lam_minus = -0.5 * (b + np.sqrt(disc))
        lam_plus = np.divide(c, lam_minus, out=np.zeros_like(c), where=lam_minus != 0.0)
    cls = np.where(c < 0.0, UNSTABLE, STABLE)
    cls[(j == 0) | (c == 0.0)] = MARGINAL
    return j, lam_minus, lam_plus, disc, cls


def mode_eigen(params: MaterialParams, k: float, j: int) -> ModeEigen:
    """Both eigenvalues of mode j at frozen diffusion k >= 0.

    Roots of lambda^2 + b lambda + c with b = alpha + (n+k)(j pi)^2 and
    c = n k (j pi)^4 - alpha (j pi)^2, computed cancellation-free: the
    larger-magnitude root from -(b + sqrt(D))/2 (b > 0 always), the companion
    from the product c.  For large j the roots differ by orders of magnitude,
    which the textbook formula would lose.  :func:`spectrum` gives the same
    bits for every mode.
    """
    if j < 0:
        raise ParameterError(f"mode index must be >= 0, got {j}")
    if k < 0.0:
        raise ParameterError(f"k must be >= 0, got {k}")
    return ModeEigen(*(a.item() for a in _eigen(params, k, np.array([j]))))


def spectrum(params: MaterialParams, k: float, jmax: int) -> ModeSpectrum:
    """Modes 0..jmax, jmax >= 1, and the count of unstable ones, as arrays in one pass.

    For k = 0 every mode j >= 1 is unstable; for k above alpha/(n pi^2) none is.
    """
    if jmax < 1:
        raise ParameterError(f"jmax must be >= 1, got {jmax}")
    return ModeSpectrum(params, k, *_eigen(params, k, np.arange(jmax + 1)))


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


def _mode_entries(params: MaterialParams, k, j: int):
    """The entries (a11, a12, a21, a22) of the mode-j matrix; only a22 depends on k."""
    x = (j * math.pi) ** 2
    return -params.n * x, params.alpha * x, params.n + 1.0, -params.alpha - k * x


def _varying_entry(params: MaterialParams, j: int, frozen_k: float | None = None):
    """a22 of mode j as a function of an array of tau, at ``frozen_k`` or at k(tau)."""
    def a22(tau):   # k = inf past the float range, which the propagator reports
        return _mode_entries(params, np.full(tau.shape, frozen_k) if frozen_k is not None
                             else params.kappa * np.exp(params.log_c0 + params.alpha * tau), j)[3]
    return a22


def mode_matrix(params: MaterialParams, k, j: int) -> np.ndarray:
    """The 2x2 coefficient matrix of mode j at diffusion k; a stack of them for an array k."""
    k = np.asarray(k, dtype=float)
    a = np.empty(k.shape + (2, 2))
    a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1] = _mode_entries(params, k, j)
    return a


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
    """Sampled trajectory of one mode: (u_j, theta_j) on a tau grid.

    ``slow_manifold_tau`` is the grid point from which the slow-manifold closed
    form took over from the Magnus propagator, or None where it did not run.
    Where the propagated state is exactly zero before that point, it is the
    first such point: zero lies on the manifold, and stays zero.
    """

    j: int
    taus: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    method: str
    slow_manifold_tau: float | None = None


_ATOL = 1e-14
# terms of the slow-manifold series, and the shares of rtol that its dropped terms and
# the first dropped term of the transient's feed may take.  The feed's share is the
# larger, since w at the propagator's last point carries the propagator's own error: at
# 1e-3 the propagator went on interval by interval, up to 10 solves for one mode.
_SERIES_TERMS = 24
_SERIES_SHARE = 1e-3
_FEED_SHARE = 0.1


def _manifold_series(params: MaterialParams, x: float) -> np.ndarray:
    """c_1..c_{P+1}, P = _SERIES_TERMS, of the slow manifold m = sum_p c_p eps^p.

    theta = m u is invariant where m' = (n+1) - (alpha + K) m - m (alpha x m - n x),
    K = k x; with eps = 1/K, eps' = -alpha eps, the powers of eps give
    c_1 = n+1 and c_{p+1} = (alpha (p-1) + n x) c_p - alpha x sum_{i+j=p} c_i c_j.
    """
    n, alpha = params.n, params.alpha
    c = np.empty(_SERIES_TERMS + 1)
    c[0] = n + 1.0
    for p in range(1, _SERIES_TERMS + 1):
        c[p] = (alpha * (p - 1) + n * x) * c[p - 1] - alpha * x * (c[:p - 1] @ c[:p - 1][::-1])
    return c


def _horner(coeffs, z):
    """sum_p coeffs[p-1] z^p, p >= 1."""
    total = np.zeros_like(z)
    for a in coeffs[::-1]:
        total = (total + a) * z
    return total


class _SlowManifold:
    """A mode of non-frozen k on its slow manifold theta = m u, in closed form.

    ``first`` is the first grid point where the series m to P terms may stand
    for the manifold: its last kept and first dropped terms are below
    _SERIES_SHARE rtol relative to c_1 eps, and so is their effect on u,
    x |c_p| eps^p / p.  Past it, w = theta - m u and u solve exactly

        w' = -r w,  r = alpha + K + alpha x m,
        u' = g u + alpha x w,  g = alpha x m - n x,

    and every eps^p integrates in closed form, to (eps(a)^p - eps(b)^p) / (p alpha)
    over [a, b], so the integrals G of g and R of r from a point on need no
    quadrature and no sum over intervals.  The transient w feeds u by
    alpha x w / r: v = u + alpha x w / r obeys v' = g v up to
    alpha x w (g r + r') / r^2, so v grows by e^G and w decays by e^-R.  eps is
    formed in log space, so K may pass the float range; k itself may not
    (StiffnessError).
    """

    def __init__(self, params: MaterialParams, j: int, grid: np.ndarray, rtol: float):
        alpha, x = params.alpha, (j * math.pi) ** 2
        c = _manifold_series(params, x)
        # log of the largest eps where the last two terms pass both tests; nan or inf
        # coefficients give nan, which no eps passes
        tol = _SERIES_SHARE * rtol
        self.feed_tol = _FEED_SHARE * rtol
        p = np.arange(_SERIES_TERMS, _SERIES_TERMS + 2)
        with np.errstate(divide="ignore"):   # a zero coefficient sets no bound
            log_c = np.log(np.abs(c[-2:]))
        log_eps_max = np.min(np.r_[(math.log(tol * c[0]) - log_c) / (p - 1),
                                   (np.log(tol * p / x) - log_c) / p])
        log_k = params.log_c0 + alpha * grid
        log_eps = -log_k - math.log(params.kappa * x)
        passed = np.flatnonzero(log_eps <= log_eps_max)
        self.last = grid.size - 1
        self.first = int(passed[0]) if passed.size else self.last
        if self.first == self.last:
            return
        with np.errstate(over="ignore"):   # k past the float range is reported; K may pass it
            k = params.kappa * np.exp(log_k)
            self.K = k[self.first:] * x
        if not np.isfinite(k[-1]):
            bad = int(np.argmax(~np.isfinite(k)))
            raise StiffnessError(f"k(tau) is not finite on [{grid[max(bad - 1, 0)]}, {grid[bad]}]")
        eps = np.exp(log_eps[self.first:])
        self.alpha, self.ax, self.nx = alpha, alpha * x, params.n * x
        self.tau = grid[self.first:]
        self.m = _horner(c[:-1], eps)
        # S(eps) = sum_p c_p eps^p / (p alpha): the integral of m over [a, b] is S(a) - S(b)
        self.S = _horner(c[:-1] / (alpha * np.arange(1, _SERIES_TERMS + 1)), eps)
        self.g = self.ax * self.m - self.nx
        self.r = alpha + self.K + self.ax * self.m

    def settle(self, i: int, y):
        """(q, u, theta): the states on the grid from point i on, taken in closed form
        from the state ``y`` at i, and q, the first of those points where the feed's
        first correction, alpha x |w| (|g| + alpha) / r^2, is within _FEED_SHARE rtol of
        the state (the last point if none is)."""
        o = i - self.first
        u0, th0 = y
        w0 = th0 - self.m[o] * u0
        d = self.tau[o:] - self.tau[o]
        m_integral = self.S[o] - self.S[o:]
        with np.errstate(over="ignore", invalid="ignore"):   # K and r^2 past the float range
            R = self.alpha * d + self.K[o] * np.expm1(self.alpha * d) / self.alpha \
                + self.ax * m_integral
            R[0] = 0.0   # not K * 0, which is nan for K = inf
            v0 = u0 + self.ax * w0 / self.r[o]
            w = w0 * np.exp(-R)
            u = v0 * np.exp(self.ax * m_integral - self.nx * d) - self.ax * w / self.r[o:]
            theta = self.m[o:] * u + w
            correction = self.ax * np.abs(w) * (np.abs(self.g[o:]) + self.alpha) / self.r[o:] ** 2
            size = np.maximum(np.abs(u), np.abs(theta))
            settled = np.flatnonzero(correction <= self.feed_tol * size + _ATOL)
        return (i + int(settled[0]) if settled.size else self.last), u, theta


def solve_ivp(*args, **kwargs):
    """``_magnus.solve_ivp``, imported on the first call, so that a run that
    integrates no mode (``spectrum``) does not load the kernel."""
    from ._magnus import solve_ivp as magnus_solve_ivp
    return magnus_solve_ivp(*args, **kwargs)


def integrate_mode(params: MaterialParams, j: int, init, tau_end: float,
                   frozen_k: float | None = None, rtol: float = 1e-10,
                   tau_eval=None) -> ModeTrajectory:
    """Integrate the mode-j ODE on [0, tau_end]: Magnus propagator, then the slow manifold.

    With ``frozen_k`` the system is autonomous and propagated exactly; without
    it k(tau) = kappa c0 exp(alpha tau) is evaluated, never tabulated, at the
    Gauss points of every substep.  For j >= 1 and kappa > 0 the propagator
    runs only up to the first grid point where the slow-manifold series of
    :class:`_SlowManifold` holds and the transient off it is fed to u within
    rtol; from there on the mode is advanced in closed form, so the stiff tail
    costs no substeps.  The propagator's states up to that point are those of
    a solve over the whole grid, bit for bit.  The trajectory is sampled at
    ``tau_eval`` (1-D, inside [0, tau_end], strictly increasing;
    ParameterError otherwise) or at MODE_POINTS uniform points.
    """
    if tau_end <= 0.0:
        raise ParameterError(f"tau_end must be > 0, got {tau_end}")
    if j < 0:
        raise ParameterError(f"mode index must be >= 0, got {j}")
    if frozen_k is not None and frozen_k < 0.0:
        raise ParameterError(f"frozen_k must be >= 0, got {frozen_k}")
    from ._magnus import check_t_eval

    try:
        taus = (np.linspace(0.0, tau_end, MODE_POINTS) if tau_eval is None
                else check_t_eval(tau_eval, (0.0, tau_end)))
    except ValueError as exc:
        raise ParameterError(f"tau_eval: {exc}") from None

    grid = np.union1d(0.0, taus)    # the solution starts at tau = 0, which taus need not hold
    last = grid.size - 1
    fixed, a22 = _mode_entries(params, 0.0, j)[:3], _varying_entry(params, j, frozen_k)

    def magnus(lo, hi, y):   # the propagator on grid points lo..hi
        return solve_ivp(fixed, a22, grid[lo:hi + 1], y, rtol=rtol, atol=_ATOL).y

    y0 = [float(v) for v in init]
    manifold = (_SlowManifold(params, j, grid, rtol)
                if frozen_k is None and j >= 1 and params.kappa > 0.0 and last > 0 else None)
    s = last if manifold is None else manifold.first
    if manifold is not None and s == 0:   # a start off the manifold waits out its layer
        s = manifold.settle(0, y0)[0]
    ys, switch = [magnus(0, s, y0)], None
    zero = np.flatnonzero(~ys[0].any(axis=0))
    while s < last:
        q, u, theta = manifold.settle(s, ys[-1][:, -1])
        if q == s:
            ys.append(np.stack([u[1:], theta[1:]]))
            switch = float(grid[s])
            break
        ys.append(magnus(s, q, ys[-1][:, -1])[:, 1:])
        s = q
    if manifold is not None and zero.size:   # zero is on the manifold, and stays zero
        switch = float(grid[zero[0]])
    y = np.concatenate(ys, axis=1)
    skip = grid.size - taus.size
    return ModeTrajectory(j=j, taus=taus, u=y[0, skip:], theta=y[1, skip:], method="magnus",
                          slow_manifold_tau=switch)


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


_MONOTONE_SLACK = 1e-9


def energy_certificate(params: MaterialParams) -> EnergyCertificate:
    """Minimal (A, B) meeting the selection inequalities, with 10% headroom.

    Raises RangeError, naming the quantity and the parameters, where A, B, C_B,
    T or tau_T is not a finite float.
    """
    n, alpha, kappa = params.n, params.alpha, params.kappa
    if n <= 0.0 or kappa <= 0.0:
        raise ParameterError("energy certificate requires n > 0 and kappa > 0")
    cp = 1.0 / math.pi ** 2
    with np.errstate(all="ignore"):   # inf and nan, checked below
        n, alpha, kappa = np.float64(n), np.float64(alpha), np.float64(kappa)
        A = energy_weight(n, alpha)
        c0 = np.exp(params.log_c0)
        sigma_s0 = 1.0 / c0
        B = _HEADROOM * alpha ** 2 * sigma_s0 / (2.0 * n * kappa)
        C_B = B * (n + 1.0) ** 2 * sigma_s0 / alpha
        T = np.maximum(0.0, (A * alpha ** 2 / (2.0 * n * kappa) - c0) / alpha)
        values = {"A": A, "B": B, "C_B": C_B, "T": T, "tau_T": tau_of_t(params, T)}
    for name, value in values.items():
        if not math.isfinite(value):
            raise RangeError(f"energy certificate: {name} = {float(value)} at n = {params.n}, "
                             f"alpha = {params.alpha}, kappa = {params.kappa}, theta0 = "
                             f"{params.theta0} is not a finite float")
    return EnergyCertificate(params=params, A=float(A), B=float(B), C_B=float(C_B), Cp=cp,
                             T=float(T))


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
    # (j, slow_manifold_tau of its ModeTrajectory) for each mode, in the order given
    slow_manifold_taus: tuple = ()


def energy_decay_check(params: MaterialParams, cert: EnergyCertificate | None,
                       modes, tau_end: float) -> DecayReport:
    """Integrate the given modes (non-autonomous) and report on the energy.

    ``modes`` is a sequence of (j, (u0, theta0)) with j >= 1: the j = 0 strain
    mode is excluded by the zero-mean constraint on u.  The energy, at the
    MODE_POINTS uniform points of [0, tau_end], is
    E = sum_j [(A/2) u_j^2 + (1/2) theta_j^2] / 2, the 1/2 from the L2 norm of
    cos(j pi x).  With kappa = 0 (or no certificate) the report flags the
    certificate as non-applicable and uses A = 1.
    """
    for j, _ in modes:
        if j < 1:
            raise ParameterError("energy check admits only modes j >= 1")
    applicable = cert is not None and params.kappa > 0.0
    A = cert.A if applicable else 1.0

    taus = np.linspace(0.0, tau_end, MODE_POINTS)
    E = np.zeros(MODE_POINTS)
    switches = []
    for j, init in modes:
        traj = integrate_mode(params, j, init, tau_end, tau_eval=taus)
        E += 0.5 * (0.5 * A * traj.u ** 2 + 0.5 * traj.theta ** 2)
        switches.append((j, traj.slow_manifold_tau))
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
                       certificate_applicable=applicable,
                       slow_manifold_taus=tuple(switches))
