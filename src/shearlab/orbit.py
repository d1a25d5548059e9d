"""Heteroclinic orbit of the planar reciprocal-stress system.

The self-similar profile equations reduce, after logarithmic variables and
the substitution a = 1/sigma, b = 1/(sigma*u), to the autonomous planar system

    da/deta = a (1 - a^2/b),
    db/deta = (alpha/(nu n)) (c_nu b - 1 - ((n+1) nu / alpha) a^2),

with c_nu = 1 + nu (n+1)/alpha.  Its equilibria in the closed first quadrant
are the repelling node P = (0, 1/c_nu) and the saddle Q = (1, 1); the orbit
joining them generates every localizing profile.  The shooter seeds just off
Q along the stable eigendirection, integrates backward inside the invariant
triangle-like region R = {a^2 <= b <= 1, 0 <= a <= 1}, and stops within a
tolerance of P.  The integration is DOPRI5 (``_dopri.solve_ivp``: SciPy RK45's
tableau and step controller on Python floats), with the node reached as a
terminal event on its dense output, located by a port of SciPy's brentq.
Between samples the orbit is a cubic Hermite interpolant in (log a, log b)
evaluated with NumPy; neither step imports SciPy.  Reparametrization shifts
eta so that the node-departure coefficient of a matches a requested amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._dopri import solve_ivp
from .errors import ParameterError, RegionExitError, MaxStepsError, UnresolvedTailError

__all__ = [
    "PlanarParams",
    "EquilibriumInfo",
    "OrbitPath",
    "vector_field",
    "jacobian",
    "equilibria",
    "shoot_heteroclinic",
    "estimate_kappa1",
    "reparametrize",
]


@dataclass(frozen=True)
class PlanarParams:
    """Parameters of the planar system: sensitivity n, softening alpha, similarity nu."""

    n: float
    alpha: float
    nu: float

    def __post_init__(self):
        if self.n <= 0.0:
            raise ParameterError(f"n must be > 0 for the planar system, got {self.n}")
        if self.alpha <= 0.0:
            raise ParameterError(f"alpha must be > 0, got {self.alpha}")
        if self.nu <= 0.0:
            raise ParameterError(f"nu must be > 0, got {self.nu}")

    @property
    def c_nu(self) -> float:
        return 1.0 + self.nu * (self.n + 1.0) / self.alpha

    @property
    def node(self):
        return np.array([0.0, 1.0 / self.c_nu])

    @property
    def saddle(self):
        return np.array([1.0, 1.0])


@dataclass(frozen=True)
class EquilibriumInfo:
    point: np.ndarray
    eigenvalues: tuple
    eigenvectors: tuple   # columns matching eigenvalues
    kind: str             # 'repelling-node' or 'saddle'


def vector_field(p: PlanarParams, state):
    """(da/deta, db/deta) at the given (a, b); b must stay positive."""
    a, b = state
    if np.any(np.asarray(b) <= 0.0):
        raise ParameterError("vector field undefined for b <= 0")
    da = a * (1.0 - a * a / b)
    db = p.alpha / (p.nu * p.n) * (p.c_nu * b - 1.0 - (p.n + 1.0) * p.nu / p.alpha * a * a)
    return da, db


def jacobian(p: PlanarParams, state) -> np.ndarray:
    a, b = state
    return np.array([
        [1.0 - 3.0 * a * a / b, a ** 3 / b ** 2],
        [-2.0 * (p.n + 1.0) / p.n * a, p.alpha / (p.n * p.nu) * p.c_nu],
    ])


def equilibria(p: PlanarParams):
    """EquilibriumInfo at the node P = (0, 1/c_nu) and the saddle Q = (1, 1).

    At P the Jacobian is diagonal with eigenvalues (1, (alpha/(n nu)) c_nu),
    both positive and the second above 1.  At Q the eigenvalues straddle zero
    and the eigenvector of lambda is (1, 2 + lambda); the stable one satisfies
    0 < 2 + lambda_minus < 2 and points into the region R.
    """
    lam2 = p.alpha / (p.n * p.nu) * p.c_nu
    node = EquilibriumInfo(
        point=p.node,
        eigenvalues=(1.0, lam2),
        eigenvectors=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        kind="repelling-node",
    )
    m = lam2 - 2.0
    root = math.sqrt(m * m + 8.0 * p.alpha / (p.n * p.nu))
    lam_minus = 0.5 * (m - root)
    lam_plus = 0.5 * (m + root)
    saddle = EquilibriumInfo(
        point=p.saddle,
        eigenvalues=(lam_minus, lam_plus),
        eigenvectors=(np.array([1.0, 2.0 + lam_minus]), np.array([1.0, 2.0 + lam_plus])),
        kind="saddle",
    )
    return node, saddle


@dataclass(frozen=True)
class OrbitPath:
    """The computed heteroclinic with its eta-parametrization.

    eta increases along the orbit from the node end to the saddle end; a is
    strictly increasing.  da/deta and db/deta at the samples come from the
    exact vector field, so the cubic Hermite interpolant (NumPy arrays of
    CubicHermiteSpline's coefficients) is 4th-order accurate between
    samples.  ``eta0`` is the shift applied to match an amplitude sigma0 (0
    for a freshly shot orbit) and ``kappa1`` the node-departure coefficient
    lim a(eta) e^(-eta) in the current parametrization (None until
    estimated).
    """

    params: PlanarParams
    eta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    da: np.ndarray
    db: np.ndarray
    eps: float
    tol: float
    eta0: float = 0.0
    kappa1: float | None = None
    sigma0: float | None = None

    def __post_init__(self):
        if not np.all(np.diff(self.eta) > 0):
            raise ParameterError("eta grid must be strictly increasing")

    # Interpolation is done on (log a, log b) with the exact field slopes
    # (da/deta)/a and (db/deta)/b: log a is asymptotically linear on the node
    # tail, so the interpolation error stays *relative* there instead of
    # blowing up against the vanishing a.
    @cached_property
    def _hermite(self) -> np.ndarray:
        """Rows c0..c3 of log a, then of log b, per interval: the cubic Hermite
        coefficients of scipy.interpolate.CubicHermiteSpline, same formulas."""
        dx = np.diff(self.eta)
        rows = []
        for y, dydx in ((np.log(self.a), self.da / self.a), (np.log(self.b), self.db / self.b)):
            slope = np.diff(y) / dx
            t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
            rows += [t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]]
        return np.array(rows)

    def states_at(self, eta):
        """Interpolated (a, b) inside the sampled eta range.

        The interval search (closed on the right at the last sample) and the
        order of the polynomial sum are those of SciPy's PPoly, so the values
        are bit for bit those of a CubicHermiteSpline on the same data.
        """
        eta = np.asarray(eta, dtype=float)
        if np.any(eta < self.eta[0]) or np.any(eta > self.eta[-1]):
            raise ParameterError("eta outside the sampled orbit range")
        i = np.searchsorted(self.eta[1:-1], eta, side="right")
        s = eta - self.eta[i]
        s2 = s * s
        s3 = s2 * s
        a0, a1, a2, a3, b0, b1, b2, b3 = self._hermite[:, i]
        return (np.exp(a3 + a2 * s + a1 * s2 + a0 * s3),
                np.exp(b3 + b2 * s + b1 * s2 + b0 * s3))


_REGION_SLACK = 1e-9


def _in_region(a, b, slack=_REGION_SLACK):
    return (a >= -slack) & (a <= 1.0 + slack) & (b <= 1.0 + slack) & (a * a <= b + slack)


def shoot_heteroclinic(p: PlanarParams, eps: float = 1e-6, tol: float = 1e-8,
                       rtol: float = 1e-10, max_step: float = 0.01,
                       s_max: float = 400.0, _retry: bool = True) -> OrbitPath:
    """Shoot the heteroclinic backward from the saddle to the node.

    Seeds at Q - eps * r_hat_minus (unit stable eigenvector, oriented into R),
    negates the field and integrates forward in s = -eta until
    ||state - P|| < tol.  Every accepted sample must stay in R; a region exit
    retries once with eps/10 (the manifold tangency error is O(eps^2)).
    """
    if not (0.0 < eps <= 1e-3):
        raise ParameterError(f"eps must be in (0, 1e-3], got {eps}")
    _, saddle = equilibria(p)
    r = saddle.eigenvectors[0]
    r_hat = r / np.linalg.norm(r)
    seed = p.saddle - eps * r_hat
    node_a, node_b = p.node.tolist()
    # vector_field's coefficients, hoisted out of the RHS; the scalar arithmetic
    # below keeps vector_field's order of operations
    g = p.alpha / (p.nu * p.n)
    c = p.c_nu
    k = (p.n + 1.0) * p.nu / p.alpha

    def backward(s, a, b):
        if b <= 0.0:
            raise ParameterError("vector field undefined for b <= 0")
        return (-(a * (1.0 - a * a / b)), -(g * (c * b - 1.0 - k * a * a)))

    def reach_node(s, a, b):
        return math.hypot(a - node_a, b - node_b) - tol

    reach_node.terminal = True
    reach_node.direction = -1

    sol = solve_ivp(backward, (0.0, s_max), seed, rtol=rtol,
                    atol=1e-14, max_step=max_step, events=reach_node)
    if sol.status == 0:
        raise MaxStepsError(
            f"orbit did not reach the node within s = {s_max} (distance "
            f"{math.hypot(sol.y[0, -1] - node_a, sol.y[1, -1] - node_b):.3e})")
    if sol.status < 0:
        raise MaxStepsError(f"orbit integration failed: {sol.message}")

    a = sol.y[0]
    b = sol.y[1]
    if not np.all(_in_region(a, b)):
        if _retry:
            return shoot_heteroclinic(p, eps / 10.0, tol, rtol, max_step, s_max,
                                      _retry=False)
        bad = np.argmin(_in_region(a, b))
        raise RegionExitError(
            f"sample {bad} at (a={a[bad]:.6g}, b={b[bad]:.6g}) left the region R")

    # reverse to increasing eta = -s; derivatives revert to the forward field
    eta = -sol.t[::-1]
    a = a[::-1].copy()
    b = b[::-1].copy()
    da, db = vector_field(p, (a, b))
    if not np.all(np.diff(a) > 0):
        raise RegionExitError("a(eta) is not strictly increasing along the orbit")
    return OrbitPath(params=p, eta=eta, a=a, b=b, da=da, db=db, eps=eps, tol=tol)


def estimate_kappa1(path: OrbitPath, plateau_rtol: float = 1e-4) -> float:
    """Node-departure coefficient: the plateau of a(eta) e^(-eta) on the backward tail.

    Estimated from the deepest decade of a rather than from the linearized
    formula, since the numerical orbit is only approximately on the manifold.
    The plateau must be flat to ``plateau_rtol`` relative variation.
    """
    a = path.a
    q = a * np.exp(-path.eta)
    a_min = a[0]
    window = a <= 10.0 * a_min
    if window.sum() < 4:
        raise UnresolvedTailError(
            f"only {int(window.sum())} samples in the deepest decade of the tail")
    qw = q[window]
    spread = (qw.max() - qw.min()) / abs(qw[0])
    if not np.isfinite(spread) or spread > plateau_rtol:
        raise UnresolvedTailError(
            f"a(eta)e^-eta varies by {spread:.2e} over the tail decade "
            f"(> {plateau_rtol:.0e}); no plateau")
    kappa1 = float(qw[0])
    if kappa1 <= 0.0:
        raise UnresolvedTailError(f"node-departure coefficient {kappa1:.3e} is not positive")
    return kappa1


def reparametrize(path: OrbitPath, sigma0: float) -> OrbitPath:
    """Shift eta so the parametrization matches the amplitude sigma0.

    With kappa1 the current plateau of a(eta)e^(-eta), the shift
    eta0 = log(1/(kappa1 sigma0)) makes the new parametrization satisfy
    a(eta) ~ (1/sigma0) e^eta on the node tail; the grid moves by -eta0.
    """
    if sigma0 <= 0.0:
        raise ParameterError(f"sigma0 must be > 0, got {sigma0}")
    kappa1 = estimate_kappa1(path)
    eta0 = math.log(1.0 / (kappa1 * sigma0))
    return replace(path, eta=path.eta - eta0, eta0=eta0,
                   kappa1=kappa1 * math.exp(eta0), sigma0=float(sigma0))
