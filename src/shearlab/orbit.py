"""Heteroclinic orbit of the planar reciprocal-stress system.

The self-similar profile equations reduce, after logarithmic variables and
the substitution a = 1/sigma, b = 1/(sigma*u), to the autonomous planar system

    da/deta = a (1 - a^2/b),
    db/deta = (alpha/(nu n)) (c_nu b - 1 - ((n+1) nu / alpha) a^2),

with c_nu = 1 + nu (n+1)/alpha.  Its equilibria in the closed first quadrant
are the repelling node P = (0, 1/c_nu) and the saddle Q = (1, 1); the orbit
joining them generates every localizing profile.

The orbit is built from the two invariant manifolds it lies on, each summed
as far as its truncation bound allows, with Taylor steps only in the gap
between them (the parametrization method for connecting orbits: van den Berg,
Mireles James, Lessard & Mischaikow, SIAM J. Math. Anal. 43, 2011; Lessard,
Mireles James & Reinhardt, J. Dyn. Diff. Equat. 26, 2014).

Near Q the orbit is Q's stable manifold, written by the parametrization method
(Cabre, Fontich & de la Llave, Indiana Univ. Math. J. 52, 2003; Haro et al.,
The Parameterization Method for Invariant Manifolds, Springer 2016) as

    W(zeta) = Q + sum_{m=1..M} c_m zeta^m,   zeta = eps e^(mu_s eta),

with mu_s the stable eigenvalue, c_1 the unit stable eigenvector pointing into
R, and (m mu_s I - J_Q) c_m equal to the zeta^m coefficient of the field's
nonlinear part, which the lower orders fix; the matrix is invertible for every
m >= 2 because m mu_s < 0 < mu_u and m mu_s != mu_s.  eta is exact on it.  Its
reach zeta_r is where the first dropped term |c_(M+1)| zeta^(M+1) is 1e-15,
with M up to 40; the saddle head, from zeta = eps (the sample at distance eps
from Q, at eta = 0) down to zeta_r, is sampled from the series.

Near P the orbit is the slow manifold of the node (Fenichel, J. Differential
Equations 31, 1979; Lee & Tzavaras, SIADS 2017): with s = a^2 and
lambda2 = (alpha/(n nu)) c_nu,

    b = h(s) = sum_m beta_m s^m,   beta_0 = 1/c_nu,
    eta = log a + C + F(s),        F'(s) = 1 / (2 (h(s) - s)),  F(0) = 0,

where the beta_m follow order by order from the invariance equation
2 s h'(s) (1 - s/h) = (alpha/(nu n)) (c_nu h - 1 - ((n+1) nu/alpha) s), and the
fast component is O(a^lambda2).  Only terms m < lambda2/2 are formed, short of
the resonance lambda2 = 2m (none when lambda2 <= 2), and the truncation that
reaches furthest (first dropped term 1e-15, a at most 0.9) gives the reach
a_n.  F is summed from its series at small s and by Gauss-Legendre quadrature
of F' at large s, where its singularity at Q (h(1) = 1) slows the series.

When W(zeta_r) lies at or below a_n the reaches overlap: the head's first
sample is the junction, and C follows from eta there.  Otherwise the shooter
integrates backward from W(zeta_r) inside the invariant triangle-like region
R = {a^2 <= b <= 1, 0 <= a <= 1} by Taylor steps: each step's polynomial
comes from the same recurrences for a^2 and a^3/b as W's terms, and is
truncated at round-off (Jorba & Zou, Experimental Math. 14, 2005; Corliss &
Chang, ACM TOMS 8, 1982).  The body ends at its first sample at or below a_n
or a = tol, whichever is higher (tol when there is no series, lambda2 <= 2):
the junction.  Below it the node tail is sampled from the slow manifold down
to a = tol, and the node-departure coefficient kappa1 = lim a e^(-eta) =
e^(-C) is in closed form; the orbit carries log kappa1 = -C, finite where
kappa1 need not be.  |b - h(a^2)| at the junction is its gap.  Every stretch, head, body and tail, is sampled no
more than 0.01 apart in eta.  Between samples the orbit is a cubic Hermite
interpolant in (log a, log b) evaluated with NumPy; nothing here imports
SciPy.  Reparametrization shifts eta so that kappa1 matches a requested
amplitude, in logs: no product of the two is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from operator import mul
from typing import NamedTuple

import numpy as np

from ._magnus import OdeResult
from .errors import ParameterError, RangeError, RegionExitError, MaxStepsError, UnresolvedTailError

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
        if not (math.isfinite(self.n) and self.n > 0.0):
            raise ParameterError(f"n must be finite and > 0 for the planar system, got {self.n}")
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ParameterError(f"alpha must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise ParameterError(f"nu must be finite and > 0, got {self.nu}")

    @property
    def c_nu(self) -> float:
        return 1.0 + self.nu * (self.n + 1.0) / self.alpha

    @property
    def lambda2(self) -> float:
        """The strong eigenvalue at the node P; the weak one is 1."""
        return self.alpha / (self.n * self.nu) * self.c_nu

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
    lam2 = p.lambda2
    node = EquilibriumInfo(
        point=p.node,
        eigenvalues=(1.0, lam2),
        eigenvectors=(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        kind="repelling-node",
    )
    # the roots of lambda^2 - m lambda - 2 alpha/(n nu); the smaller one in size from
    # their product, as 0.5 (m - root) loses digits to cancellation when m >> 1; where
    # m^2 overflows, -4 product < 8 (m + 1) is far below its rounding: the root is m
    m = lam2 - 2.0
    product = -2.0 * p.alpha / (p.n * p.nu)
    root = math.sqrt(m * m - 4.0 * product)
    if m >= 0.0:
        lam_plus = 0.5 * (m + root) if root < math.inf else m
        lam_minus = product / lam_plus
    else:
        lam_minus = 0.5 * (m - root)
        lam_plus = product / lam_minus
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
    strictly increasing.  The cubic Hermite interpolant (NumPy arrays of
    CubicHermiteSpline's coefficients) takes its slopes da/deta and db/deta
    at the samples from the exact vector field, so it is 4th-order accurate
    between samples.  ``d`` is b - 1/c_nu; on a series tail it is the series
    sum_{m>=1} beta_m a^(2m) itself, so it keeps its relative precision as
    a -> 0.  ``log_kappa1`` is the log of the node-departure coefficient
    lim a(eta) e^(-eta) in the current parametrization, -C from the
    junction, and ``eta0`` the shift applied to match an amplitude sigma0 (0
    for a freshly shot orbit).  ``saddle_junction`` is the reach zeta_r of
    Q's stable-manifold series, of ``saddle_terms`` terms, where the head
    ends at a = ``a_saddle``, and ``saddle_truncation`` the size of its first
    dropped term there.  ``body_steps`` counts the Taylor steps between the
    head and the tail, 0 when the head reaches the tail.  ``a_junction`` is
    the a at which the slow-manifold series of ``node_terms`` terms takes
    over, the body's end or, with no body, ``a_saddle``, and
    ``junction_gap`` the |b - h(a^2)| there.
    """

    params: PlanarParams
    eta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    eps: float
    tol: float
    a_junction: float
    junction_gap: float
    saddle_junction: float
    saddle_truncation: float
    saddle_terms: int
    node_terms: int
    a_saddle: float
    body_steps: int
    log_kappa1: float
    eta0: float = 0.0
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
        da, db = vector_field(self.params, (self.a, self.b))
        rows = []
        for y, dydx in ((np.log(self.a), da / self.a), (np.log(self.b), db / self.b)):
            slope = np.diff(y) / dx
            t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
            rows += [t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]]
        return np.array(rows)

    def log_states_at(self, eta):
        """Interpolated (log a, log b) inside the sampled eta range.

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
        return a3 + a2 * s + a1 * s2 + a0 * s3, b3 + b2 * s + b1 * s2 + b0 * s3

    def log_ratio_cubics(self) -> np.ndarray:
        """Rows c0..c3, constant first: on interval i the interpolant of
        ``log_states_at`` gives log a - log b = c0 + c1 s + c2 s^2 + c3 s^3 at
        eta = eta[i] + s, so row c0 is log a - log b at the samples but the last."""
        h = self._hermite
        return h[3::-1] - h[7:3:-1]

    def states_at(self, eta):
        """Interpolated (a, b) inside the sampled eta range: exp of ``log_states_at``."""
        la, lb = self.log_states_at(eta)
        return np.exp(la), np.exp(lb)


_REGION_SLACK = 1e-9
_SERIES_TOL = 1e-15      # each series is summed out to where its first dropped term is this
_SADDLE_TERMS = 40       # the most terms of W
_NODE_TERMS = 30         # the most terms of h, and fewer than lambda2/2 (the resonance)
_NODE_REACH_MAX = 0.9    # h is used up to a = 0.9 at most, where F's Gauss rule still converges
_MAX_STEP = 0.01         # the largest spacing in eta of the samples
_ORDER = 24              # the degree of the body's Taylor steps
_S_MAX = 400.0           # the body gives up after this span in s = -eta
_HEAD_S_MAX = 2000.0     # the longest saddle head in s: 200k samples at _MAX_STEP


def _polyval(coef, x):
    """np.polyval(coef, x) for an array x, the same arithmetic done in place."""
    y = np.full_like(x, coef[0])
    for c in coef[1:]:
        y *= x
        y += c
    return y


# The 24-point Gauss-Legendre rule for F past its series: the positive nodes on
# [-1, 1] and their weights, rounded from 40-digit values.  A table needs no
# LAPACK call and no numpy.polynomial import, and is good to the last bit.
_GAUSS_LEGENDRE = np.array([
    (0.06405689286260563, 0.12793819534675216),
    (0.1911188674736163, 0.1258374563468283),
    (0.3150426796961634, 0.12167047292780339),
    (0.4337935076260451, 0.1155056680537256),
    (0.5454214713888396, 0.10744427011596563),
    (0.6480936519369755, 0.09761865210411388),
    (0.7401241915785544, 0.08619016153195327),
    (0.820001985973903, 0.0733464814110803),
    (0.8864155270044011, 0.05929858491543678),
    (0.9382745520027328, 0.04427743881741981),
    (0.9747285559713095, 0.028531388628933663),
    (0.9951872199970213, 0.0123412297999872),
])
# the same rule on [0, 1]
_GAUSS_X = 0.5 * np.concatenate([1.0 - _GAUSS_LEGENDRE[::-1, 0], 1.0 + _GAUSS_LEGENDRE[:, 0]])
_GAUSS_W = 0.5 * np.concatenate([_GAUSS_LEGENDRE[::-1, 1], _GAUSS_LEGENDRE[:, 1]])


class _SlowManifold(NamedTuple):
    """The node's slow manifold b = h(s) = node_b + d(s), s = a^2, as far as
    its series reaches, and F(s) with eta = log a + C + F(s)."""

    node_b: float
    d_coef: list      # np.polyval coefficients of d, of degree ``terms``
    f_coef: list      # np.polyval coefficients of F's series, summed up to s = s_f
    s_f: float
    reach: float      # a_n: d's first dropped term is _SERIES_TOL at s = a_n^2
    terms: int

    def F(self, s):
        """F(s) = int_0^s ds' / (2 (h(s') - s')) at an array of s in [0, reach^2]:
        the series up to s_f, Gauss-Legendre quadrature of F' above it."""
        out = _polyval(self.f_coef, s)
        far = s > self.s_f
        if np.any(far):
            t = s[far, None] * _GAUSS_X
            out[far] = s[far] * ((0.5 / (self.node_b + _polyval(self.d_coef, t) - t)) @ _GAUSS_W)
        return out


def _slow_manifold(p: PlanarParams) -> _SlowManifold:
    """The slow manifold's series, with as many terms as reach furthest, for
    any lambda2 > 1.

    beta_m (2 m beta_0 - g) is the s^m coefficient of the invariance
    equation, multiplied by h, with beta_m taken out:
    2 s h' (h - s) = g h (c_nu h - 1 - k s).  Only the beta_m with
    m < lambda2/2 are formed: past the resonance 2 m beta_0 = g they grow.
    Of those, the truncation whose first dropped term reaches furthest is
    kept, and the terms stop once it reaches _NODE_REACH_MAX; with no beta_m
    (lambda2 <= 2), or only beta_1 (lambda2 <= 4), h = beta_0 and the reach
    is 0 or where beta_1 s is _SERIES_TOL.  F' = 1/(2 (h - s)) is integrated
    term by term from the reciprocal series r of h - s; the series serves up
    to where its first dropped term is _SERIES_TOL, or everywhere when r
    terminates.
    """
    g = p.alpha / (p.nu * p.n)
    c = p.c_nu
    k = (p.n + 1.0) * p.nu / p.alpha
    beta = [1.0 / c]
    jbeta = [0.0]    # j beta_j
    reach, terms = 0.0, 0
    for m in range(1, min(_NODE_TERMS + 1, math.ceil(p.lambda2 / 2.0) - 1) + 1):
        back = beta[m - 1:0:-1]
        conv = sum(map(mul, beta[1:m], back))
        jconv = sum(map(mul, jbeta[1:m], back))
        rest = g * (c * conv - k * beta[m - 1]) - 2.0 * jconv + 2.0 * (m - 1) * beta[m - 1]
        beta.append(rest / (2.0 * m * beta[0] - g))
        jbeta.append(m * beta[m])
        s_m = (_SERIES_TOL / abs(beta[m])) ** (1.0 / m)   # the reach of the m - 1 terms before
        if s_m > reach:
            reach, terms = s_m, m - 1
            if reach >= _NODE_REACH_MAX ** 2:
                break
    # r = 1/(h - s) to _NODE_TERMS terms, whatever the degree of h
    q = [beta[0], (beta[1] if terms else 0.0) - 1.0, *beta[2:terms + 1]]
    r = [c]
    for m in range(1, _NODE_TERMS + 2):
        r.append(-c * sum(map(mul, q[1:m + 1], r[m - 1::-1])))
    f_coef = [r[m] / (2.0 * (m + 1)) for m in range(_NODE_TERMS, -1, -1)] + [0.0]
    # r terminates when h - s is constant (h = 1/c_nu + s): its series is then exact
    s_f = ((_SERIES_TOL * 2.0 * (_NODE_TERMS + 2) / abs(r[-1])) ** (1.0 / (_NODE_TERMS + 2))
           if r[-1] else math.inf)
    return _SlowManifold(node_b=beta[0], d_coef=[*beta[terms:0:-1], 0.0], f_coef=f_coef,
                         s_f=min(s_f, reach), reach=math.sqrt(min(reach, _NODE_REACH_MAX ** 2)),
                         terms=terms)


def _nonlinear(A, B, P, R):
    """The m-th Taylor coefficients of a^2 and a^3/b, m = len(P), from those of a
    and b up to order m (A, B) and those of a^2 and a^3/b below it (P, R): the
    Cauchy products a^2 = a a and a^3 = a^2 a, and series division of a^3 by b."""
    m = len(P)
    p = sum(map(mul, A, reversed(A)))
    t = sum(map(mul, P, A[m:0:-1])) + p * A[0]
    return p, (t - sum(map(mul, B[1:], reversed(R)))) / B[0]


def _stable_manifold(p: PlanarParams, a_stop: float = 0.0):
    """mu_s, the np.polyval coefficients, c_(M+1) first, of a(zeta) and b(zeta)
    on Q's stable manifold W(zeta) = Q + sum_{m=1..M+1} c_m zeta^m, and its
    reach zeta_r, where the first dropped term |c_(M+1)| zeta_r^(M+1) is _SERIES_TOL.

    Terms are added until a(zeta_r) <= a_stop, or up to M = _SADDLE_TERMS.
    With the zeta^m coefficients of the unknown c_m set to 0, the series A, B
    of a, b give the m-th coefficients P0 of a^2 and R0 of a^3/b
    (``_nonlinear``); these are the field's nonlinear part, and
    (m mu_s I - J_Q) c_m = -(R0, g k P0), g = alpha/(nu n), k = (n+1) nu/alpha.
    """
    q = 2.0 * (p.n + 1.0) / p.n       # J_Q = [[-2, 1], [-q, lambda2]]
    lam = p.lambda2
    _, saddle = equilibria(p)
    mu = saddle.eigenvalues[0]
    r = saddle.eigenvectors[0].tolist()     # Python floats: the sums below are scalar
    A = [1.0, -r[0] / math.hypot(*r)]
    B = [1.0, -r[1] / math.hypot(*r)]
    P = [1.0, 2.0 * A[1]]
    R = [1.0, 3.0 * A[1] - B[1]]
    for m in range(2, _SADDLE_TERMS + 2):
        A.append(0.0)
        B.append(0.0)
        p0, r0 = _nonlinear(A, B, P, R)
        # Cramer's rule on (m mu I - J_Q) c_m = (n0, n1), with g k = q/2
        m00, m11 = m * mu + 2.0, m * mu - lam
        n0, n1 = -r0, -0.5 * q * p0
        det = m00 * m11 + q
        am = (m11 * n0 + n1) / det
        bm = (m00 * n1 - q * n0) / det
        if not math.isfinite(am) or not math.isfinite(bm):
            # a product overflowed (m11 n0 near lambda2 = 1e300): each row over det first
            am = m11 / det * n0 + n1 / det
            bm = m00 / det * n1 - q / det * n0
        A[m], B[m] = am, bm
        P.append(p0 + 2.0 * am)
        R.append(r0 + 3.0 * am - bm)
        zeta_r = (_SERIES_TOL / math.hypot(am, bm)) ** (1.0 / m)
        a_r = 0.0
        for cm in reversed(A[:m]):
            a_r = a_r * zeta_r + cm
        if a_r <= a_stop:
            break
    return mu, A[::-1], B[::-1], zeta_r


def _series_tail(node: _SlowManifold, eta_j: float, a_j: float, tol: float):
    """(eta, a, d) of the slow-manifold tail below the junction (eta_j, a_j),
    d(a_j^2) = h(a_j^2) - 1/c_nu and C.

    C = eta_j - log a_j - F(a_j^2) comes from the junction.  The samples lie
    at equal steps of at most _MAX_STEP in eta, from the eta of a = tol up
    to, and not including, eta_j; empty when a_j <= tol.  At each, log a
    solves G(log a) = log a + F(a^2) = eta - C by Newton's method.  G is
    increasing and convex, so from a start above the root the iterates
    fall to it monotonically; both eta - C (F >= 0) and the tangent of
    log a(eta) at the junction (log a is concave in eta) lie above it.
    """
    la_j = math.log(a_j)
    s_j = a_j * a_j
    C = eta_j - la_j - float(node.F(np.array([s_j]))[0])
    eta_lo = math.log(tol) + C + float(node.F(np.array([tol * tol]))[0])
    count = max(math.ceil((eta_j - eta_lo) / _MAX_STEP), 0)
    eta = np.linspace(eta_lo, eta_j, count + 1)[:-1]
    u = eta - C
    d_j = float(_polyval(node.d_coef, s_j))
    h_j = node.node_b + d_j
    la = np.minimum(u, la_j - (eta_j - eta) * (h_j - s_j) / h_j)
    active = np.arange(la.size)
    while active.size:
        x = la[active]
        s = np.exp(2.0 * x)
        h = node.node_b + _polyval(node.d_coef, s)
        step = (x + node.F(s) - u[active]) * (h - s) / h    # G / G', G' = h / (h - s)
        la[active] = x - step
        # the error after a step is of the order of its square
        active = active[np.abs(step) > 1e-9 * np.maximum(1.0, np.abs(u[active]))]
    a = np.exp(la)
    return eta, a, _polyval(node.d_coef, a * a), d_j, C


def shoot_heteroclinic(p: PlanarParams, eps: float = 1e-6, tol: float = 1e-8) -> OrbitPath:
    """The heteroclinic from the two manifold series, with Taylor steps in the gap.

    The node's slow-manifold series is summed out to its reach a_n, and the
    body stops at a_stop = max(a_n, tol).  Q's stable-manifold series W is
    given terms until its reach zeta_r lies at or below a = a_stop.  The
    saddle head is sampled from W, from zeta = eps (eta = 0) down to zeta_r;
    a reach below eps, or a stable eigenvalue mu_s that is not negative,
    raises RangeError.  When W(zeta_r) lies above a_stop, the body takes
    Taylor steps from there backward in s = -eta (``_body``), sampled at most
    _MAX_STEP apart, and stops at its first sample with a <= a_stop.  That
    sample, or W(zeta_r) itself when the reaches overlap, is the junction
    (a_junction), and the slow-manifold tail continues below it down to
    a = tol; it is empty when the junction lies at or below tol.  The
    junction's C, with eta = log a + C + F(a^2) on the tail, gives
    log_kappa1 = -C.  A head longer than _HEAD_S_MAX in s, or a body not
    done within s = _S_MAX of its start, raises MaxStepsError.  Every sample
    must stay in R: a step that reaches b <= 0, or a sample outside R, raises
    RegionExitError.
    """
    if not (0.0 < eps <= 1e-3):
        raise ParameterError(f"eps must be in (0, 1e-3], got {eps}")
    if not 0.0 < tol < 1.0:
        raise ParameterError(f"tol must be in (0, 1), got {tol}")
    node = _slow_manifold(p)
    a_stop = max(node.reach, tol)
    mu, a_coef, b_coef, zeta_r = _stable_manifold(p, a_stop)
    if not (mu < 0.0 and zeta_r >= eps):
        raise RangeError(f"the saddle's stable-manifold series reaches zeta = {zeta_r:.3g} "
                         f"against eps = {eps:g}, with mu_s = {mu:.3e}: no head to sample")
    s_r = math.log(zeta_r / eps) / -mu
    if s_r > _HEAD_S_MAX:
        raise MaxStepsError(
            f"orbit did not leave the saddle within s = {_HEAD_S_MAX:g} (mu_s = {mu:.3e}: its "
            f"series reaches zeta = {zeta_r:.3g} at s = {s_r:.6g}); a larger eps, up to 1e-3, "
            f"shortens the head")
    eta = np.linspace(-s_r, 0.0, math.ceil(s_r / _MAX_STEP) + 1)
    zeta = eps * np.exp(mu * eta)
    a, b = _polyval(a_coef[1:], zeta), _polyval(b_coef[1:], zeta)
    a_saddle = float(a[0])
    body_steps = 0
    if a_saddle > a_stop:
        sol = _body(p, s_r, a_saddle, float(b[0]), a_stop, tol)
        body_steps = sol.nfev
        # reverse to increasing eta = -s, and append the head past its first sample
        eta = np.concatenate([-sol.t[::-1], eta[1:]])
        a = np.concatenate([sol.y[0][::-1], a[1:]])
        b = np.concatenate([sol.y[1][::-1], b[1:]])
    d = b - p.node[1]
    a_junction = float(a[0])
    eta_t, a_t, d_t, d_j, C = _series_tail(node, float(eta[0]), a_junction, tol)
    junction_gap = abs(float(d[0]) - d_j)
    eta = np.concatenate([eta_t, eta])
    a = np.concatenate([a_t, a])
    d = np.concatenate([d_t, d])
    b = np.concatenate([node.node_b + d_t, b])

    inside = ((a >= -_REGION_SLACK) & (a <= 1.0 + _REGION_SLACK) & (b <= 1.0 + _REGION_SLACK)
              & (a * a <= b + _REGION_SLACK))
    if not np.all(inside):
        bad = np.argmin(inside)
        raise RegionExitError(
            f"sample {bad} at (a={a[bad]:.6g}, b={b[bad]:.6g}) left the region R")
    if not np.all(np.diff(a) > 0):
        raise RegionExitError("a(eta) is not strictly increasing along the orbit")
    terms = len(a_coef) - 2
    return OrbitPath(params=p, eta=eta, a=a, b=b, d=d, eps=eps, tol=tol,
                     a_junction=a_junction, junction_gap=junction_gap,
                     saddle_junction=zeta_r, saddle_terms=terms,
                     saddle_truncation=math.hypot(a_coef[0], b_coef[0]) * zeta_r ** (terms + 1),
                     node_terms=node.terms, a_saddle=a_saddle, body_steps=body_steps,
                     log_kappa1=-C)


def solve_ivp(fun, t_span, y0, stop):
    """Taylor steps for (a, b) from ``y0`` at t_span[0] to the first sample where
    ``stop(a, b)`` holds, or to t_span[1].

    ``fun(t, a, b)`` gives the Taylor coefficients c_0..c_p of a and of b at t, as
    two lists.  A step h keeps both of its last two terms, |c_j| h^j for j = p - 1
    and p, within _SERIES_TOL of the size of their component, so each polynomial is
    truncated at round-off.  Each step's polynomial is sampled at equal spacings
    of at most _MAX_STEP in t, its end included; ``stop``, which takes arrays as
    well as floats, is tested at each step's end, and the samples end at the
    first of the last step's where it holds.  ``status`` is 1 when ``stop``
    ended the solve, 0 at t_span[1], and -1 where a step fell below the spacing
    of t.  ``nfev`` counts the calls of ``fun``, one per step: each forms p
    orders of coefficients.
    """
    t, t_end = t_span
    a, b = y0
    ends, steps, coefs = [(t, a, b)], [], []
    status = 0
    while t < t_end:
        A, B = fun(t, a, b)
        h = t_end - t
        for y, c in ((a, A), (b, B)):
            for j in (len(c) - 2, len(c) - 1):
                if c[j]:
                    h = min(h, (_SERIES_TOL * abs(y) / abs(c[j])) ** (1.0 / j))
        t_new = t_end if h == t_end - t else t + h
        if not t_new > t:
            status = -1
            break
        a = b = 0.0
        for ca, cb in zip(reversed(A), reversed(B)):
            a = a * h + ca
            b = b * h + cb
        t = t_new
        ends.append((t, a, b))
        steps.append(h)
        coefs += A + B
        if stop(a, b):
            status = 1
            break
    # every step's samples at once: x = h i/count, i = 1..count, from each step's start
    h = np.array(steps)
    count = np.ceil(h / _MAX_STEP).astype(np.intp)
    step = np.repeat(np.arange(h.size), count)
    x = h[step] * ((np.arange(1, step.size + 1) - np.repeat(np.cumsum(count) - count, count))
                   / count[step])
    coef = np.reshape(coefs, (-1, 2, len(A)))[step]
    y = np.einsum("skj,sj->ks", coef, np.power.outer(x, np.arange(coef.shape[2])))
    ends = np.array(ends)
    y[:, np.cumsum(count) - 1] = ends[1:, 1:].T     # the ends as the steps went on from them
    t = np.concatenate([ends[:1, 0], ends[step, 0] + x])
    y = np.concatenate([ends[:1, 1:].T, y], axis=1)
    if status == 1:     # the last step's samples end at the first where stop holds
        last = int(np.argmax(stop(*y))) + 1
        t, y = t[:last], y[:, :last]
    return OdeResult(t=t, y=y, status=status, nfev=len(steps))


def _body(p: PlanarParams, s_r: float, a_r: float, b_r: float, a_stop: float, tol: float):
    """Taylor steps of order _ORDER, backward from (a_r, b_r) at s = s_r, to the first
    sample at a <= a_stop, within s = s_r + _S_MAX (a looser tol helps if a_stop is tol).

    Each step's coefficients follow order by order from the backward field,
    (m + 1) a_(m+1) = (a^3/b)_m - a_m and (m + 1) b_(m+1) = g (k (a^2)_m - c_nu b_m)
    plus g at m = 0, with the coefficients of a^2 and a^3/b from ``_nonlinear``.
    """
    node_a, node_b = p.node.tolist()
    g = p.alpha / (p.nu * p.n)
    c = p.c_nu
    k = (p.n + 1.0) * p.nu / p.alpha

    def taylor(s, a, b):
        if b <= 0.0:
            raise RegionExitError(f"a step left the region R at eta = {-s:.6g} "
                                  f"(b = {b:.6g} <= 0)")
        A, B, P, R = [a], [b], [], []
        for m in range(_ORDER):
            p_m, r_m = _nonlinear(A, B, P, R)
            P.append(p_m)
            R.append(r_m)
            A.append((r_m - A[m]) / (m + 1))
            B.append(g * (k * p_m - c * B[m] + (m == 0)) / (m + 1))
        return A, B

    sol = solve_ivp(taylor, (s_r, s_r + _S_MAX), (a_r, b_r), stop=lambda a, b: a <= a_stop)
    if sol.status == 0:
        a_end, b_end = sol.y[:, -1]
        remedy = "; a looser tol ends it sooner" if a_stop == tol else ""
        raise MaxStepsError(
            f"orbit did not reach a = {a_stop:.6g} within s = {_S_MAX:g} of the shoot's start: it "
            f"covered s = {s_r:.6g} to {s_r + _S_MAX:.6g}, from a = {a_r:.6g} to a = "
            f"{a_end:.6g} ({math.hypot(a_end - node_a, b_end - node_b):.3e} from the "
            f"node){remedy}")
    if sol.status < 0:
        raise MaxStepsError(f"orbit integration failed: the step fell below the spacing "
                            f"of s at s = {sol.t[-1]:.6g}")
    return sol


def estimate_kappa1(path: OrbitPath) -> float:
    """Node-departure coefficient lim a(eta) e^(-eta) of the path's parametrization:
    1/sigma0 on a path reparametrized to sigma0, where that is finite, else
    e^(log_kappa1), or UnresolvedTailError where that leaves the float range."""
    if path.sigma0 is not None and 1.0 / path.sigma0 < math.inf:
        return 1.0 / path.sigma0
    try:
        return math.exp(path.log_kappa1)
    except OverflowError:
        raise UnresolvedTailError(f"a(eta)e^-eta overflows on the tail (log kappa1 = "
                                  f"{path.log_kappa1:.6g})") from None


def reparametrize(path: OrbitPath, sigma0: float) -> OrbitPath:
    """Shift eta so the parametrization matches the amplitude sigma0.

    The shift eta0 = -log kappa1 - log sigma0 makes the new parametrization
    satisfy a(eta) ~ (1/sigma0) e^eta on the node tail, with log kappa1 =
    -log sigma0; the grid moves by -eta0.  Both are formed from logs, so
    they stay finite for every sigma0 > 0 and every orbit.
    """
    if sigma0 <= 0.0:
        raise ParameterError(f"sigma0 must be > 0, got {sigma0}")
    log_sigma0 = math.log(sigma0)
    eta0 = -path.log_kappa1 - log_sigma0
    return replace(path, eta=path.eta - eta0, eta0=eta0, log_kappa1=-log_sigma0,
                   sigma0=float(sigma0))
