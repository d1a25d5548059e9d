"""Heteroclinic orbit of the planar reciprocal-stress system.

The self-similar profile equations reduce, after logarithmic variables and
the substitution a = 1/sigma, b = 1/(sigma*u), to the autonomous planar system

    da/deta = a (1 - a^2/b),
    db/deta = (alpha/(nu n)) (c_nu b - 1 - ((n+1) nu / alpha) a^2),

with c_nu = 1 + nu (n+1)/alpha.  Its equilibria in the closed first quadrant
are the repelling node P = (0, 1/c_nu) and the saddle Q = (1, 1); the orbit
joining them generates every localizing profile.

Near Q the orbit is Q's stable manifold, written by the parametrization method
(Cabre, Fontich & de la Llave, Indiana Univ. Math. J. 52, 2003; Haro et al.,
The Parameterization Method for Invariant Manifolds, Springer 2016) as

    W(zeta) = Q + sum_{m=1..M} c_m zeta^m,   zeta = eps e^(mu_s eta),

with mu_s the stable eigenvalue, c_1 the unit stable eigenvector pointing into
R, and (m mu_s I - J_Q) c_m equal to the zeta^m coefficient of the field's
nonlinear part, which the lower orders fix; the matrix is invertible for every
m >= 2 because m mu_s < 0 < mu_u and m mu_s != mu_s.  eta is exact on it, so
the saddle head, from zeta = eps (the sample at distance eps from Q, at
eta = 0) up to the junction zeta_j = 1e-2, is sampled from the series, with
M = 14.  From W(zeta_j) the shooter integrates backward inside the
invariant triangle-like region R = {a^2 <= b <= 1, 0 <= a <= 1} with DOPRI5
(``_dopri.solve_ivp``: SciPy RK45's tableau and step controller on Python
floats), and stops at its first step that ends at or below a = a_* = 1e-2;
that step's end is the junction a_j, within one step (about 1% in a) below a_*.

Below a_j the orbit is the slow manifold of the node (Fenichel, J. Differential
Equations 31, 1979; Lee & Tzavaras, SIADS 2017): with s = a^2 and
lambda2 = (alpha/(n nu)) c_nu,

    b = h(s) = sum_m beta_m s^m,   beta_0 = 1/c_nu,
    eta = log a + C + F(s),        F'(s) = 1 / (2 (h(s) - s)),  F(0) = 0,

where the beta_m follow order by order from the invariance equation
2 s h'(s) (1 - s/h) = (alpha/(nu n)) (c_nu h - 1 - ((n+1) nu/alpha) s), and the
fast component is O(a^lambda2).  The node tail is sampled from these series
down to a = tol, and the node-departure coefficient lim a e^(-eta) = e^(-C)
is in closed form, with C fixed at the junction.  When lambda2 < 12 (a
resonance lambda2 = 2m may be near) or tol >= a_*, the shoot runs instead to
its first step that ends within tol of P.
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
    samples.  ``d`` is b - 1/c_nu; on a series tail it is the series
    sum_{m>=1} beta_m a^(2m) itself, so it keeps its relative precision as
    a -> 0.  ``eta0`` is the shift applied to match an amplitude sigma0 (0
    for a freshly shot orbit) and ``kappa1`` the node-departure coefficient
    lim a(eta) e^(-eta) in the current parametrization (None until
    estimated).  ``a_junction`` is the a at which the shot body meets the
    series tail and ``junction_gap`` the |b_shot - h(a^2)| there; both are
    None when the orbit was shot to the node.  ``saddle_junction`` is the
    zeta_j at which the body leaves Q's stable-manifold series and
    ``saddle_truncation`` the size |c_(M+1)| zeta_j^(M+1) of its first
    dropped term there.
    """

    params: PlanarParams
    eta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    da: np.ndarray
    db: np.ndarray
    eps: float
    tol: float
    eta0: float = 0.0
    kappa1: float | None = None
    sigma0: float | None = None
    a_junction: float | None = None
    junction_gap: float | None = None
    saddle_junction: float | None = None
    saddle_truncation: float | None = None

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

    def states_at(self, eta):
        """Interpolated (a, b) inside the sampled eta range: exp of ``log_states_at``."""
        la, lb = self.log_states_at(eta)
        return np.exp(la), np.exp(lb)


_REGION_SLACK = 1e-9
A_JUNCTION = 1e-2        # a_*: the shoot ends at its first step at or below this
_SERIES_TERMS = 5        # M: the truncation of h is O(a_*^(2M+2)) = 1e-24
LAMBDA2_SERIES = 12.0    # lambda2 = 2m, m <= M, divides beta_m by zero: shoot below this
_MAX_STEP = 0.01         # the shoot's largest step in s = -eta
_S_MAX = 400.0           # the shoot gives up past s = _S_MAX
_TAIL_STEP = 0.01        # tail sample spacing in log a, the body's density under _MAX_STEP
SADDLE_JUNCTION = 1e-2   # zeta_j: the shoot starts on W(zeta_j), about 1e-2 from Q
_SADDLE_TERMS = 14       # M: W is summed to zeta^M
_PLATEAU_RTOL = 1e-4     # the flatness a e^(-eta) must reach over the deepest decade


def _slow_manifold(p: PlanarParams):
    """np.polyval coefficients in s = a^2 of d(s) = h(s) - 1/c_nu and of F(s).

    beta_m (2 m beta_0 - g) is the s^m coefficient of the invariance
    equation, multiplied by h, with beta_m taken out:
    2 s h' (h - s) = g h (c_nu h - 1 - k s).  F' = 1/(2 (h - s)) is
    integrated term by term from the reciprocal series r of h - s.
    """
    g = p.alpha / (p.nu * p.n)
    c = p.c_nu
    k = (p.n + 1.0) * p.nu / p.alpha
    beta = [1.0 / c]
    for m in range(1, _SERIES_TERMS + 1):
        conv = sum(beta[j] * beta[m - j] for j in range(1, m))
        jconv = sum(j * beta[j] * beta[m - j] for j in range(1, m))
        rest = g * (c * conv - k * beta[m - 1]) - 2.0 * jconv + 2.0 * (m - 1) * beta[m - 1]
        beta.append(rest / (2.0 * m * beta[0] - g))
    q = [beta[0], beta[1] - 1.0, *beta[2:]]
    r = [c]
    for m in range(1, _SERIES_TERMS + 1):
        r.append(-c * sum(q[j] * r[m - j] for j in range(1, m + 1)))
    d_coef = [*beta[:0:-1], 0.0]
    f_coef = [r[m] / (2.0 * (m + 1)) for m in range(_SERIES_TERMS, -1, -1)] + [0.0]
    return d_coef, f_coef


def _stable_manifold(p: PlanarParams):
    """mu_s and the np.polyval coefficients, c_(M+1) first, of a(zeta) and b(zeta)
    on Q's stable manifold W(zeta) = Q + sum_{m=1..M+1} c_m zeta^m.

    With the zeta^m coefficients of the unknown c_m set to 0, the series A, B
    of a, b give the m-th coefficients P0 of a^2, T0 of a^3 and R0 of a^3/b
    (series division by B); these are the field's nonlinear part, and
    (m mu_s I - J_Q) c_m = -(R0, g k P0), g = alpha/(nu n), k = (n+1) nu/alpha.
    """
    q = 2.0 * (p.n + 1.0) / p.n       # J_Q = [[-2, 1], [-q, lambda2]]
    lam = p.lambda2
    _, saddle = equilibria(p)
    mu = saddle.eigenvalues[0]
    r = saddle.eigenvectors[0]
    A = [1.0, -r[0] / math.hypot(*r)]
    B = [1.0, -r[1] / math.hypot(*r)]
    P = [1.0, 2.0 * A[1]]
    R = [1.0, 3.0 * A[1] - B[1]]
    for m in range(2, _SADDLE_TERMS + 2):
        p0 = sum(A[j] * A[m - j] for j in range(1, m))
        t0 = sum(P[j] * A[m - j] for j in range(1, m)) + p0
        r0 = t0 - sum(B[j] * R[m - j] for j in range(1, m))
        # Cramer's rule on (m mu I - J_Q) c_m = (n0, n1), with g k = q/2
        m00, m11 = m * mu + 2.0, m * mu - lam
        n0, n1 = -r0, -0.5 * q * p0
        det = m00 * m11 + q
        am = (m11 * n0 + n1) / det
        bm = (m00 * n1 - q * n0) / det
        A.append(am)
        B.append(bm)
        P.append(p0 + 2.0 * am)
        R.append(r0 + 3.0 * am - bm)
    return mu, A[::-1], B[::-1]


def _saddle_head(p: PlanarParams, eps: float):
    """(eta, a, b, truncation): the saddle end of the orbit on Q's stable manifold.

    The samples run from the junction eta_j, where zeta = SADDLE_JUNCTION, up to
    eta = 0, where zeta = eps, no further apart than _MAX_STEP.  ``truncation``
    is the first dropped term |c_(M+1)| zeta_j^(M+1), below 5e-27 wherever it
    was probed: |c_(M+1)| tends to 4.7e3 as lambda2 grows.  A head longer
    than _S_MAX in eta (|mu_s| below about 0.02) raises MaxStepsError.
    """
    mu, a_coef, b_coef = _stable_manifold(p)
    eta_j = math.log(SADDLE_JUNCTION / eps) / mu
    if -eta_j >= _S_MAX:
        raise MaxStepsError(f"orbit did not leave the saddle within s = {_S_MAX} (mu_s = {mu:.3e}: "
                            f"its series reaches zeta = {SADDLE_JUNCTION:g} at s = {-eta_j:.6g})")
    eta = np.linspace(eta_j, 0.0, math.ceil(-eta_j / _MAX_STEP) + 1)
    zeta = eps * np.exp(mu * eta)
    return (eta, np.polyval(a_coef[1:], zeta), np.polyval(b_coef[1:], zeta),
            math.hypot(a_coef[0], b_coef[0]) * SADDLE_JUNCTION ** (_SADDLE_TERMS + 1))


def _series_tail(p: PlanarParams, eta_j: float, a_j: float, tol: float):
    """(eta, a, d) of the slow-manifold tail below the junction (eta_j, a_j).

    The samples lie on a geometric grid from a = tol up to, and not including,
    a_j, no further apart than _TAIL_STEP in log a; eta = log a + C + F(a^2)
    with C fixed by the junction.  Also returns h(a_j^2) - 1/c_nu.
    """
    d_coef, f_coef = _slow_manifold(p)
    la_j = math.log(a_j)
    s_j = a_j * a_j
    count = math.ceil((la_j - math.log(tol)) / _TAIL_STEP)
    la = np.linspace(math.log(tol), la_j, count + 1)[:-1]
    a = np.exp(la)
    s = a * a
    eta = eta_j + (la - la_j) + (np.polyval(f_coef, s) - np.polyval(f_coef, s_j))
    return eta, a, np.polyval(d_coef, s), float(np.polyval(d_coef, s_j))


def shoot_heteroclinic(p: PlanarParams, eps: float = 1e-6, tol: float = 1e-8,
                       rtol: float = 1e-10) -> OrbitPath:
    """Shoot the heteroclinic backward from the saddle to the node.

    The saddle end, from the sample at distance eps from Q (eta = 0) to the
    junction zeta_j = SADDLE_JUNCTION, comes from Q's stable-manifold series.
    From W(zeta_j) at s = -eta_j the shooter negates the field and integrates
    forward in s = -eta, in steps of at most _MAX_STEP, and stops at the end of
    its first step with a <= A_JUNCTION.  From that junction the orbit
    continues on the slow-manifold series down to a = tol; the tail is empty
    when the junction already lies below tol.  When lambda2 < LAMBDA2_SERIES
    or tol >= A_JUNCTION the shoot stops instead at the end of its first step
    with ||state - P|| <= tol.  Not stopping by s = _S_MAX raises
    MaxStepsError.  Every sample must stay in R: a trial step that
    reaches b <= 0, or a sample outside R, raises RegionExitError.
    """
    if not (0.0 < eps <= 1e-3):
        raise ParameterError(f"eps must be in (0, 1e-3], got {eps}")
    if not tol > 0.0:
        raise ParameterError(f"tol must be > 0, got {tol}")
    eta_h, a_h, b_h, truncation = _saddle_head(p, eps)
    node_a, node_b = p.node.tolist()
    # vector_field's coefficients, hoisted out of the RHS; the scalar arithmetic
    # below keeps vector_field's order of operations
    g = p.alpha / (p.nu * p.n)
    c = p.c_nu
    k = (p.n + 1.0) * p.nu / p.alpha

    def backward(s, a, b):
        if b <= 0.0:
            raise RegionExitError(f"a trial step left the region R at eta = {-s:.6g} "
                                  f"(b = {b:.6g} <= 0)")
        return (-(a * (1.0 - a * a / b)), -(g * (c * b - 1.0 - k * a * a)))

    series = p.lambda2 >= LAMBDA2_SERIES and tol < A_JUNCTION
    if series:
        def stop(s, a, b):
            return a <= A_JUNCTION
    else:
        def stop(s, a, b):
            return math.hypot(a - node_a, b - node_b) <= tol

    sol = solve_ivp(backward, (-eta_h[0], _S_MAX), (a_h[0], b_h[0]), stop=stop, rtol=rtol,
                    atol=1e-14, max_step=_MAX_STEP)
    if sol.status == 0:
        target = f"a = {A_JUNCTION:g}" if series else "the node"
        raise MaxStepsError(
            f"orbit did not reach {target} within s = {_S_MAX} (distance "
            f"{math.hypot(sol.y[0, -1] - node_a, sol.y[1, -1] - node_b):.3e} from the node)")
    if sol.status < 0:
        raise MaxStepsError(f"orbit integration failed: {sol.message}")

    # reverse to increasing eta = -s, and append the head past its junction sample
    eta = np.concatenate([-sol.t[::-1], eta_h[1:]])
    a = np.concatenate([sol.y[0][::-1], a_h[1:]])
    b = np.concatenate([sol.y[1][::-1], b_h[1:]])
    d = b - node_b
    a_junction = junction_gap = None
    if series:
        a_junction = float(a[0])
        eta_t, a_t, d_t, d_j = _series_tail(p, float(eta[0]), a_junction, tol)
        junction_gap = abs(float(d[0]) - d_j)
        eta = np.concatenate([eta_t, eta])
        a = np.concatenate([a_t, a])
        d = np.concatenate([d_t, d])
        b = np.concatenate([node_b + d_t, b])

    inside = ((a >= -_REGION_SLACK) & (a <= 1.0 + _REGION_SLACK) & (b <= 1.0 + _REGION_SLACK)
              & (a * a <= b + _REGION_SLACK))
    if not np.all(inside):
        bad = np.argmin(inside)
        raise RegionExitError(
            f"sample {bad} at (a={a[bad]:.6g}, b={b[bad]:.6g}) left the region R")
    if not np.all(np.diff(a) > 0):
        raise RegionExitError("a(eta) is not strictly increasing along the orbit")
    # derivatives revert to the forward field
    da, db = vector_field(p, (a, b))
    return OrbitPath(params=p, eta=eta, a=a, b=b, d=d, da=da, db=db, eps=eps, tol=tol,
                     a_junction=a_junction, junction_gap=junction_gap,
                     saddle_junction=SADDLE_JUNCTION, saddle_truncation=truncation)


def estimate_kappa1(path: OrbitPath) -> float:
    """Node-departure coefficient lim a(eta) e^(-eta) of the path's parametrization.

    When the deepest sample lies on the slow manifold (lambda2 >= LAMBDA2_SERIES
    and a[0] <= A_JUNCTION/10), it is the closed form a e^(-eta) e^(F(a^2))
    there.  Otherwise it is the plateau of a e^(-eta) over the deepest decade
    of a, which must be flat to _PLATEAU_RTOL relative variation.
    """
    p = path.params
    a = path.a
    a_min = a[0]
    if p.lambda2 >= LAMBDA2_SERIES and a_min <= A_JUNCTION / 10.0:
        _, f_coef = _slow_manifold(p)
        return math.exp(math.log(a_min) - path.eta[0] + float(np.polyval(f_coef, a_min * a_min)))
    q = a * np.exp(-path.eta)
    window = a <= 10.0 * a_min
    if window.sum() < 4:
        raise UnresolvedTailError(
            f"only {int(window.sum())} samples in the deepest decade of the tail")
    qw = q[window]
    spread = (qw.max() - qw.min()) / abs(qw[0])
    if not np.isfinite(spread) or spread > _PLATEAU_RTOL:
        raise UnresolvedTailError(
            f"a(eta)e^-eta varies by {spread:.2e} over the tail decade "
            f"(> {_PLATEAU_RTOL:.0e}); no plateau")
    kappa1 = float(qw[0])
    if kappa1 <= 0.0:
        raise UnresolvedTailError(f"node-departure coefficient {kappa1:.3e} is not positive")
    return kappa1


def reparametrize(path: OrbitPath, sigma0: float) -> OrbitPath:
    """Shift eta so the parametrization matches the amplitude sigma0.

    With kappa1 the current node-departure coefficient of a(eta)e^(-eta), the
    shift eta0 = log(1/(kappa1 sigma0)) makes the new parametrization satisfy
    a(eta) ~ (1/sigma0) e^eta on the node tail; the grid moves by -eta0.
    """
    if sigma0 <= 0.0:
        raise ParameterError(f"sigma0 must be > 0, got {sigma0}")
    kappa1 = estimate_kappa1(path)
    eta0 = math.log(1.0 / (kappa1 * sigma0))
    return replace(path, eta=path.eta - eta0, eta0=eta0,
                   kappa1=kappa1 * math.exp(eta0), sigma0=float(sigma0))
