"""The Magnus propagator against its previous version, kept in ``_magnus_reference``:
skipping the values it throws away must leave every bit of every result as it was.
Where ``integrate_mode`` now takes a mode's stiff tail in closed form, the
kernels are called directly on the grid and a22 that ``integrate_mode`` gives
them."""

import math

import numpy as np
import pytest

import _magnus_reference as reference
from shearlab import MaterialParams, energy_certificate, integrate_mode, stability
from shearlab import _magnus
from shearlab.errors import StiffnessError

# the 3x3 box of (theta0, kappa) that the benchmark's stability ops draw from
BOX = [(theta0, kappa) for theta0 in (-1.0, 0.0, 1.0) for kappa in (0.01, 0.1, 0.2)]
MODE_PARAMS = MaterialParams(n=0.05, alpha=0.5, kappa=0.1, theta0=0.3)


def _same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _horizon(params):
    return float(1.2 * energy_certificate(params).tau_T)    # the energy subcommand's default


def _solves(monkeypatch, params, j, tau_end, init=(1.0, 1.0)):
    """The solver results of ``integrate_mode`` with the package's kernel, then the oracle's."""
    results = []
    for solve in (_magnus.solve_ivp, reference.solve_ivp):
        def recorded(*args, solve=solve, **kwargs):
            results.append(solve(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(stability, "solve_ivp", recorded)
        integrate_mode(params, j, init, tau_end)
    return results


def _kernel_args(params, j, tau_end, init=(1.0, 1.0)):
    """The arguments of the one solve over the whole default grid of ``integrate_mode``."""
    grid = np.linspace(0.0, tau_end, stability.MODE_POINTS)
    return (stability._mode_entries(params, 0.0, j)[:3], stability._varying_entry(params, j),
            grid, init)


def _kernel_solves(params, j, tau_end, init=(1.0, 1.0)):
    """The package's kernel, then the oracle's, over the whole default grid."""
    args = _kernel_args(params, j, tau_end, init)
    return [kernel.solve_ivp(*args, rtol=1e-10, atol=1e-14) for kernel in (_magnus, reference)]


def _kernel_errors(params, j, tau_end, init=(1.0, 1.0)):
    """The StiffnessError texts of the package's kernel, then the oracle's, over the whole
    default grid."""
    texts = []
    for kernel in (_magnus, reference):
        with pytest.raises(StiffnessError) as info:
            kernel.solve_ivp(*_kernel_args(params, j, tau_end, init), rtol=1e-10, atol=1e-14)
        texts.append(str(info.value))
    return texts


def _errors(monkeypatch, params, j, tau_end, init=(1.0, 1.0)):
    """The StiffnessError texts of ``integrate_mode`` with the package's kernel, then the
    oracle's."""
    texts = []
    for solve in (_magnus.solve_ivp, reference.solve_ivp):
        monkeypatch.setattr(stability, "solve_ivp", solve)
        with pytest.raises(StiffnessError) as info:
            integrate_mode(params, j, init, tau_end)
        texts.append(str(info.value))
    return texts


@pytest.mark.parametrize("theta0, kappa", BOX)
def test_stability_box_solves_match_the_oracle_bit_for_bit(monkeypatch, theta0, kappa):
    # the energy op's modes 1-3 to its horizon and the modes op's mode 40 to tau = 10
    params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
    for j, tau_end in ((1, _horizon(params)), (2, _horizon(params)), (3, _horizon(params)),
                       (40, 10.0)):
        ours, ref = _solves(monkeypatch, params, j, tau_end)
        assert ours.nfev == ref.nfev, (j, tau_end)
        assert _same_bits(ours.t, ref.t) and _same_bits(ours.y, ref.y), (j, tau_end)


@pytest.mark.parametrize("m", [1, 2, 8, 32])
@pytest.mark.parametrize("j", [1, 40])
@pytest.mark.parametrize("theta0, kappa", BOX[::2])
def test_propagators_match_the_oracle_bit_for_bit(theta0, kappa, j, m):
    params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
    t = np.linspace(0.0, _horizon(params) if j == 1 else 10.0, stability.MODE_POINTS)
    a11, a12, a21, _ = stability._mode_entries(params, 0.0, j)

    def a22(tau):
        k = params.kappa * np.exp(params.log_c0 + params.alpha * tau)
        return stability._mode_entries(params, k, j)[3]

    ours = _magnus._propagators((a11, a12, a21), a22, t[:-1], t[1:], m)
    assert _same_bits(ours, reference._propagators((a11, a12, a21), a22, t[:-1], t[1:], m))


def test_oscillating_mode_matches_the_oracle_bit_for_bit(monkeypatch):
    # modes --kappa 0.2 --theta0 1 --j 40 --tau-end 600: a third of the Omega oscillate,
    # so the cos and sin branch of _expm2 is taken
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.2, theta0=1.0)
    counts = []
    real = reference._expm2

    def counting(a, b, c, d):
        r = np.sqrt(np.abs(b)) * np.sqrt(np.abs(c))
        counts.append(int(np.count_nonzero((np.sign(b) * np.sign(c) < 0)
                                           & (np.abs(0.5 * a - 0.5 * d) < r))))
        return real(a, b, c, d)

    monkeypatch.setattr(reference, "_expm2", counting)
    ours, ref = _kernel_solves(params, 40, 600.0)
    assert sum(counts) > 1000
    assert ours.nfev == ref.nfev
    assert _same_bits(ours.y, ref.y)


def _omega_cases():
    """Hand-built Omega entries (a, b, c, d) over every branch of _expm2."""
    rng = np.random.default_rng(23)
    x = rng.normal(size=40)
    return {
        # delta = 0: multiples of I, and a Jordan block with b != 0 = c
        "delta-0": (np.r_[x, x], np.r_[0.0 * x, 10.0 ** rng.uniform(-8, 2, 40)],
                    np.zeros(80), np.r_[x, x]),
        # bc < 0 with |p| below and above r: oscillating and not, small and large delta
        "bc<0": (rng.normal(size=80) * 3.0, np.abs(rng.normal(size=80)) * 4.0,
                 -np.abs(rng.normal(size=80)) * 4.0, rng.normal(size=80) * 3.0),
        # bc >= 0, delta below and above 1, m of both signs
        "bc>=0": (rng.normal(size=80) * 10.0 ** rng.uniform(-3, 2, 80),
                  np.abs(rng.normal(size=80)), np.abs(rng.normal(size=80)),
                  rng.normal(size=80) * 10.0 ** rng.uniform(-3, 2, 80)),
        "stiff": (np.full(3, -8.0), np.full(3, 79.0), np.full(3, 0.0105),
                  np.array([-1.6e5, -1.6e3, -16.0])),
    }


@pytest.mark.parametrize("case", ["delta-0", "bc<0", "bc>=0", "stiff"])
def test_expm2_matches_the_oracle_bit_for_bit(case):
    w = _omega_cases()[case]
    ours, ref = _magnus._expm2(*w), reference._expm2(*w)
    assert all(_same_bits(o, r) for o, r in zip(ours, ref))
    # one Omega at a time, as 0-d arrays, gives the same entries
    for i in range(w[0].size):
        one = _magnus._expm2(*(np.asarray(v[i]) for v in w))
        assert all(_same_bits(o, r[i]) for o, r in zip(one, ref)), i
    if case == "delta-0":
        p = 0.5 * w[0] - 0.5 * w[3]
        assert np.all(p * p + w[1] * w[2] == 0.0)


def test_non_finite_omega_and_state_give_the_oracle_text(monkeypatch):
    # A(t) h past the float range from t = 1.234 on, mid-grid
    def a22(tau):
        return np.where(tau > 1.234, math.inf, -2.0 - tau)

    t = np.linspace(0.0, 3.0, 31)
    texts = []
    for kernel in (_magnus, reference):
        with pytest.raises(StiffnessError) as info:
            kernel.solve_ivp((-1.0, 3.0, 1.0), a22, t, (1.0, 0.5), rtol=1e-10, atol=1e-14)
        texts.append(str(info.value))
    assert texts[0] == texts[1] == "A(t) h is not finite on [1.2000000000000002, 1.3]"
    # a state past the float range
    ours, ref = _errors(monkeypatch, MODE_PARAMS, 1, 2.0, init=(1e308, 1.0))
    assert ours == ref and ours.startswith("the state is not finite at t = ")


@pytest.mark.parametrize("cap, tau_end", [(4096, 600.0), (8, 14.0)])
def test_capped_solve_gives_the_oracle_text(monkeypatch, cap, tau_end):
    # modes --j 1 --tau-end 600 at the package's cap, and a cap low enough that it
    # falls while earlier intervals are still being refined
    monkeypatch.setattr(_magnus, "MAX_SUBSTEPS", cap)
    monkeypatch.setattr(reference, "MAX_SUBSTEPS", cap)
    ours, ref = _kernel_errors(MODE_PARAMS, 1, tau_end)
    assert ours == ref and ours.startswith(f"more than {cap} substeps on [")


def test_refinement_from_mid_grid_resweeps_to_the_oracle_bits(monkeypatch):
    # energy --kappa 0.1 --theta0 0, mode 1: the first interval refined lies mid-grid,
    # and the resweeps start there
    params = MaterialParams(n=0.05, alpha=0.5, kappa=0.1, theta0=0.0)
    tau_end = _horizon(params)
    refined = []
    real = _magnus._propagators

    def recorded(fixed, a22, lo, hi, m):
        if m == 4 and not refined:
            refined.append(lo[0])
        return real(fixed, a22, lo, hi, m)

    monkeypatch.setattr(_magnus, "_propagators", recorded)
    ours, ref = _kernel_solves(params, 1, tau_end)
    (first,) = np.flatnonzero(ours.t == refined[0])
    assert 100 < first < ours.t.size - 100
    assert ours.nfev == ref.nfev
    assert _same_bits(ours.y, ref.y)


def test_non_finite_start_is_named_at_the_first_point():
    # the oracle quotes the last row for it: "from (nan, nan) at t = 2.0"
    with pytest.raises(StiffnessError) as info:
        integrate_mode(MODE_PARAMS, 1, (math.nan, 1.0), 2.0)
    assert str(info.value) == "the initial state (nan, 1.0) at t = 0.0 is not finite"
    t = np.linspace(0.5, 3.0, 26)
    for y0 in ((1.0, math.inf), (-math.inf, math.nan)):
        with pytest.raises(StiffnessError, match=r"the initial state \(.+\) at t = 0.5 is"):
            _magnus.solve_ivp((-1.0, 3.0, 1.0), lambda tau: -2.0 - tau, t, y0, rtol=1e-10,
                              atol=1e-14)
    # and where the closed form takes the whole grid, from a start k(0) of about 3e9
    stiff = MaterialParams(n=0.002719, alpha=8.389, kappa=0.01418, theta0=3.11)
    with pytest.raises(StiffnessError, match=r"the initial state \(1.0, nan\) at t = 0.0 is"):
        integrate_mode(stiff, 1, (1.0, math.nan), 5.811)
    assert integrate_mode(stiff, 1, (1.0, 1.0), 5.811).slow_manifold_tau == 0.0


@pytest.mark.parametrize("theta0, kappa", BOX)
def test_states_up_to_the_switch_are_the_full_solve_bit_for_bit(theta0, kappa):
    # the propagator's states up to each mode's switch are those of the oracle's solve
    # over the whole grid; only the rows after it are taken in closed form
    params = MaterialParams(n=0.05, alpha=0.5, kappa=kappa, theta0=theta0)
    for j, tau_end in ((1, _horizon(params)), (2, _horizon(params)), (3, _horizon(params)),
                       (40, 10.0)):
        traj = integrate_mode(params, j, (1.0, 1.0), tau_end)
        (switch,) = np.flatnonzero(traj.taus == traj.slow_manifold_tau)
        full = reference.solve_ivp(*_kernel_args(params, j, tau_end), rtol=1e-10, atol=1e-14)
        assert 0 < switch < traj.taus.size - 1, (j, tau_end)
        assert _same_bits(traj.u[:switch + 1], full.y[0, :switch + 1]), (j, tau_end)
        assert _same_bits(traj.theta[:switch + 1], full.y[1, :switch + 1]), (j, tau_end)
        if j < 40:   # mode 40 may reach exactly 0 on both routes before its switch
            assert not _same_bits(traj.u[switch + 1:], full.y[0, switch + 1:]), (j, tau_end)
