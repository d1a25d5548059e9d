"""The interior-only residuals against their previous version, kept in
``_residual_reference``: every report must be the same, bit for bit, signed
zeros and NaNs included."""

from dataclasses import astuple

import numpy as np
import pytest

import _residual_reference as reference
from shearlab import (
    LocalizedSolution,
    PlanarParams,
    ode_residual,
    reconstruct,
    reparametrize,
    residual_convergence,
    shoot_heteroclinic,
)
from shearlab.localization import _difference
from shearlab.profile import _is_uniform

SHOWCASE = (0.1, 0.5, 0.1, 1.88)   # n, alpha, lambda, sigma0 of configs/localization.json
# the acceptance sweep, each point at a sigma0 of the benchmark's range [1, 2.5]
SWEEP = [(n, alpha, lam, sigma0) for (n, alpha, lam), sigma0 in zip(
    [(n, alpha, lam) for n in (0.05, 0.1) for alpha in (0.5, 1.0) for lam in (0.05, 0.1, 0.5)],
    np.linspace(1.0, 2.5, 12))]
LOCALIZE_STUDY = dict(x_span=(-5.0, 5.0), t_span=(0.0, 10.0))


def _solution(n, alpha, lam, sigma0, theta0=10.0):
    prof = reconstruct(reparametrize(shoot_heteroclinic(PlanarParams(n, alpha, lam)), sigma0))
    return LocalizedSolution(profile=prof, theta0=theta0)


@pytest.fixture(scope="module")
def showcase():
    return _solution(*SHOWCASE)


def _bits(report):
    """A report's fields, each float by its bit pattern."""
    return tuple(np.array(v, dtype=float).tobytes() if isinstance(v, (float, tuple)) else v
                 for v in astuple(report))


def _reference_study(sol, x_span, t_span, nx0=33, nt0=17, levels=4):
    """The reports of ``residual_convergence``, each level differenced by the reference."""
    top = levels - 1
    x = np.linspace(*x_span, (nx0 - 1) * 2 ** top + 1)
    t = np.linspace(*t_span, (nt0 - 1) * 2 ** top + 1)
    fields = sol.evaluate_grid(x, t)
    return [reference.difference(sol.params, x[::k], t[::k], *(f[::k, ::k] for f in fields))
            for k in (2 ** (top - lev) for lev in range(levels))]


def _assert_study_matches(sol, study):
    reports, _, _ = residual_convergence(sol, **study)
    expected = _reference_study(sol, **study)
    assert [_bits(r) for r in reports] == [_bits(r) for r in expected]


@pytest.mark.parametrize("point", [SHOWCASE, *SWEEP],
                         ids=lambda p: "n{}-a{}-l{}-s{:.3f}".format(*p))
def test_localize_study_matches_the_oracle_bit_for_bit(point):
    _assert_study_matches(_solution(*point), LOCALIZE_STUDY)


@pytest.mark.parametrize("study", [
    # the odd-spans study of test_residual_levels_equal_independent_grids_bit_for_bit
    dict(x_span=(-3.7, 2.9), t_span=(0.3, 7.1), nx0=17, nt0=9, levels=3),
    # the minimum grids, alone and refined; an even point count on the finest grid
    dict(x_span=(-5.0, 5.0), t_span=(0.0, 10.0), nx0=17, nt0=9, levels=1),
    dict(x_span=(-5.0, 5.0), t_span=(0.0, 10.0), nx0=17, nt0=9, levels=3),
    dict(x_span=(-3.7, 3.7), t_span=(0.0, 7.1), nx0=18, nt0=10, levels=1),
], ids=["odd-spans", "minimum", "minimum-refined", "even-counts"])
def test_other_studies_match_the_oracle_bit_for_bit(showcase, study):
    _assert_study_matches(showcase, study)


def _grid_fields(sol, nx=41, nt=21):
    x, t = np.linspace(-5.0, 5.0, nx), np.linspace(0.0, 10.0, nt)
    return x, t, [np.array(f) for f in sol.evaluate_grid(x, t)]


@pytest.mark.parametrize("plant", [
    [(0, (20, 10), np.nan)],                          # a NaN where every residual reads it
    [(1, (9, 11), np.inf)],                           # an inf in sigma, near the x edge
    [(2, (5, 3), -np.inf), (0, (30, 17), np.nan)],    # an inf in theta and a NaN in u
    [(0, (0, 0), np.nan), (1, (40, 20), np.nan)],     # NaNs only at the grid's corners
], ids=["nan-u", "inf-sigma", "inf-theta-nan-u", "nan-corners"])
def test_fields_holding_nan_and_inf_match_the_oracle(showcase, plant):
    x, t, fields = _grid_fields(showcase)
    for which, at, value in plant:
        fields[which][at] = value
    with np.errstate(all="ignore"):
        got = _difference(showcase.params, x, t, *fields)
        expected = reference.difference(showcase.params, x, t, *fields)
    assert _bits(got) == _bits(expected)


def test_residuals_that_are_all_zero_give_positive_zero_norms(showcase):
    # u = sigma = -0 with theta constant: every residual is a zero, some of them -0
    x, t, fields = _grid_fields(showcase, nx=17, nt=9)
    u, sigma, theta = np.full_like(fields[0], -0.0), np.full_like(fields[1], -0.0), \
        np.ones_like(fields[2])
    with np.errstate(all="ignore"):
        got = _difference(showcase.params, x, t, u, sigma, theta)
        expected = reference.difference(showcase.params, x, t, u, sigma, theta)
    assert _bits(got) == _bits(expected)
    assert got.sup == (0.0, 0.0, 0.0) and all(np.copysign(1.0, s) == 1.0 for s in got.sup)


@pytest.mark.parametrize("grid", ["profile-op", "uniform", "uniform-even", "least"])
def test_ode_residual_matches_the_oracle_bit_for_bit(showcase, grid):
    prof = showcase.profile
    xi = {"profile-op": np.geomspace(max(1e-2, 2 * prof.xi_min), min(1e2, prof.xi_max / 2),
                                     20001),
          "uniform": np.linspace(0.05, 20.0, 4001),
          "uniform-even": np.linspace(0.05, 20.0, 4000),
          "least": np.geomspace(0.1, 10.0, 9)}[grid]
    p = prof.p
    assert _bits(ode_residual(prof, p.nu, p.n, p.alpha, xi)) == \
        _bits(reference.ode_residual(prof, p.nu, p.n, p.alpha, xi))


@pytest.mark.parametrize("g", [
    np.linspace(-5.0, 5.0, 33), np.geomspace(1e-2, 1e2, 101), np.array([0.0, 1.0, 2.0 + 1e-8]),
    np.array([0.0, 1.0, 2.0 + 1e-10]), np.array([0.0, np.inf, np.inf]),
    np.array([0.0, 1.0, np.inf]), np.array([0.0, np.nan, 1.0]), np.array([1.0, 1.0, 1.0]),
    np.array([3.0, 2.0, 1.0]),
])
def test_the_uniformity_check_is_allclose(g):
    with np.errstate(all="ignore"):
        for rtol, atol in ((1e-9, 1e-15), (1e-8, 1e-12)):
            assert _is_uniform(g, rtol=rtol, atol=atol) == \
                np.allclose(np.diff(g), g[1] - g[0], rtol=rtol, atol=atol)
