"""The interior-only residuals against their previous version, kept in
``_residual_reference``: every report must be the same, bit for bit, signed
zeros and NaNs included.  A residual study's level, differenced on x >= 0, is
the oracle's full-grid differencing of the level's mirror-exact grid, reduced
over x >= 0 by the rule of docs/formats.md."""

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
from shearlab.material import half_line
from shearlab.profile import _is_uniform

SHOWCASE = (0.1, 0.5, 0.1, 1.88)   # n, alpha, lambda, sigma0 of configs/localization.json
# the acceptance sweep, each point at a sigma0 of the benchmark's range [1, 2.5]
SWEEP = [(n, alpha, lam, sigma0) for (n, alpha, lam), sigma0 in zip(
    [(n, alpha, lam) for n in (0.05, 0.1) for alpha in (0.5, 1.0) for lam in (0.05, 0.1, 0.5)],
    np.linspace(1.0, 2.5, 12))]
LOCALIZE_STUDY = dict(xmax=5.0, t_span=(0.0, 10.0))


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


def mirror_grid(xmax, n):
    """n points uniform on [-xmax, xmax], the mirror image of their half x >= 0, and
    the step the study differences them with, xmax / ((n - 1)/2)."""
    half = half_line(xmax, n)[0]
    return np.concatenate((0.0 - half[::-1], half[n % 2:])), xmax / ((n - 1) / 2)


def reference_level(sol, xmax, t, n):
    """The report of the study's level of n points in x on [-xmax, xmax] by t: the
    solution evaluated on the level's whole grid and differenced by the reference."""
    x, hx = mirror_grid(xmax, n)
    # the reference reads only its x's step and size
    return reference.half_line_difference(sol.params, hx * np.arange(n), t,
                                          *sol.evaluate(x[:, None], t[None, :]))


def _reference_study(sol, xmax, t_span, nx0=33, nt0=17, levels=4):
    """The reports of ``residual_convergence``, each level evaluated on its own grid."""
    return [reference_level(sol, xmax, np.linspace(*t_span, (nt0 - 1) * 2 ** lev + 1),
                            (nx0 - 1) * 2 ** lev + 1) for lev in range(levels)]


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
    dict(xmax=3.7, t_span=(0.3, 7.1), nx0=17, nt0=9, levels=3),
    # the minimum grids, alone and refined; an even point count on the finest grid
    dict(xmax=5.0, t_span=(0.0, 10.0), nx0=17, nt0=9, levels=1),
    dict(xmax=5.0, t_span=(0.0, 10.0), nx0=17, nt0=9, levels=3),
    dict(xmax=3.7, t_span=(0.0, 7.1), nx0=18, nt0=10, levels=1),
    # an even count on the coarsest grid alone, so its points x >= 0 start at a half
    # step; and x = 0 on an odd row of the coarsest grid, with no even point there
    dict(xmax=3.7, t_span=(0.0, 7.1), nx0=18, nt0=10, levels=3),
    dict(xmax=5.0, t_span=(0.0, 10.0), nx0=19, nt0=9, levels=2),
], ids=["odd-spans", "minimum", "minimum-refined", "even-counts", "even-coarsest",
        "zero-on-an-odd-row"])
def test_other_studies_match_the_oracle_bit_for_bit(showcase, study):
    _assert_study_matches(showcase, study)


def _grid_fields(sol, nx=41, nt=21):
    x, t = np.linspace(-5.0, 5.0, nx), np.linspace(0.0, 10.0, nt)
    return x, t, list(sol.evaluate(x[:, None], t[None, :]))


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
        got = _difference(showcase.params, x[1] - x[0], t[1] - t[0], *fields)
        expected = reference.difference(showcase.params, x, t, *fields)
    assert _bits(got) == _bits(expected)


@pytest.mark.parametrize("n, row", [(18, 12), (18, 13), (17, 12), (17, 11)],
                         ids=["even-count-even-row", "even-count-odd-row", "odd-count-even-row",
                              "odd-count-odd-row"])
def test_the_half_lines_estimate_is_at_the_mirror_images_of_even_points(showcase, n, row):
    # noise in t on a row x > 0 and its mirror image: the estimate of u_t takes the row
    # only where its mirror image is an even point, so the oracle's reduction and the half
    # line agree, bit for bit, on which rows it sees (row 12 of 18 mirrors row 5)
    x, hx = mirror_grid(5.0, n)
    t = np.linspace(0.0, 10.0, 17)
    fields = list(showcase.evaluate(x[:, None], t[None, :]))
    noise = 1e-3 * np.random.default_rng(row).standard_normal(t.size)
    for i in (row, n - 1 - row):
        fields[0][i] *= 1.0 + noise
    got = _difference(showcase.params, hx, t[1] - t[0], *(f[n // 2:] for f in fields), nx=n)
    expected = reference.half_line_difference(showcase.params, hx * np.arange(n), t, *fields)
    assert _bits(got) == _bits(expected)


def test_residuals_that_are_all_zero_give_positive_zero_norms(showcase):
    # u = sigma = -0 with theta constant: every residual is a zero, some of them -0
    x, t, fields = _grid_fields(showcase, nx=17, nt=9)
    u, sigma, theta = np.full_like(fields[0], -0.0), np.full_like(fields[1], -0.0), \
        np.ones_like(fields[2])
    with np.errstate(all="ignore"):
        got = _difference(showcase.params, x[1] - x[0], t[1] - t[0], u, sigma, theta)
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
