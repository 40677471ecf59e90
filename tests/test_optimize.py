import itertools
import math
import re

import numpy as np
import pytest

from hespinor import optimize, radial, spectrum
from hespinor.model import FINE_STRUCTURE_ALPHA, SIGMA_MIN, ModelParams, ParameterError

# the root of d(delta_e)/d(sigma) at the default constants and delta_e there,
# both from a 50-digit mpmath evaluation of the closed form
SIGMA0_REF = 0.17711646742155152
DELTA_E_MIN_REF = -2.9058986787204573


def _scan(*args, **kwargs):
    # the scan's chunks joined into one EquilibriumPoint of arrays
    return spectrum.EquilibriumPoint(*map(np.concatenate,
                                          zip(*optimize.scan_sigma(*args, **kwargs))))


def test_scan_config_validation():
    with pytest.raises(ValueError):
        optimize.scan_sigma(sigma_min=0.5, sigma_max=0.1, n_points=10)
    with pytest.raises(ValueError):
        optimize.scan_sigma(sigma_min=0.1, sigma_max=0.5, n_points=1)
    bad = [("alpha", dict(alpha=-1.0)), ("alpha", dict(alpha=math.nan)),
           ("alpha", dict(alpha=math.inf)), ("alpha", dict(alpha=0.0)),
           ("j1", dict(j1=0.001)), ("j2", dict(j2=math.nan)), ("points", dict(n_points=0)),
           ("points", dict(n_points=2**53 + 2)),
           ("sigma", dict(sigma_min=0.0)), ("sigma", dict(sigma_max=1.5))]
    for name, override in bad:
        kwargs = dict(dict(sigma_min=0.1, sigma_max=0.5, n_points=10), **override)
        with pytest.raises(ValueError, match=name):
            optimize.scan_sigma(**kwargs)


def test_scan_rows_ascending_and_counted():
    table = _scan(0.01, 0.5, 50)
    assert len(table.sigma) == 50
    sigmas = table.sigma.tolist()
    assert sigmas == sorted(sigmas)
    assert sigmas[0] == pytest.approx(0.01) and sigmas[-1] == pytest.approx(0.5)


def test_scan_two_points_endpoints_only():
    table = _scan(0.1, 0.3, 2)
    assert table.sigma.tolist() == [pytest.approx(0.1), pytest.approx(0.3)]


def test_scan_yields_chunks_of_at_most_scan_chunk_rows():
    rows = 2 * optimize.SCAN_CHUNK_ROWS + 1
    sizes = [len(chunk.sigma) for chunk in optimize.scan_sigma(0.01, 0.5, rows)]
    assert sizes == [optimize.SCAN_CHUNK_ROWS, optimize.SCAN_CHUNK_ROWS, 1]
    assert [len(chunk.sigma) for chunk in optimize.scan_sigma(0.01, 0.5, 50)] == [50]


def test_scan_and_walk_grids_equal_linspace_bit_for_bit():
    # both grids form k * step + lo and end exactly at hi, as np.linspace does
    rng = np.random.default_rng(20261019)
    chunk = optimize.SCAN_CHUNK_ROWS
    edges = [2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]
    for trial in range(120):
        lo, hi = sorted(np.maximum(10.0 ** rng.uniform(math.log10(SIGMA_MIN), 0, 2), SIGMA_MIN))
        n = edges[trial] if trial < len(edges) else int(rng.integers(2, 3 * chunk + 2))
        grid = np.concatenate([c.sigma for c in optimize.scan_sigma(lo, hi, n)])
        assert grid.tobytes() == np.linspace(lo, hi, n).tobytes(), (lo, hi, n)
    for _ in range(20000):
        lo, hi = sorted(np.maximum(10.0 ** rng.uniform(math.log10(SIGMA_MIN), 0, 2), SIGMA_MIN))
        walk = optimize._grid(lo, hi, 32)
        assert [walk(k) for k in range(32)] == np.linspace(lo, hi, 32).tolist(), (lo, hi)


def test_b_squared_is_proven_where_s1_and_s2_are_positive(monkeypatch):
    # the bounds at CODATA alpha, j1 = j2 = 1: s1 (s1 + 1/2) / 4 and s2 (s2 + 3/2) / 2
    s1, s2 = radial.exponents(1.0, 1.0, FINE_STRUCTURE_ALPHA)
    assert (round(s1 * (s1 + 0.5) / 4, 3), round(s2 * (s2 + 1.5) / 2, 3)) == (0.125, 0.5)
    assert optimize._b_squared_proven(s1, s2)
    assert radial.exponents(0.625, 1.0, 0.1875)[0] == 0.0  # j1^2 - 1/4 = 4 alpha^2 exactly
    for s1, s2 in ((0.0, 0.5), (0.5, 0.0), (-4e-20, 0.5), (0.5, -4e-200), (1e-170, 0.5)):
        assert not optimize._b_squared_proven(s1, s2), (s1, s2)  # the last: the bound underflows
    # where it holds, no chunk is made before the first is asked for, however many points
    made = []
    monkeypatch.setattr(optimize, "c_params", lambda *args: made.append(args))
    optimize.scan_sigma(0.05, 0.5, 2**53 + 1)
    assert made == []


def test_scan_first_point_near_ion_limit():
    table = _scan(0.01, 0.5, 50)
    assert abs(table.delta_e[0] - (-2.0)) < 0.1


def test_scan_single_well_shape():
    table = _scan(0.01, 0.5, 50)
    values = table.delta_e
    diffs = np.sign(np.diff(values))
    # strictly decreasing then strictly increasing: exactly one sign change
    changes = np.count_nonzero(np.diff(diffs) != 0)
    assert changes == 1
    imin = int(np.argmin(values))
    assert 0 < imin < len(values) - 1
    assert 0.15 < table.sigma[imin] < 0.21
    assert values[imin - 1] > values[imin] < values[imin + 1]


def test_minimize_defaults_hits_reference_window():
    result = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    pt = result.point
    assert 0.1765 <= pt.sigma <= 0.1785
    assert -2.911 <= pt.delta_e <= -2.901
    assert pt.sigma == pytest.approx(SIGMA0_REF, abs=2e-6)
    assert pt.delta_e == pytest.approx(DELTA_E_MIN_REF, abs=1e-9)
    assert abs(pt.sigma - SIGMA0_REF) <= 1e-6
    assert result.iterations > 0


def test_minimize_equilibrium_radii():
    pt = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6).point
    assert pt.r10 == pytest.approx(0.130, abs=0.005)
    assert pt.r20 == pytest.approx(0.732, abs=0.005)
    assert pt.rho0 == pytest.approx(0.862, abs=0.005)
    assert pt.rho0 == pytest.approx(pt.r10 + pt.r20, rel=1e-12)


def test_minimize_bracket_order_invariant():
    a = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    b = optimize.minimize_delta_e((0.5, 0.05), tol=1e-6)
    assert a.point.sigma == b.point.sigma
    assert a.point.delta_e == b.point.delta_e


def test_minimize_deterministic():
    a = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    b = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    assert a == b


def test_minimize_tolerance_stability():
    coarse = optimize.minimize_delta_e((0.05, 0.5), tol=1e-5).point.sigma
    fine = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6).point.sigma
    assert abs(fine - coarse) < 1e-5


def test_minimize_sigma0_near_50_digit_root():
    result = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    assert abs(result.point.sigma - SIGMA0_REF) <= 1e-6


def test_minimize_tight_tolerance_reaches_the_50_digit_root():
    result = optimize.minimize_delta_e((0.05, 0.5), tol=1e-12)
    assert abs(result.point.sigma - SIGMA0_REF) <= 1e-12


def test_minimize_refines_the_prescan_minimum_not_the_whole_bracket():
    # for j2 = 2 the excess energy also falls toward sigma = 0.99; the global minimum is near 0.0999
    pt = optimize.minimize_delta_e((0.01, 0.99), tol=1e-6, j1=1.0, j2=2.0).point
    assert pt.sigma == pytest.approx(0.0999, abs=1e-3)
    assert pt.delta_e < -2.4
    table = _scan(0.01, 0.99, 2000, j1=1.0, j2=2.0)
    assert pt.delta_e <= table.delta_e.min()


def _slope(alpha, j1, j2):
    return lambda sigma: spectrum.delta_e(spectrum.closed_form(sigma + 1e-30j, alpha=alpha, j1=j1,
                                                               j2=j2)).imag / 1e-30


def _numpy_grid(alpha, j1, j2, bracket):
    """The 32-point np.linspace grid over the bracket and delta_e on it, as one array call."""
    grid = np.linspace(*bracket, 32)
    return grid, spectrum.delta_e(spectrum.closed_form(grid, alpha=alpha, j1=j1, j2=j2))


def _walk(slope, bracket):
    """The 32-point np.linspace grid over the bracket, walked: its points from the second on
    up to the right end of the first cell whose end slopes run (-, +), one slope each."""
    grid = np.linspace(*bracket, 32)
    for k in range(1, 32):
        if slope(grid[k - 1]) < 0 < slope(grid[k]):
            return grid[1:k + 1].tolist()
    raise AssertionError(f"no (-, +) cell on {bracket}")


def _counting_delta_e(monkeypatch):
    """The sigma of every delta_e the minimizer evaluates, in order."""
    calls = []
    monkeypatch.setattr(optimize, "delta_e",
                        lambda cf: calls.append(cf.sigma) or spectrum.delta_e(cf))
    return calls


@pytest.mark.parametrize("alpha, j1, j2, bracket", [
    (FINE_STRUCTURE_ALPHA, 1.0, 1.0, (0.05, 0.5)), (FINE_STRUCTURE_ALPHA, 1.0, 1.0, (0.01, 0.99)),
    (0.05, 1.5, 1.0, (0.05, 0.5)), (0.08, 1.0, 2.0, (0.01, 0.99)), (0.02, 2.0, 1.5, (0.05, 0.5)),
    (0.1, 1.5, 1.5, (0.01, 0.99)),
    # s1 < 0: B changes sign on (0, 1) and the slope may too; the walk takes its first (-, +)
    (FINE_STRUCTURE_ALPHA, 0.45, 1.0, (0.01, 0.99)), (FINE_STRUCTURE_ALPHA, 0.45, 1.0, (0.05, 0.5)),
    (FINE_STRUCTURE_ALPHA, 0.35, 1.0, (0.01, 0.99)), (0.05, 0.45, 2.0, (0.01, 0.99)),
])
def test_minimize_equals_brentq_on_the_closed_form_slope(monkeypatch, alpha, j1, j2, bracket):
    # brentq on the bracket itself where its end slopes enclose the minimum, else on the
    # first (-, +) cell of numpy's grid; the slope from closed_form at every point
    brentq = pytest.importorskip("scipy.optimize").brentq
    slope = _slope(alpha, j1, j2)
    lo, hi = bracket
    walked = [] if slope(lo) < 0 < slope(hi) else _walk(slope, bracket)
    cell = ([lo] + walked)[-2:] if walked else bracket
    evaluated = []
    sigma0, root = brentq(lambda s: evaluated.append(s) or slope(s), *cell, xtol=1e-6,
                          full_output=True)
    calls = _counting_delta_e(monkeypatch)
    res = optimize.minimize_delta_e(bracket, alpha=alpha, j1=j1, j2=j2)
    # only slopes, one per sigma: lo and hi, the walk up to its cell (reusing the slope at
    # hi), then brentq inside the cell (reusing the cell's two end slopes)
    assert all(isinstance(s, complex) for s in calls)
    slopes = [s.real for s in calls]
    walk = [lo, hi, *(s for s in walked if s != hi)]
    assert slopes[:len(walk)] == walk
    assert sorted(slopes) == sorted({*walk, *evaluated})
    assert res.point.sigma == sigma0
    assert res.iterations == root.iterations
    assert res.point == spectrum.equilibrium_point(sigma0, alpha=alpha, j1=j1, j2=j2)


@pytest.mark.parametrize("alpha, j1, j2, bracket", [
    (FINE_STRUCTURE_ALPHA, 1.0, 1.0, (0.3, 0.9)), (FINE_STRUCTURE_ALPHA, 1.0, 1.0, (0.6, 0.99)),
    (FINE_STRUCTURE_ALPHA, 1.0, 1.0, (0.001, 0.1)), (0.08, 1.0, 2.0, (0.3, 0.9)),
    (FINE_STRUCTURE_ALPHA, 0.45, 1.0, (0.3, 0.9)), (FINE_STRUCTURE_ALPHA, 0.35, 1.0, (0.001, 0.1)),
    # 4 ulp wide: the 32 grid points round to 5 distinct sigmas
    (FINE_STRUCTURE_ALPHA, 1.0, 1.0, (0.3, 0.3 + 4 * math.ulp(0.3))),
])
def test_minimize_rejects_where_numpy_grid_has_no_interior_minimum(monkeypatch, alpha, j1, j2,
                                                                   bracket):
    grid = np.linspace(*bracket, 32)
    slope = _slope(alpha, j1, j2)
    slopes = [slope(s) for s in grid]
    # neither the bracket's end slopes nor those of any grid cell run (-, +)
    assert not any(a < 0 < b for a, b in [(slopes[0], slopes[-1]), *zip(slopes, slopes[1:])])
    _, values = _numpy_grid(alpha, j1, j2, bracket)
    assert not values[0] > values.min() < values[-1]
    calls = _counting_delta_e(monkeypatch)
    # the walk raises before brentq reads tol, so the finest tol the bracket allows will do
    with pytest.raises(optimize.NonUnimodalError, match="no interior minimum"):
        optimize.minimize_delta_e(bracket, tol=math.ulp(bracket[1]), alpha=alpha, j1=j1, j2=j2)
    # one slope per distinct grid sigma: a point that rounds to the one before it is skipped
    assert len(calls) == len(set(calls)) == len(set(grid.tolist()))


def test_walk_stops_at_the_first_rise_on_the_sweep_bracket(monkeypatch):
    # the slope at 0.99 is negative, past the maximum: no direct rule, but no full grid either;
    # the walk takes grid points 1 to 6 and stops at the (-, +) cell [grid[5], grid[6]]
    calls = _counting_delta_e(monkeypatch)
    assert optimize.minimize_delta_e((0.01, 0.99)).point.sigma == pytest.approx(SIGMA0_REF)
    grid = np.linspace(0.01, 0.99, 32).tolist()
    assert grid[5] < SIGMA0_REF < grid[6]
    assert [s.real for s in calls if s.real in grid[1:-1]] == grid[1:7]


@pytest.mark.parametrize("j1, k", [(1.0, 0), (1.0, 3), (0.45, 2)])
def test_walk_rejects_a_nan(monkeypatch, j1, k):
    # a NaN slope at lo or on the grid stops the walk and raises, as a NaN fails numpy's
    # (-, +) test, though the first (-, +) cell comes after it: grid points 5 to 6 (j1 = 1)
    # or 4 to 5 (j1 = 0.45)
    nan_at, walked = k * ((0.99 - 0.01) / 31) + 0.01, []

    def delta_e(cf):
        walked.append(cf.sigma.real)
        return complex(math.nan, math.nan) if cf.sigma.real == nan_at else spectrum.delta_e(cf)

    monkeypatch.setattr(optimize, "delta_e", delta_e)
    with pytest.raises(optimize.NonUnimodalError, match="no interior minimum"):
        optimize.minimize_delta_e((0.01, 0.99), j1=j1)
    assert nan_at in walked


def _stationary_points(sp, alpha, j1, j2):
    """Isolating intervals, ascending, of the stationary points of delta_e in (0, 1), each
    with the slope's sign on its left and right, for the exact rationals of the floats
    (alpha, s1, s2) the closed form is evaluated at."""
    s1, s2 = (sp.Rational(s) for s in radial.exponents(j1, j2, alpha))
    assert s1 > 0 and s2 > 0  # so B > 0 on (0, 1] and delta_e = N / (a^2 sqrt(P)) - (1 + s) / a^2
    a, x = sp.Rational(alpha), sp.Symbol("sigma")
    w = (1 - x) ** 2
    b = w * (s1 + sp.Rational(1, 2)) * s1 + 4 * x**3 * (s2 + sp.Rational(3, 2)) * s2
    d = 4 * a**2 * (1 + x) ** 2 * (w * s1**2 + 4 * x**4 * s2**2)
    n, p = sp.Poly(2 * a**2 * x * (1 + x) ** 2 + (1 + x) * b, x), sp.Poly(b**2 + d, x)
    g = 2 * n.diff(x) * p - n * p.diff(x)
    q = g**2 - 4 * p**3
    assert (n.degree(), p.degree(), q.degree()) == (4, 6, 18)

    def slope_sign(t):  # the slope (g - 2 P^(3/2)) / (2 a^2 P^(3/2)) is positive iff g > 0 < q
        return 1 if g.eval(t) > 0 and q.eval(t) > 0 else -1

    points = []
    for (left, right), multiplicity in q.intervals(inf=0, sup=1, eps=sp.Rational(1, 10**6)):
        assert multiplicity == 1 and 0 < left and right < 1
        if g.eval(left) > 0 and g.eval(right) > 0:  # g = 2 P^(3/2) > 0: not from the squaring
            points.append((left, right, (slope_sign(left), slope_sign(right))))
    return q, points


@pytest.mark.parametrize("j1, j2", list(itertools.product((1.0, 1.5, 2.0), repeat=2)))
@pytest.mark.parametrize("alpha", [FINE_STRUCTURE_ALPHA, 0.02, 0.05, 0.1])
def test_certificate_one_minimum_then_one_maximum_in_the_unit_interval(alpha, j1, j2):
    sp = pytest.importorskip("sympy")
    q, points = _stationary_points(sp, alpha, j1, j2)
    assert [signs for *_, signs in points] == [(-1, 1), (1, -1)]
    (min_lo, min_hi, *_), (max_lo, *_) = points
    # a bracket whose end slopes enclose the minimum: brentq starts on it directly
    bracket = (float(min_lo) / 2, float((min_hi + max_lo) / 2))
    tol = 1e-12
    sigma0 = optimize.minimize_delta_e(bracket, tol=tol, alpha=alpha, j1=j1, j2=j2).point.sigma
    left, right = q.refine_root(min_lo, min_hi, eps=sp.Rational(1, 10**30))
    bound = sp.Rational(tol) + 4 * sp.Rational(math.ulp(1.0)) * sp.Rational(sigma0)
    assert max(abs(sp.Rational(sigma0) - left), abs(sp.Rational(sigma0) - right)) <= bound


def test_minimize_rejects_non_unimodal_bracket():
    # the excess energy rises from 0.3 to its maximum near 0.6 and then falls: no interior minimum
    with pytest.raises(optimize.NonUnimodalError) as info:
        optimize.minimize_delta_e((0.3, 0.9), tol=1e-6)
    assert not isinstance(info.value, ParameterError)  # a numeric error, exit 3


def test_minimize_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        optimize.minimize_delta_e((0.05, 0.5), tol=0.0)
    # no sigma can be located more finely than one ulp of the larger bracket end
    for tol in (1e-20, math.ulp(0.5) / 2, math.nan):
        with pytest.raises(ValueError, match="tol"):
            optimize.minimize_delta_e((0.05, 0.5), tol=tol)


def test_minimize_tolerance_is_below_the_bracket_width():
    # a tol as wide as the bracket lets brentq return an end as the ground state
    width = 0.5 - 0.05
    for bracket in ((0.05, 0.5), (0.5, 0.05)):
        for tol in (width, 1e300, math.inf):
            with pytest.raises(ParameterError, match=r"^tol = .*: need tol < 0\.45, the bracket"):
                optimize.minimize_delta_e(bracket, tol=tol)
        # the widest tol the width check accepts lets brentq stop at hi: that raises too
        widest = math.nextafter(width, 0)
        optimize.check_parameters(FINE_STRUCTURE_ALPHA, 1.0, 1.0, bracket, widest)
        with pytest.raises(ParameterError, match=r"^tol = 0\.44999999999999996: the solve "
                           r"stopped at the bracket end sigma = 0\.5; need a smaller tol$"):
            optimize.minimize_delta_e(bracket, tol=widest)
    # a zero-width bracket is named as such, whatever the tol
    with pytest.raises(ParameterError, match="^sigma_min = 0.3: need sigma_min != sigma_max"):
        optimize.minimize_delta_e((0.3, 0.3), tol=math.inf)


@pytest.mark.parametrize("tol", [0.25, 0.3, 0.4, 0.44, 0.4499])
def test_minimize_never_returns_a_bracket_end(tol):
    # brentq may stop at lo = 0.05 once tol spans most of the bracket: no ground state there
    with pytest.raises(ParameterError, match=rf"^tol = {re.escape(repr(tol))}: the solve "
                       r"stopped at the bracket end sigma = 0\.05; need a smaller tol$"):
        optimize.minimize_delta_e((0.05, 0.5), tol=tol)


def test_minimize_terminates_at_the_tolerance_floor():
    floor = math.ulp(0.5)
    assert abs(optimize.minimize_delta_e((0.05, 0.5), tol=floor).point.sigma - SIGMA0_REF) <= floor


def test_minimize_validates_parameters():
    for kwargs in (dict(alpha=math.nan), dict(j2=0.0)):
        with pytest.raises(ValueError):
            optimize.minimize_delta_e((0.05, 0.5), **kwargs)
    with pytest.raises(ValueError, match="sigma"):
        optimize.minimize_delta_e((0.0, 0.5))


def test_check_parameters_with_tol_and_no_sigma_is_a_parameter_error():
    with pytest.raises(ParameterError, match="sigmas"):
        optimize.check_parameters(FINE_STRUCTURE_ALPHA, 1.0, 1.0, (), tol=1e-6)


def test_ion_limit_report_bounds_and_monotonicity():
    rows = zip(*optimize.ion_limit_report([1e-2, 1e-3, 1e-4]))
    limit = spectrum.ion_limit()
    gaps = []
    for (sigma, de), k in zip(rows, (2, 3, 4)):
        gap = abs(de - limit)
        assert gap <= 10.0 ** (-k + 1)
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]  # monotone approach
    assert limit == pytest.approx(-2.0, abs=2 * (1 / 137.0) ** 2 * 1.01)


def test_ion_limit_report_equals_closed_form_per_sigma():
    sigmas = [1e-2, 3e-3, 1e-4]
    columns = optimize.ion_limit_report(sigmas)
    assert [column.dtype for column in columns] == [np.float64, np.float64]
    rows = list(zip(*columns))
    assert [r[0] for r in rows] == sigmas
    for sigma, de in rows:
        assert de == pytest.approx(spectrum.delta_e(spectrum.closed_form(sigma)), rel=1e-15)


def test_ion_limit_report_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        optimize.ion_limit_report([0.0])


def test_ion_limit_report_rejects_empty_sequence():
    with pytest.raises(ValueError, match="sigmas"):
        optimize.ion_limit_report([])


def test_scan_neighbors_of_minimum_both_exceed():
    result = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    table = _scan(0.05, 0.5, 200)
    values = table.delta_e.tolist()
    imin = int(np.argmin(values))
    assert values[imin - 1] > result.point.delta_e
    assert values[imin + 1] > result.point.delta_e


@pytest.mark.parametrize("call", [
    pytest.param(lambda: optimize.scan_sigma(0.1, 0.5, 10, alpha=math.nan), id="scan-alpha"),
    pytest.param(lambda: optimize.scan_sigma(0.5, 0.1, 10), id="scan-order"),
    pytest.param(lambda: optimize.scan_sigma(0.1, 0.5, 1), id="scan-points"),
    pytest.param(lambda: optimize.minimize_delta_e((0.05, 0.5), tol=0.0), id="minimize-tol"),
    pytest.param(lambda: optimize.minimize_delta_e((0.0, 0.5)), id="minimize-sigma"),
    pytest.param(lambda: optimize.minimize_delta_e((0.05, 0.5), j2=0.0), id="minimize-j2"),
    pytest.param(lambda: optimize.ion_limit_report([]), id="ion-limit-empty"),
    pytest.param(lambda: ModelParams(sigma=1.5), id="params-sigma"),
    pytest.param(lambda: ModelParams(sigma=0.2, alpha=0.0), id="params-alpha"),
])
def test_out_of_domain_parameter_raises_parameter_error(call):
    with pytest.raises(ParameterError):
        call()
