import math

import numpy as np
import pytest

from hespinor import optimize, spectrum

# frozen from a tight (1e-12) golden-section run at the default constants
SIGMA0_REF = 0.1771164394098163
DELTA_E_MIN_REF = -2.9058986787222714


def test_scan_config_validation():
    with pytest.raises(ValueError):
        optimize.ScanConfig(sigma_min=0.5, sigma_max=0.1, n_points=10)
    with pytest.raises(ValueError):
        optimize.ScanConfig(sigma_min=0.1, sigma_max=0.5, n_points=1)
    bad = [("alpha", dict(alpha=-1.0)), ("alpha", dict(alpha=math.nan)),
           ("alpha", dict(alpha=math.inf)), ("alpha", dict(alpha=0.0)),
           ("j1", dict(j1=0.001)), ("j2", dict(j2=math.nan)), ("mass", dict(m=0.0)),
           ("mass", dict(m=math.inf)), ("points", dict(n_points=0)),
           ("sigma", dict(sigma_min=0.0)), ("sigma", dict(sigma_max=1.5))]
    for name, override in bad:
        kwargs = dict(dict(sigma_min=0.1, sigma_max=0.5, n_points=10), **override)
        with pytest.raises(ValueError, match=name):
            optimize.ScanConfig(**kwargs)


def test_scan_rows_ascending_and_counted():
    rows = optimize.scan_sigma(optimize.ScanConfig(0.01, 0.5, 50))
    assert len(rows) == 50
    sigmas = [r.sigma for r in rows]
    assert sigmas == sorted(sigmas)
    assert sigmas[0] == pytest.approx(0.01) and sigmas[-1] == pytest.approx(0.5)


def test_scan_two_points_endpoints_only():
    rows = optimize.scan_sigma(optimize.ScanConfig(0.1, 0.3, 2))
    assert [r.sigma for r in rows] == [pytest.approx(0.1), pytest.approx(0.3)]


def test_scan_first_point_near_ion_limit():
    rows = optimize.scan_sigma(optimize.ScanConfig(0.01, 0.5, 50))
    assert abs(rows[0].delta_e - (-2.0)) < 0.1


def test_scan_single_well_shape():
    rows = optimize.scan_sigma(optimize.ScanConfig(0.01, 0.5, 50))
    values = np.array([r.delta_e for r in rows])
    diffs = np.sign(np.diff(values))
    # strictly decreasing then strictly increasing: exactly one sign change
    changes = np.count_nonzero(np.diff(diffs) != 0)
    assert changes == 1
    imin = int(np.argmin(values))
    assert 0 < imin < len(values) - 1
    assert 0.15 < rows[imin].sigma < 0.21
    assert values[imin - 1] > values[imin] < values[imin + 1]


def test_minimize_defaults_hits_reference_window():
    result = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    pt = result.point
    assert 0.1765 <= pt.sigma <= 0.1785
    assert -2.911 <= pt.delta_e <= -2.901
    assert pt.sigma == pytest.approx(SIGMA0_REF, abs=2e-6)
    assert pt.delta_e == pytest.approx(DELTA_E_MIN_REF, abs=1e-9)
    assert result.tolerance_achieved <= 1e-6
    assert result.bracket[0] <= pt.sigma <= result.bracket[1]
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
    # root of d(delta_e)/d(sigma) at the default constants, to 50 digits
    result = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    assert abs(result.point.sigma - 0.17711646742155152) <= 1e-6


def test_minimize_rejects_non_unimodal_bracket():
    # the excess energy is increasing on (0.3, 0.9): no interior minimum
    with pytest.raises(optimize.NonUnimodalError):
        optimize.minimize_delta_e((0.3, 0.9), tol=1e-6)


def test_minimize_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        optimize.minimize_delta_e((0.05, 0.5), tol=0.0)
    # golden section cannot shrink the bracket below one ulp of its larger end
    for tol in (1e-20, math.ulp(0.5) / 2, math.nan):
        with pytest.raises(ValueError, match="tol"):
            optimize.minimize_delta_e((0.05, 0.5), tol=tol)


def test_minimize_terminates_at_the_tolerance_floor():
    floor = math.ulp(0.5)
    assert optimize.minimize_delta_e((0.05, 0.5), tol=floor).tolerance_achieved <= floor


def test_minimize_validates_parameters():
    for kwargs in (dict(alpha=math.nan), dict(m=-1.0), dict(j2=0.0)):
        with pytest.raises(ValueError):
            optimize.minimize_delta_e((0.05, 0.5), **kwargs)
    with pytest.raises(ValueError, match="sigma"):
        optimize.minimize_delta_e((0.0, 0.5))


def test_ion_limit_report_bounds_and_monotonicity():
    rows = optimize.ion_limit_report([1e-2, 1e-3, 1e-4])
    limit = spectrum.ion_limit()
    gaps = []
    for (sigma, de), k in zip(rows, (2, 3, 4)):
        gap = abs(de - limit)
        assert gap <= 10.0 ** (-k + 1)
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]  # monotone approach
    assert limit == pytest.approx(-2.0, abs=2 * (1 / 137.0) ** 2 * 1.01)


def test_ion_limit_report_empty_sequence():
    assert optimize.ion_limit_report([]) == []


def test_ion_limit_report_equals_closed_form_per_sigma():
    sigmas = [1e-2, 3e-3, 1e-4]
    rows = optimize.ion_limit_report(sigmas)
    assert [r[0] for r in rows] == sigmas
    for sigma, de in rows:
        assert type(de) is float
        assert de == pytest.approx(spectrum.delta_e(spectrum.closed_form(sigma)), rel=1e-15)


def test_ion_limit_report_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        optimize.ion_limit_report([0.0])


def test_scan_neighbors_of_minimum_both_exceed():
    result = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    rows = optimize.scan_sigma(optimize.ScanConfig(0.05, 0.5, 200))
    values = [r.delta_e for r in rows]
    imin = int(np.argmin(values))
    assert values[imin - 1] > result.point.delta_e
    assert values[imin + 1] > result.point.delta_e
