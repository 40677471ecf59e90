import math

import numpy as np
import pytest

from hespinor import radial, spectrum
from hespinor.operators import FINE_STRUCTURE_ALPHA

ALPHA = FINE_STRUCTURE_ALPHA
S1_REF = 0.4998934916189415
# frozen from the closed form at the default alpha, j1 = j2 = 1
DELTA_E_AT_01775 = -2.9058894089973757
RHO0_AT_01775 = 0.862601427602529
ION_LIMIT_REF = -2.0001065140541217


def test_h_ratio_cases():
    assert spectrum.h_ratio(0.0, 0.5, 0.5) == 0.0
    assert spectrum.h_ratio(0.37, 0.5, 0.5) == pytest.approx(0.37, rel=1e-15)
    assert spectrum.h_ratio(0.1775, S1_REF, S1_REF) == pytest.approx(0.1775, rel=1e-15)
    with pytest.raises(ZeroDivisionError):
        spectrum.h_ratio(0.3, 0.0, 0.5)


def test_c_params_sigma_zero_identity():
    # C2(0) = sqrt(1 + 4 a^2/(s1+1/2)^2) = 1/sqrt(1 - 4 a^2) for j1 = 1
    cf = spectrum.closed_form(0.0)
    assert cf.c2 == pytest.approx(1.0 / math.sqrt(1 - 4 * ALPHA**2), rel=1e-14)


def test_c_params_alpha_zero():
    cf = spectrum.c_params(0.3, 0.5, 0.5, alpha=0.0)
    assert cf.c2 == 1.0
    assert cf.c1 == pytest.approx(abs(cf.bracket), rel=1e-15)


def test_c1_equals_bracket_times_c2():
    rng = np.random.default_rng(3)
    for sigma in rng.uniform(0.01, 1.0, 25):
        cf = spectrum.closed_form(float(sigma))
        assert abs(cf.c1 - cf.bracket * cf.c2) <= 1e-12 * cf.c1


def test_c_params_zero_bracket_rejected():
    with pytest.raises(ZeroDivisionError):
        spectrum.c_params(0.0, 0.0, 0.5, alpha=ALPHA)


def test_delta_e_frozen_reference_value():
    cf = spectrum.closed_form(0.1775)
    assert spectrum.delta_e(cf) == pytest.approx(DELTA_E_AT_01775, rel=1e-12)


def test_delta_e_sigma_to_zero_limit():
    assert spectrum.ion_limit() == pytest.approx(ION_LIMIT_REF, rel=1e-14)
    # -2 at leading order, -2 - 2 alpha^2 at next order
    assert spectrum.ion_limit() == pytest.approx(-2 - 2 * ALPHA**2, abs=1e-7)
    for k in (2, 3, 4):
        cf = spectrum.closed_form(10.0 ** (-k))
        assert abs(spectrum.delta_e(cf) - ION_LIMIT_REF) <= 10.0 ** (-k + 1)


def test_delta_e_alpha_zero_branch():
    cf = spectrum.c_params(0.3, 0.5, 0.5, alpha=0.0)
    assert spectrum.delta_e(cf) == pytest.approx(2 * 0.3 * 1.3**2 / cf.bracket, rel=1e-15)


def test_rho0_frozen_value_and_radii_split():
    cf = spectrum.closed_form(0.1775)
    rho0 = spectrum.rho0_bohr(cf)
    assert rho0 == pytest.approx(RHO0_AT_01775, rel=1e-12)
    r10, r20 = spectrum.radii_bohr(cf)
    assert r10 == pytest.approx(0.1775 / 1.1775 * rho0, rel=1e-12)
    assert r20 == pytest.approx(rho0 / 1.1775, rel=1e-12)
    assert r10 == pytest.approx(0.130, abs=5e-4)
    assert r20 == pytest.approx(0.732, abs=7e-4)
    assert spectrum.rho0_natural(cf) == pytest.approx(rho0 / (cf.m * ALPHA), rel=1e-12)


def test_rho0_diverges_at_sigma_zero():
    cf = spectrum.closed_form(0.0)
    assert math.isinf(spectrum.rho0_bohr(cf))
    r10, r20 = spectrum.radii_bohr(cf)
    assert math.isinf(r20)
    assert math.isfinite(r10)  # sigma*rho0 stays finite


def test_energy_alpha_to_zero_reduces_to_rest_masses():
    sigma = 0.4
    cf = spectrum.c_params(sigma, 0.5, 0.5, alpha=1e-9)
    assert spectrum.energy_closed_form(cf) == pytest.approx((1 + sigma) * cf.m, rel=1e-12)


def test_energy_sigma_zero_is_hydrogen_like():
    # independent oracle: one-electron (charge 2) ground state m sqrt(1-(2a)^2)
    cf = spectrum.closed_form(0.0)
    expected = cf.m * math.sqrt(1 - (2 * ALPHA) ** 2)
    assert abs(spectrum.energy_closed_form(cf) - expected) <= 1e-12 * expected


def test_excess_energy_two_path_identity():
    rng = np.random.default_rng(42)
    for sigma in rng.uniform(0.01, 1.0, 20):
        cf = spectrum.closed_form(float(sigma))
        e_direct = spectrum.energy_closed_form(cf)
        e_rebuilt = (1 + sigma) * cf.m + cf.m * ALPHA**2 * spectrum.delta_e(cf)
        assert abs(e_rebuilt - e_direct) <= 1e-12 * e_direct
        # Hartree-direction comparison: limited by the rounding of E itself
        de_naive = (e_direct - (1 + sigma) * cf.m) / (cf.m * ALPHA**2)
        assert de_naive == pytest.approx(spectrum.delta_e(cf), rel=1e-10)


def test_consistency_solver_matches_closed_form():
    for sigma in np.linspace(0.06, 0.49, 10):
        cf = spectrum.closed_form(float(sigma))
        e_ref = spectrum.energy_closed_form(cf)
        e_root = spectrum.energy_consistency_solve(float(sigma), spectrum.rho0_natural(cf), cf)
        assert abs(e_root - e_ref) <= 1e-6 * e_ref


def test_consistency_solver_residual_at_root():
    sigma = 0.1775
    cf = spectrum.closed_form(sigma)
    rho = spectrum.rho0_natural(cf)
    params_kw = dict(sigma=sigma, alpha=cf.alpha, m=cf.m, j1=cf.j1, j2=cf.j2)
    from hespinor.operators import ModelParams
    e_root = spectrum.energy_consistency_solve(sigma, rho, cf)
    res = radial.fundamental_residual(ModelParams(**params_kw), e_root, rho, cf.h)
    assert abs(res) <= 1e-12 * cf.m


def test_consistency_solver_sigma_zero():
    cf = spectrum.closed_form(0.0)
    e0 = spectrum.energy_consistency_solve(0.0, math.inf, cf)
    assert e0 == pytest.approx(cf.m * math.sqrt(1 - 4 * ALPHA**2), rel=1e-14)


def test_consistency_solver_reports_no_root():
    import dataclasses
    cf = spectrum.closed_form(0.3)
    broken = dataclasses.replace(cf, h=-5.0)  # negative ratio flips the relation's sign
    with pytest.raises(spectrum.NoRootInBracketError):
        spectrum.energy_consistency_solve(0.3, spectrum.rho0_natural(cf), broken)


def test_alternative_denominators_disagree():
    table = spectrum.consistency_table(np.linspace(0.06, 0.49, 10))
    assert table["default"] <= 1e-9
    assert table["alt-weight"] > 1e-6
    assert table["alt-shift"] > 1e-6


def test_squared_reading_selected():
    table = spectrum.squared_reading_table(np.linspace(0.06, 0.49, 10))
    assert table[True] <= 1e-9
    assert table[False] > 1e-6


def test_literal_energy_relation_squared_equals_closed_form():
    cf = spectrum.closed_form(0.1775)
    rho = spectrum.rho0_natural(cf)
    e_lit = spectrum.energy_shifted_literal(cf, rho, squared=True)
    assert e_lit == pytest.approx(spectrum.energy_closed_form(cf), rel=1e-14)


def test_equilibrium_point_geometry_identities():
    for sigma in np.linspace(0.01, 1.0, 40):
        pt = spectrum.equilibrium_point(float(sigma))
        assert abs(pt.rho0 - (pt.r10 + pt.r20)) <= 1e-12 * pt.rho0
        assert abs(pt.r10 - pt.sigma * pt.r20) <= 1e-12 * max(pt.r10, 1e-300)
        assert pt.r10 == pytest.approx(pt.sigma / (1 + pt.sigma) * pt.rho0, rel=1e-12)
        assert pt.r20 == pytest.approx(pt.rho0 / (1 + pt.sigma), rel=1e-12)


def _mp_delta_e(sigma, alpha, digits=50):
    """The closed-form excess energy in mpmath arithmetic, binary64 inputs taken exactly."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(digits):
        s, a = mp.mpf(sigma), mp.mpf(alpha)
        s1 = s2 = -mp.mpf(1) / 2 + mp.sqrt(1 - 4 * a**2)
        b = (1 - s) ** 2 * (s1 + mp.mpf(1) / 2) * s1 + 4 * s**3 * (s2 + mp.mpf(3) / 2) * s2
        d = 4 * a**2 * (1 + s) ** 2 * ((1 - s) ** 2 * s1**2 + 4 * s**4 * s2**2)
        c2 = mp.sqrt(1 + d / (b * b))
        return 2 * s * (1 + s) ** 2 / mp.sqrt(b * b + d) + (1 + s) * (1 - c2) / (c2 * a**2)


def test_delta_e_matches_50_digit_oracle():
    pytest.importorskip("mpmath")
    sigmas = np.linspace(0.01, 0.99, 400)
    batch = spectrum.delta_e(spectrum.closed_form(sigmas))
    for sigma, de_batch in zip(sigmas.tolist(), batch.tolist()):
        ref = float(_mp_delta_e(sigma, ALPHA))
        scale = max(abs(ref), 1.0)
        assert abs(spectrum.delta_e(spectrum.closed_form(sigma)) - ref) <= 1e-13 * scale
        assert abs(de_batch - ref) <= 1e-13 * scale


def test_c2sq_minus_1_is_exact_d_over_b_squared():
    cf = spectrum.closed_form(0.1775)
    assert cf.c2 ** 2 - 1 == pytest.approx(cf.c2sq_minus_1, rel=1e-11)


def test_array_sigma_zero_gives_infinite_outer_radius():
    with np.errstate(divide="ignore"):
        cf = spectrum.closed_form(np.array([0.0, 0.2]))
        r10, r20 = spectrum.radii_bohr(cf)
        rho0 = spectrum.rho0_bohr(cf)
    assert np.isinf(r20[0]) and np.isinf(rho0[0])
    assert r10[0] == spectrum.radii_bohr(spectrum.closed_form(0.0))[0]
    assert np.isfinite(r20[1])


def test_array_zero_bracket_rejected():
    with pytest.raises(ZeroDivisionError):
        spectrum.c_params(np.array([0.5, 0.0]), 0.0, 0.5, alpha=ALPHA)

