import math

import numpy as np
import pytest

from hespinor import radial, spectrum
from hespinor.model import FINE_STRUCTURE_ALPHA, ModelParams, ParameterError

ALPHA = FINE_STRUCTURE_ALPHA
# frozen from the closed form at the default alpha, j1 = j2 = 1
DELTA_E_AT_01775 = -2.9058894089973757
RHO0_AT_01775 = 0.862601427602529
ION_LIMIT_REF = -2.0001065140541217


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
    # at s1 = 0, B = 4 sigma^3 (s2 + 3/2) s2 = 4e-180 is not 0, but B^2 underflows
    # to 0 and an array would divide by it silently
    sigma = np.array([1e-60])
    b = 4 * sigma**3 * (0.5 + 1.5) * 0.5
    assert b[0] != 0 and b[0] * b[0] == 0
    with pytest.raises(ZeroDivisionError):
        spectrum.c_params(sigma, 0.0, 0.5, 1e-10)


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


@pytest.mark.parametrize("alpha", [-0.1, 0.0, math.nan, math.inf])
def test_ion_limit_checks_alpha(alpha):
    # only alpha^2 enters, so -0.1 would return the value at +0.1; 0 would divide by zero
    with pytest.raises(ParameterError, match="^alpha"):
        spectrum.ion_limit(alpha, 1.0)


def test_rho0_frozen_value_and_radii_split():
    cf = spectrum.closed_form(0.1775)
    rho0 = spectrum.rho0_bohr(cf)
    assert rho0 == pytest.approx(RHO0_AT_01775, rel=1e-12)
    r10, r20 = spectrum.radii_bohr(cf)
    assert r10 == pytest.approx(0.1775 / 1.1775 * rho0, rel=1e-12)
    assert r20 == pytest.approx(rho0 / 1.1775, rel=1e-12)
    assert r10 == pytest.approx(0.130, abs=5e-4)
    assert r20 == pytest.approx(0.732, abs=7e-4)
    assert spectrum.rho0_natural(cf) == pytest.approx(rho0 / ALPHA, rel=1e-12)


def test_rho0_diverges_at_sigma_zero():
    cf = spectrum.closed_form(0.0)
    assert math.isinf(spectrum.rho0_bohr(cf))
    r10, r20 = spectrum.radii_bohr(cf)
    assert math.isinf(r20)
    assert math.isfinite(r10)  # sigma*rho0 stays finite


def test_energy_alpha_to_zero_reduces_to_rest_masses():
    sigma = 0.4
    cf = spectrum.c_params(sigma, 0.5, 0.5, alpha=1e-9)
    assert spectrum.energy_closed_form(cf) == pytest.approx(1 + sigma, rel=1e-12)


def test_energy_sigma_zero_is_hydrogen_like():
    # independent oracle: one-electron (charge 2) ground state sqrt(1-(2a)^2)
    cf = spectrum.closed_form(0.0)
    expected = math.sqrt(1 - (2 * ALPHA) ** 2)
    assert abs(spectrum.energy_closed_form(cf) - expected) <= 1e-12 * expected


def test_excess_energy_two_path_identity():
    rng = np.random.default_rng(42)
    for sigma in rng.uniform(0.01, 1.0, 20):
        cf = spectrum.closed_form(float(sigma))
        e_direct = spectrum.energy_closed_form(cf)
        e_rebuilt = (1 + sigma) + ALPHA**2 * spectrum.delta_e(cf)
        assert abs(e_rebuilt - e_direct) <= 1e-12 * e_direct
        # Hartree-direction comparison: limited by the rounding of E itself
        de_naive = (e_direct - (1 + sigma)) / ALPHA**2
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
    params_kw = dict(sigma=sigma, alpha=cf.alpha, j1=cf.j1, j2=cf.j2)
    from hespinor.model import ModelParams
    e_root = spectrum.energy_consistency_solve(sigma, rho, cf)
    h = sigma * cf.s2 / cf.s1
    res = radial.fundamental_residual(radial.fundamental_relation(ModelParams(**params_kw), rho, h),
                                      e_root)
    assert abs(res) <= 1e-12


def test_consistency_solver_sigma_zero():
    cf = spectrum.closed_form(0.0)
    e0 = spectrum.energy_consistency_solve(0.0, math.inf, cf)
    assert e0 == pytest.approx(math.sqrt(1 - 4 * ALPHA**2), rel=1e-14)


@pytest.mark.parametrize("j1", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("alpha", [ALPHA, 0.05, 0.2])
def test_one_electron_energy_agrees_on_every_route(alpha, j1):
    # closed form, consistency solve and ion limit all reduce to g1 / sqrt(g1^2 + 4 a^2)
    g1 = math.sqrt(j1 * j1 - 4 * alpha**2)
    expected = g1 / math.sqrt(g1 * g1 + 4 * alpha**2)
    cf = spectrum.closed_form(0.0, alpha=alpha, j1=j1, j2=j1)
    for energy in (spectrum.energy_closed_form(cf),
                   spectrum.energy_consistency_solve(0.0, math.inf, cf),
                   1 + alpha**2 * spectrum.ion_limit(alpha, j1)):
        assert energy == pytest.approx(expected, rel=1e-14)


def test_consistency_solver_reports_no_root():
    import dataclasses
    cf = spectrum.closed_form(0.3)
    # h = sigma s2 / s1 = -5: a negative ratio flips the relation's sign
    broken = dataclasses.replace(cf, s2=-5 * cf.s1 / 0.3)
    with pytest.raises(spectrum.NoRootInBracketError):
        spectrum.energy_consistency_solve(0.3, spectrum.rho0_natural(cf), broken)


def test_alternative_denominators_disagree():
    table = spectrum.arbitration_table(np.linspace(0.06, 0.49, 10))
    assert table["default"] <= 1e-9
    assert table["alt-weight"] > 1e-6
    assert table["alt-shift"] > 1e-6


def test_squared_reading_selected():
    table = spectrum.arbitration_table(np.linspace(0.06, 0.49, 10))
    assert table["squared"] <= 1e-9
    assert table["unsquared"] > 1e-6


def test_tables_equal_per_sigma_loops_with_one_closed_form_per_sigma(monkeypatch):
    sigmas = np.linspace(0.06, 0.49, 10)
    closed_form, calls = spectrum.closed_form, []
    monkeypatch.setattr(spectrum, "closed_form", lambda s: calls.append(s) or closed_form(s))
    table = spectrum.arbitration_table(sigmas)
    assert len(calls) == len(sigmas)
    assert list(table) == [*radial.FUNDAMENTAL_DENOMINATORS, "squared", "unsquared"]
    for variant in radial.FUNDAMENTAL_DENOMINATORS:
        errs = []
        for sigma in sigmas:
            cf = closed_form(sigma)
            e_ref = spectrum.energy_closed_form(cf)
            e_root = spectrum.energy_consistency_solve(sigma, spectrum.rho0_natural(cf), cf, variant)
            errs.append(abs(e_root - e_ref) / abs(e_ref))
        assert table[variant] == max(errs)
    for key, squared in (("squared", True), ("unsquared", False)):
        errs = []
        for sigma in sigmas:
            cf = closed_form(sigma)
            e_ref = spectrum.energy_closed_form(cf)
            e_lit = spectrum.energy_shifted_literal(cf, spectrum.rho0_natural(cf), squared=squared)
            errs.append(abs(e_lit - e_ref) / abs(e_ref))
        assert table[key] == max(errs)


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


def test_complex_sigma_slope_matches_50_digit_derivative():
    mp = pytest.importorskip("mpmath")
    step = mp.mpf(10) ** -20
    for sigma in np.linspace(0.01, 0.99, 25).tolist():
        slope = spectrum.delta_e(spectrum.closed_form(sigma + 1e-30j)).imag / 1e-30
        with mp.workdps(50):
            ref = float((_mp_delta_e(mp.mpf(sigma) + step, ALPHA)
                         - _mp_delta_e(mp.mpf(sigma) - step, ALPHA)) / (2 * step))
        assert abs(slope - ref) <= 1e-12 * max(abs(ref), 1.0)


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


def test_mpmath_sigma_takes_the_float_path():
    mp = pytest.importorskip("mpmath")
    value = spectrum.delta_e(spectrum.closed_form(mp.mpf(0.1775)))
    assert isinstance(value, mp.mpf)
    assert float(value) == pytest.approx(spectrum.delta_e(spectrum.closed_form(0.1775)), rel=1e-15)
    with pytest.raises(ZeroDivisionError):
        spectrum.c_params(mp.mpf(0), 0.0, 0.5, alpha=ALPHA)



def _recorded(f, calls):
    def wrapper(x):
        calls.append(x)
        return f(x)
    return wrapper


def test_brentq_equals_scipy_bit_for_bit():
    # root, step count and every evaluated x, on the minimizer's slopes and the consistency residuals
    scipy_brentq = pytest.importorskip("scipy.optimize").brentq

    def both(f, lo, hi, **tols):
        ours, theirs = [], []
        root, iterations = spectrum.brentq(_recorded(f, ours), lo, hi, **tols)
        ref, info = scipy_brentq(_recorded(f, theirs), lo, hi, full_output=True, **tols)
        assert (root, iterations, ours) == (ref, info.iterations, theirs)

    solves = 0
    for alpha in (ALPHA, 0.02, 0.05, 0.1):
        for j1 in (1.0, 1.5, 2.0):
            for j2 in (1.0, 1.5, 2.0):
                s1, s2 = radial.exponents(j1, j2, alpha)

                def slope(sigma):
                    return spectrum.delta_e(spectrum.c_params(sigma + 1e-30j, s1, s2, alpha,
                                                              j1=j1, j2=j2)).imag / 1e-30

                for bracket in ((0.05, 0.5), (0.01, 0.99)):
                    grid = np.linspace(*bracket, 32)
                    k = int(np.argmin(spectrum.delta_e(spectrum.c_params(grid, s1, s2, alpha))))
                    for tol in (1e-6, 1e-9, 1e-12):
                        both(slope, grid[k - 1], grid[k + 1], xtol=tol)
                        solves += 1
    for variant in radial.FUNDAMENTAL_DENOMINATORS:
        for sigma in np.linspace(0.002, 0.998, 500).tolist():
            cf = spectrum.closed_form(sigma)
            rho = spectrum.rho0_natural(cf)
            relation = radial.fundamental_relation(ModelParams(sigma=sigma), rho,
                                                   sigma * cf.s2 / cf.s1, variant)
            coulomb = (1 + sigma) * ALPHA / rho
            both(lambda e: radial.fundamental_residual(relation, e),
                 coulomb + 1e-12, (1 + sigma) + coulomb - 1e-12, xtol=1e-15)
            solves += 1
    # values so small that the extrapolation divisor underflows to 0: scipy bisects there
    for f, lo, hi in ((lambda x: 1e-160 * (x**3 - 0.2), 0.0, 1.0),
                      (lambda x: 1e-170 * (math.exp(x) - 2), 0.0, 2.0)):
        both(f, lo, hi, xtol=1e-12)
        solves += 1
    assert solves == 216 + 1500 + 2


def test_brentq_root_at_a_bracket_end_takes_no_step():
    assert spectrum.brentq(lambda x: x - 0.5, 0.5, 1.0, xtol=1e-12) == (0.5, 0)
    assert spectrum.brentq(lambda x: x - 1.0, 0.5, 1.0, xtol=1e-12) == (1.0, 0)


def test_brentq_same_sign_ends_raise_no_root_in_bracket():
    with pytest.raises(spectrum.NoRootInBracketError) as info:
        spectrum.brentq(lambda x: x * x + 1, -1.0, 2.0, xtol=1e-12)
    assert str(info.value) == ("residual has the same sign at both bracket ends: "
                               "f(-1) = 2.000e+00, f(2) = 5.000e+00")


def test_brentq_nan_value_raises_value_error():
    with pytest.raises(ValueError, match="NaN") as info:
        spectrum.brentq(lambda x: math.nan if x > 0.9 else x - 0.7, 0.5, 1.0, xtol=1e-12)
    assert not isinstance(info.value, spectrum.NoRootInBracketError)


def test_brentq_gives_up_after_100_steps():
    # a sign step at 0 bisects toward it: reaching xtol = 1e-300 would take about 1000 steps
    calls = []
    with pytest.raises(ValueError, match="did not converge in 100 steps"):
        spectrum.brentq(_recorded(lambda x: -1.0 if x <= 0 else 1.0, calls), -1.0, 1.0,
                        xtol=1e-300)
    assert len(calls) == 2 + 100
