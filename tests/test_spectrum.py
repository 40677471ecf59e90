import math
from functools import partial

import numpy as np
import pytest

from hespinor import model, radial, spectrum
from hespinor.model import FINE_STRUCTURE_ALPHA, J_MAX, ParameterError

ALPHA = FINE_STRUCTURE_ALPHA
# frozen from the closed form at the default alpha, j1 = j2 = 1
DELTA_E_AT_01775 = -2.9058894089973757
RHO0_AT_01775 = 0.862601427602529
# -4 / (1 + sqrt(1 - 4 alpha^2)) at 50 digits, rounded to the nearest float
ION_LIMIT_REF = -2.0001065140533782


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
    with pytest.raises(ZeroDivisionError, match=r"B\^2 of the shape bracket is 0"):
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


@pytest.mark.parametrize("alpha", [-0.1, 0.0, math.nan, math.inf, 1e-200,
                                   math.nextafter(2.0**-511, 0)])
def test_ion_limit_checks_alpha(alpha):
    # only alpha^2 enters, so -0.1 would return the value at +0.1; 0 would divide by zero
    with pytest.raises(ParameterError, match="^alpha"):
        spectrum.ion_limit(alpha, 1.0)


OUT_OF_DOMAIN = ([("alpha", alpha) for alpha in (math.nan, math.inf, -0.1, 0.0, 1e-200,
                                                  math.nextafter(2.0**-511, 0))]
                 + [(name, j) for name in ("j1", "j2")
                    for j in (math.nan, math.inf, 1e300, math.nextafter(J_MAX, math.inf), 0.001)])


def _exponents(sigma, alpha=ALPHA, j1=1.0, j2=1.0):
    return model.exponents(j1, j2, alpha)


@pytest.mark.parametrize("name, value", OUT_OF_DOMAIN)
@pytest.mark.parametrize("sigma", [0.3, np.array([0.1, 0.3])], ids=["float", "array"])
@pytest.mark.parametrize("call", [spectrum.closed_form, spectrum.equilibrium_point, _exponents],
                         ids=["closed_form", "equilibrium_point", "exponents"])
def test_closed_form_checks_its_domain(call, sigma, name, value):
    # a ParameterError naming the parameter, not NaN or inf values (or numpy's RuntimeWarning)
    with pytest.raises(ParameterError, match=f"^{name} = "):
        call(sigma, **{name: value})


def test_exponents_finite_at_the_domain_edges():
    for j1, j2, alpha in ((1.0, 1.0, 2.0**-511), (J_MAX, -J_MAX, ALPHA), (J_MAX, J_MAX, 2.0**-511)):
        assert all(map(math.isfinite, model.exponents(j1, j2, alpha)))


def _exponent_transcription(j, alpha):
    """s = ((j - 1/2)(j + 1/2) - 4 a^2) / (1/2 + sqrt(j^2 - 4 a^2)), with an int 4."""
    four_a2 = 4 * alpha * alpha
    return ((j - 0.5) * (j + 0.5) - four_a2) / (0.5 + math.sqrt(j * j - four_a2))


@pytest.mark.parametrize("alpha", [2.0**-511, ALPHA, 0.05, 0.1, 0.2, 2.0**252])
def test_exponents_are_bit_for_bit_their_transcription(alpha):
    # j = 1/2 + 10^-k approaches the cancelling edge; 2 alpha and the floats above it, J_MAX
    # and the float above it bound the domain, which the transcription's test decides
    js = ([0.5] + [0.5 + 10.0**-k for k in range(1, 17)] + [0.626, 1.0, 1.5, 2.0, J_MAX,
          math.nextafter(J_MAX, math.inf), 2 * alpha, math.nextafter(2 * alpha, math.inf),
          math.nextafter(math.nextafter(2 * alpha, math.inf), math.inf)])
    js += [-j for j in js]
    inside = 0
    for j1 in js:
        for j2 in js:
            if all(4 * alpha * alpha < j * j <= J_MAX * J_MAX for j in (j1, j2)):
                got = model.exponents(j1, j2, alpha)
                want = (_exponent_transcription(j1, alpha), _exponent_transcription(j2, alpha))
                assert [s.hex() for s in got] == [s.hex() for s in want], (j1, j2)
                inside += 1
            else:
                with pytest.raises(ParameterError):
                    model.exponents(j1, j2, alpha)
    assert inside > 0


def test_exponents_of_an_int_alpha_past_the_float_range_name_j1():
    with pytest.raises(ParameterError, match="^j1 = 1.0: need j1"):
        model.exponents(1.0, 1.0, 10**400)


def test_rho0_frozen_value_and_radii_split():
    cf = spectrum.closed_form(0.1775)
    rho0 = spectrum.equilibrium_point(0.1775).rho0
    assert rho0 == pytest.approx(RHO0_AT_01775, rel=1e-12)
    r10, r20 = spectrum.radii_bohr(cf)
    assert r10 == pytest.approx(0.1775 / 1.1775 * rho0, rel=1e-12)
    assert r20 == pytest.approx(rho0 / 1.1775, rel=1e-12)
    assert r10 == pytest.approx(0.130, abs=5e-4)
    assert r20 == pytest.approx(0.732, abs=7e-4)
    assert spectrum.rho0_natural(cf) == pytest.approx(rho0 / ALPHA, rel=1e-12)


def test_rho0_diverges_at_sigma_zero():
    cf = spectrum.closed_form(0.0)
    assert math.isinf(sum(spectrum.radii_bohr(cf)))
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


@pytest.mark.parametrize("alpha", [1e-7, 1e-9, 1e-12, 1e-100, 2.0**-511, ALPHA, 0.1, 0.3])
def test_consistency_root_equals_closed_form_to_4_ulp(alpha):
    # the shift's bracket [0, 1+sigma] is exact, so the root holds at any alpha, however
    # close to the bracket end (1+sigma) - X ~ alpha^2 |delta_e| puts it
    for j1, j2 in ((1.0, 1.0), (1.5, 2.0), (2.0, 1.5)):
        for sigma in (0.0, model.SIGMA_MIN, 1e-8, 0.2, 0.9, 1.0):
            cf = spectrum.closed_form(sigma, alpha, j1, j2)
            e_ref = spectrum.energy_closed_form(cf)
            e_root = spectrum.energy_consistency_solve(sigma, spectrum.rho0_natural(cf), cf)
            assert abs(e_root - e_ref) <= 4 * math.ulp(1.0) * e_ref, (j1, j2, sigma)


def test_consistency_solver_residual_at_root():
    sigma = 0.1775
    cf = spectrum.closed_form(sigma)
    rho = spectrum.rho0_natural(cf)
    relation = radial.fundamental_relation(cf, rho)
    shift = spectrum.energy_consistency_solve(sigma, rho, cf) - relation[1]
    assert abs(radial.fundamental_residual(relation, shift)) <= 1e-12


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
    cf = spectrum.closed_form(0.3)
    # a negative s1 makes h = sigma s2 / s1 negative, which flips the relation's sign
    broken = cf._replace(s1=-cf.s1)
    with pytest.raises(spectrum.NoRootInBracketError):
        spectrum.energy_consistency_solve(0.3, spectrum.rho0_natural(cf), broken)


@pytest.mark.parametrize("alpha, j1, j2", [(ALPHA, 1.5, 1.5), (0.05, 1.0, 2.0), (0.1, 2.0, 1.5)])
def test_consistency_root_reads_the_exponents_from_the_record(alpha, j1, j2):
    # a record built from the exponents alone carries the same relation as one built from j1, j2
    for sigma in (0.06, 0.1775, 0.3, 0.49):
        by_j = spectrum.closed_form(sigma, alpha, j1, j2)
        by_exponents = spectrum.c_params(sigma, *model.exponents(j1, j2, alpha), alpha)
        rho = spectrum.rho0_natural(by_j)
        root = spectrum.energy_consistency_solve(sigma, rho, by_exponents)
        assert root == spectrum.energy_consistency_solve(sigma, rho, by_j)
        assert abs(root - spectrum.energy_closed_form(by_j)) <= 1e-12


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
        rho0 = r10 + r20
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



def _closed_form_transcription(sigma, s1, s2, alpha):
    """(B, C1, C2, D/B^2, delta_e), the closed form's expressions written out
    here term by term, each (1 - sigma) and (1 + sigma) where it is used."""
    w = (1 - sigma) * (1 - sigma)
    cube = sigma * sigma * sigma
    b = w * (s1 + 0.5) * s1 + 4 * cube * (s2 + 1.5) * s2
    bb = b * b
    d = 4 * alpha**2 * (1 + sigma) * (1 + sigma) * (w * s1**2 + 4 * cube * sigma * s2**2)
    c2sq_minus_1 = d / bb
    c1, c2 = (bb + d) ** 0.5, (1 + c2sq_minus_1) ** 0.5
    excess = (2 * sigma * (1 + sigma) * (1 + sigma) / c1
              - (1 + sigma) * c2sq_minus_1 / ((1 + c2) * c2 * alpha**2))
    return b, c1, c2, c2sq_minus_1, excess


def _bits(x):
    if isinstance(x, np.ndarray):
        return [v.hex() for v in x.tolist()]
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return x.hex()
    return x._mpf_  # an mpmath mpf: sign, mantissa, exponent and bit count


def _sigmas(kind):
    grid = np.linspace(1e-6, 1, 97).tolist()
    if kind == "float":
        return grid
    if kind == "complex step":
        return [s + 1e-30j for s in grid]
    if kind == "float64 array":
        return [np.linspace(1e-6, 1, 4097)]
    return list(map(pytest.importorskip("mpmath").mpf, grid))


@pytest.mark.parametrize("kind", ["float", "complex step", "float64 array", "mpmath"])
@pytest.mark.parametrize("alpha, j1, j2", [(ALPHA, 1.0, 1.0), (0.05, 1.5, 2.0), (0.1, 2.0, 1.0)])
def test_closed_form_is_bit_for_bit_its_transcription(alpha, j1, j2, kind):
    s1, s2 = model.exponents(j1, j2, alpha)
    for sigma in _sigmas(kind):
        cf = spectrum.c_params(sigma, s1, s2, alpha)
        got = (cf.bracket, cf.c1, cf.c2, cf.c2sq_minus_1, spectrum.delta_e(cf))
        want = _closed_form_transcription(sigma, s1, s2, alpha)
        assert list(map(_bits, got)) == list(map(_bits, want)), sigma


def _geometry_transcription(sigma, alpha, c1, c2):
    """(r10, r20, energy), the closed form's expressions written out here term by
    term, each (1 + sigma) where it is used."""
    r10 = c1 / (2 * (1 + sigma) * (1 + sigma))
    energy = 2 * sigma * alpha**2 * (1 + sigma) * (1 + sigma) / c1 + (1 + sigma) / c2
    return r10, r10 / sigma, energy


@pytest.mark.parametrize("kind", ["float", "float64 array", "mpmath"])
@pytest.mark.parametrize("alpha, j1, j2", [(ALPHA, 1.0, 1.0), (0.05, 1.5, 2.0), (0.1, 2.0, 1.0)])
def test_geometry_and_equilibrium_point_are_bit_for_bit_their_transcription(alpha, j1, j2, kind):
    s1, s2 = model.exponents(j1, j2, alpha)
    for sigma in _sigmas(kind):
        cf = spectrum.c_params(sigma, s1, s2, alpha)
        _, c1, c2, _, excess = _closed_form_transcription(sigma, s1, s2, alpha)
        r10, r20, energy = _geometry_transcription(sigma, alpha, c1, c2)
        got = (*spectrum.radii_bohr(cf), spectrum.energy_closed_form(cf))
        assert list(map(_bits, got)) == list(map(_bits, (r10, r20, energy))), sigma
        point = spectrum.equilibrium_point(sigma, alpha, j1, j2)
        want = (sigma, excess, r10 + r20, r10, r20, energy)
        assert list(map(_bits, point)) == list(map(_bits, want)), sigma


def _recorded(f, calls):
    def wrapper(x):
        calls.append(x)
        return f(x)
    return wrapper


def _brentq_cases():
    """(f, lo, hi, xtol): the minimizer's slopes, the consistency residuals, and two
    functions so small that the extrapolation divisor underflows to 0 (scipy bisects there)."""
    for alpha in (ALPHA, 0.02, 0.05, 0.1):
        for j1 in (1.0, 1.5, 2.0):
            for j2 in (1.0, 1.5, 2.0):
                s1, s2 = radial.exponents(j1, j2, alpha)

                def slope(sigma):
                    return spectrum.delta_e(spectrum.c_params(sigma + 1e-30j, s1, s2,
                                                              alpha)).imag / 1e-30

                for bracket in ((0.05, 0.5), (0.01, 0.99)):
                    grid = np.linspace(*bracket, 32)
                    k = int(np.argmin(spectrum.delta_e(spectrum.c_params(grid, s1, s2, alpha))))
                    for tol in (1e-6, 1e-9, 1e-12):
                        yield slope, grid[k - 1], grid[k + 1], tol
    for variant in radial.FUNDAMENTAL_DENOMINATORS:
        for sigma in np.linspace(0.002, 0.998, 500).tolist():
            cf = spectrum.closed_form(sigma)
            rho = spectrum.rho0_natural(cf)
            relation = radial.fundamental_relation(cf, rho, variant)
            yield partial(radial.fundamental_residual, relation), 0.0, 1 + sigma, 1e-15
    yield lambda x: 1e-160 * (x**3 - 0.2), 0.0, 1.0, 1e-12
    yield lambda x: 1e-170 * (math.exp(x) - 2), 0.0, 2.0, 1e-12


def test_brentq_equals_scipy_bit_for_bit():
    # root, step count and every evaluated x, on the minimizer's slopes and the consistency residuals
    scipy_brentq = pytest.importorskip("scipy.optimize").brentq
    solves = 0
    for f, lo, hi, xtol in _brentq_cases():
        ours, theirs = [], []
        root, iterations = spectrum.brentq(_recorded(f, ours), lo, hi, xtol=xtol)
        ref, info = scipy_brentq(_recorded(f, theirs), lo, hi, full_output=True, xtol=xtol)
        assert (root, iterations, ours) == (ref, info.iterations, theirs)
        solves += 1
    assert solves == 216 + 1500 + 2


def test_brentq_given_end_values_equal_evaluated_ones():
    # the same root, step count and interior x's; f is not called at an end whose value is given
    solves = 0
    for f, lo, hi, xtol in _brentq_cases():
        evaluated = []
        want = spectrum.brentq(_recorded(f, evaluated), lo, hi, xtol=xtol)
        fa, fb = f(float(lo)), f(float(hi))
        for ends, skipped in ((dict(fa=fa), [0]), (dict(fb=fb), [1]),
                              (dict(fa=fa, fb=fb), [0, 1])):
            calls = []
            assert spectrum.brentq(_recorded(f, calls), lo, hi, xtol, **ends) == want
            assert calls == [x for i, x in enumerate(evaluated) if i not in skipped]
        solves += 1
    assert solves == 216 + 1500 + 2


def test_brentq_given_nan_or_zero_end_values():
    calls = []
    f = _recorded(lambda x: x - 0.7, calls)
    for ends, x in ((dict(fa=math.nan), "0.5"), (dict(fa=-0.2, fb=math.nan), "1.0"),
                    (dict(fb=math.nan), "1.0")):
        with pytest.raises(ValueError, match=rf"^The function value at x={x} is NaN; solver "
                           r"cannot continue\.$") as info:
            spectrum.brentq(f, 0.5, 1.0, 1e-12, **ends)
        assert not isinstance(info.value, spectrum.NoRootInBracketError)
    assert calls == [0.5]  # f(a), where only fb was given: a given NaN raises with no call
    calls.clear()
    # a given 0 is a root at that end, returned after 0 steps
    assert spectrum.brentq(f, 0.5, 1.0, 1e-12, fa=0.0) == (0.5, 0)
    assert spectrum.brentq(f, 0.5, 1.0, 1e-12, fb=0.0) == (1.0, 0)
    assert spectrum.brentq(f, 0.5, 1.0, 1e-12, fa=0.0, fb=0.0) == (0.5, 0)
    assert calls == [1.0, 0.5]


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


def test_brentq_nan_at_the_first_end_raises_before_the_second_is_evaluated():
    calls = []
    with pytest.raises(ValueError, match=r"^The function value at x=0\.5 is NaN; solver cannot "
                       r"continue\.$"):
        spectrum.brentq(_recorded(lambda x: math.nan, calls), 0.5, 1.0, xtol=1e-12)
    assert calls == [0.5]
    with pytest.raises(ValueError, match=r"^The function value at x=1\.0 is NaN"):
        spectrum.brentq(lambda x: math.nan if x == 1.0 else x, 0.5, 1.0, xtol=1e-12)


def test_brentq_gives_up_after_100_steps():
    # a sign step at 0 bisects toward it: reaching xtol = 1e-300 would take about 1000 steps
    calls = []
    with pytest.raises(ValueError, match="did not converge in 100 steps"):
        spectrum.brentq(_recorded(lambda x: -1.0 if x <= 0 else 1.0, calls), -1.0, 1.0,
                        xtol=1e-300)
    assert len(calls) == 2 + 100
