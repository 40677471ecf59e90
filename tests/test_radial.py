import itertools
import math

import numpy as np
import pytest

from hespinor import radial, spectrum
from hespinor.model import FINE_STRUCTURE_ALPHA, ModelParams, ParameterError

ALPHA = FINE_STRUCTURE_ALPHA
S1_REF = 0.4998934916189415  # -1/2 + sqrt(1 - 4 alpha^2) at the default alpha


def det4_cofactor(m):
    """Independent 4x4 determinant by cofactor expansion along the first row."""
    m = [[complex(x) for x in row] for row in np.asarray(m)]

    def det2(a):
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]

    def det3(a):
        return (a[0][0] * det2([row[1:] for row in a[1:]])
                - a[0][1] * det2([[row[0], row[2]] for row in a[1:]])
                + a[0][2] * det2([row[:2] for row in a[1:]]))

    total = 0.0
    for j in range(4):
        minor = [[m[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        total += (-1) ** j * m[0][j] * det3(minor)
    return total


def gamma_rho(sigma, alpha, energy, rho):
    """Reference pair (gamma1, gamma2) = (1+sigma) +- X with X = E - (1+sigma) alpha / rho."""
    shift = energy - (1 + sigma) * alpha / rho
    return (1 + sigma) + shift, (1 + sigma) - shift


def test_exponents_default_alpha_frozen_value():
    s1, s2 = radial.exponents(1.0, 1.0, ALPHA)
    assert s1 == pytest.approx(S1_REF, rel=1e-15)
    assert s2 == s1


def test_exponents_boundary_error():
    with pytest.raises(ParameterError, match="j1"):
        radial.exponents(1.0, 1.0, 0.5)  # 4 alpha^2 = 1 = j^2
    # the library paths that take j and alpha as plain arguments raise the same type
    with pytest.raises(ParameterError, match="j1"):
        radial.indicial_kernel_angles(1.0, 1.0, 0.5)
    with pytest.raises(ParameterError, match="j1"):
        spectrum.ion_limit(0.5, 1.0)


@pytest.mark.parametrize("which", [1, 2])
def test_indicial_determinant_vanishes_only_at_exponent(which):
    j = 1.0
    s_star = -0.5 + math.sqrt(j * j - 4 * ALPHA * ALPHA)
    mat = radial.indicial_matrix(which, j, s_star, ALPHA)
    assert abs(np.linalg.det(mat)) < 1e-12
    assert abs(det4_cofactor(mat)) < 1e-12  # independent determinant route
    for ds in (0.01, -0.01):
        off = radial.indicial_matrix(which, j, s_star + ds, ALPHA)
        assert abs(np.linalg.det(off)) > 1e-5


def test_indicial_determinant_scan_single_root():
    # no other roots for s > -1/2
    j = 1.0
    s_star = -0.5 + math.sqrt(1 - 4 * ALPHA * ALPHA)
    for s in np.linspace(-0.45, 2.0, 200):
        det = np.linalg.det(radial.indicial_matrix(1, j, float(s), ALPHA))
        if abs(s - s_star) > 1e-3:
            assert abs(det) > 1e-12


def test_indicial_matrix_alpha_zero_nonrelativistic_limit():
    mat = radial.indicial_matrix(1, 1.0, 0.5, 0.0)  # s = j - 1/2
    assert abs(np.linalg.det(mat)) == 0.0


def test_indicial_matrix_which_validation():
    with pytest.raises(ValueError):
        radial.indicial_matrix(3, 1.0, 0.5, ALPHA)


def kernel_uv(j, alpha):
    """u, v = j -+ (s* + 1/2) at the exponent s*, the entries of the closed-form kernel ratios.

    For which=1, v/2a and 2a/u are a300/a100 from the third and first rows
    and u/2a is a400/a200; for which=2, v/2a is a400/a100 and -u/2a is a300/a200.
    """
    s, _ = radial.exponents(j, j, alpha)
    return j - s - 0.5, j + s + 0.5


def test_indicial_kernel_two_equivalent_forms():
    u, v = kernel_uv(1.0, ALPHA)
    ratio, ratio_alt = v / (2 * ALPHA), 2 * ALPHA / u
    assert ratio == pytest.approx(ratio_alt, rel=1e-10)
    assert ratio == pytest.approx(137.03, rel=1e-4)
    kernel_vec = np.array([1.0, 0.0, ratio, 0.0])
    s_star = -0.5 + math.sqrt(1 - 4 * ALPHA * ALPHA)
    assert np.abs(radial.indicial_matrix(1, 1.0, s_star, ALPHA) @ kernel_vec).max() < 1e-10


@pytest.mark.parametrize("alpha", [-0.1, 0.0, math.nan, math.inf, 1e-200,
                                   math.nextafter(2.0**-511, 0)])
def test_indicial_kernel_checks_alpha(alpha):
    # the kernels are read at the exponents; exponents rejects an alpha outside [2**-511, inf)
    with pytest.raises(ParameterError, match="^alpha"):
        radial.indicial_kernel_angles(1.0, 1.0, alpha)


def test_indicial_kernel_electron2_pairing():
    u, v = kernel_uv(1.0, ALPHA)
    s_star = -0.5 + math.sqrt(1 - 4 * ALPHA * ALPHA)
    vec = np.array([1.0, 1.0, -u / (2 * ALPHA), v / (2 * ALPHA)])  # (a100, a200, a300, a400)
    assert np.abs(radial.indicial_matrix(2, 1.0, s_star, ALPHA) @ vec).max() < 1e-9


def test_indicial_kernel_angles():
    angles = np.degrees(radial.indicial_kernel_angles(1.0, 1.0, ALPHA))
    assert angles.shape == (2,)
    # one near-shared direction, one near-orthogonal pair: joint kernel trivial
    assert angles.min() < 0.1
    assert angles.max() > 89.0


def ratio_kernel_angles(j1, j2, alpha):
    """Principal angles between the kernels spanned by the closed-form ratios v/2a and
    +-u/2a: a QR basis of each, then the singular values of their product."""
    (u1, v1), (u2, v2) = kernel_uv(j1, alpha), kernel_uv(j2, alpha)
    c = 2 * alpha
    q1, _ = np.linalg.qr(np.array([[1.0, 0.0, v1 / c, 0.0], [0.0, 1.0, 0.0, u1 / c]]).T)
    q2, _ = np.linalg.qr(np.array([[1.0, 0.0, 0.0, v2 / c], [0.0, 1.0, -u2 / c, 0.0]]).T)
    return np.arccos(np.clip(np.linalg.svd(q1.T @ q2, compute_uv=False), -1.0, 1.0))


def test_indicial_kernel_angles_equal_the_ratio_bases():
    # the worst gap, about 3e-8 rad at (3, 0.51, 1e-8), is a smaller angle near
    # arccos's rounding floor on both routes
    for j1, j2, alpha in itertools.product((0.51, 0.55, 0.6, 1.0, 1.5, 2.0, 3.0, 10.0),
                                           (0.51, 1.0, 2.0, 5.0),
                                           (2.0**-500, 1e-8, 1e-4, ALPHA, 0.02, 0.05, 0.1, 0.2)):
        if min(j1, j2) ** 2 > 4 * alpha**2:
            angles = radial.indicial_kernel_angles(j1, j2, alpha)
            assert angles[0] <= angles[1]
            gap = np.abs(angles - ratio_kernel_angles(j1, j2, alpha)).max()
            assert gap <= 1e-7, (j1, j2, alpha)


def test_indicial_determinants_and_kernel_rank_exact():
    # the indicial systems on symbols: det I1 = q^2 and det I2 = 16 q^2 with
    # q = (s + 1/2)^2 - j^2 + 4 alpha^2, and rank 2 at s* = -1/2 + sqrt(j^2 - 4 alpha^2)
    sp = pytest.importorskip("sympy")
    j, s, a = sp.symbols("j s alpha", positive=True)
    q = (s + sp.Rational(1, 2)) ** 2 - j**2 + 4 * a**2
    s_star = -sp.Rational(1, 2) + sp.sqrt(j**2 - 4 * a**2)
    for which, scale in ((1, 1), (2, 16)):
        mat = sp.Matrix(radial.indicial_matrix(which, j, s, a)).applyfunc(sp.nsimplify)
        assert sp.expand(mat.det() - scale * q**2) == 0
        at = mat.subs(s, s_star)
        assert all(sp.expand(at.extract(rows, cols).det()) == 0
                   for rows in itertools.combinations(range(4), 3)
                   for cols in itertools.combinations(range(4), 3))
        assert sp.expand(at.extract([0, 1], [0, 1]).det()) != 0


def test_gamma_rho_sum_invariant():
    sigma = 0.31
    g1v, g2v = gamma_rho(sigma, ALPHA, energy=0.93, rho=0.8)
    assert g1v + g2v == pytest.approx(2 * (1 + sigma), rel=1e-15)


def test_recurrence_all_zero():
    params = ModelParams(sigma=0.3)
    assert np.array_equal(radial.recurrence_R(params, 1.1, 0.9, 0.4, 0.2, [0, 0, 0, 0]),
                          np.zeros(4))


def test_recurrence_reduces_to_spectral_matrix():
    params = ModelParams(sigma=0.3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        g1v, g2v, b1, b2 = rng.uniform(0.2, 2.0, 4)
        a00 = rng.uniform(-1, 1, 4)
        rvec = radial.recurrence_R(params, g1v, g2v, b1, b2, a00)
        svec = radial.spectral_matrix(g1v, g2v, params.sigma, b1, b2) @ a00
        assert np.abs(rvec - svec).max() <= 1e-12 * np.abs(svec).max()


def test_recurrence_sigma_zero_one_electron_shape():
    params = ModelParams(sigma=0.0)
    rvec = radial.recurrence_R(params, 1.3, 0.7, 0.6, 0.9, [0.8, 0.0, -0.5, 0.0])
    assert rvec[0] == pytest.approx(0.7 * 0.8 + 0.6 * (-0.5), rel=1e-14)


def test_spectral_determinant_factorization():
    rng = np.random.default_rng(123)
    for _ in range(100):
        g1v, g2v, sig, b1, b2 = rng.uniform(0.2, 2.5, 5)
        mat = radial.spectral_matrix(g1v, g2v, sig, b1, b2)
        fac = radial.spectral_quadratic(g1v, g2v, sig, b1, b2) ** 2
        assert abs(det4_cofactor(mat) - fac) <= 1e-10 * max(abs(fac), 1e-30)


def test_spectral_determinant_beta_zero():
    det = np.linalg.det(radial.spectral_matrix(1.7, 0.6, 0.4, 0.0, 0.0))
    assert det == pytest.approx((1.7 * 0.6) ** 2, rel=1e-12)


def test_beta1_sigma_zero_case():
    b1 = radial.beta1_from_determinant(1.0, 1.0, 0.0, beta2=7.3)
    assert b1 == pytest.approx(1.0, rel=1e-15)


def test_beta1_closed_value_and_determinant_zero():
    b1 = radial.beta1_from_determinant(2.0, 1.0, 0.5, beta2=0.5)
    assert b1 == pytest.approx(2 * math.sqrt(1.75), rel=1e-14)
    mat = radial.spectral_matrix(2.0, 1.0, 0.5, b1, 0.5)
    scale = np.abs(mat).max()
    assert abs(np.linalg.det(mat)) <= 1e-12 * scale**4


def test_beta1_negative_discriminant_error():
    with pytest.raises(radial.NoRealDecayError):
        radial.beta1_from_determinant(0.0, 1.0, 0.5, beta2=0.5)
    assert radial.beta1_from_determinant(0.0, 1.0, 0.5, beta2=0.0) == 0.0


def test_beta1_sigma_one_error():
    with pytest.raises(ZeroDivisionError):
        radial.beta1_from_determinant(1.0, 1.0, 1.0, beta2=0.1)


def test_kernel_vectors_sigma_zero_forms():
    b1 = radial.beta1_from_determinant(1.2, 0.8, 0.0, beta2=0.3)
    psi1, psi2 = radial.kernel_vectors(0.8, 0.0, b1, 0.3)
    assert np.allclose(psi1, [-b1 / 0.8, 0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(psi2, [0.0, +b1 / 0.8, 0.0, 1.0], atol=1e-15)


def test_kernel_vectors_annihilated_and_independent():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g1v, g2v, sig, b2 = rng.uniform(0.2, 1.2, 4)
        sig = min(sig, 0.9)
        try:
            b1 = radial.beta1_from_determinant(g1v, g2v, sig, b2)
        except radial.NoRealDecayError:
            continue
        mat = radial.spectral_matrix(g1v, g2v, sig, b1, b2)
        psi1, psi2 = radial.kernel_vectors(g2v, sig, b1, b2)
        scale = np.abs(mat).max()
        assert np.abs(mat @ psi1).max() <= 1e-10 * scale
        assert np.abs(mat @ psi2).max() <= 1e-10 * scale
        assert np.linalg.matrix_rank(np.stack([psi1, psi2])) == 2


def test_kernel_vectors_gamma2_zero_degeneracy():
    with pytest.raises(radial.DegenerateKernelError):
        radial.kernel_vectors(0.0, 0.3, 0.5, 0.2)


def test_contraction_zero_inputs():
    params = ModelParams(sigma=0.3)
    assert radial.kernel_contraction(params, 0.9, 0.5, 0.2, 0.0, 0.0, 0.0) == 0.0


def _assert_contraction_equals_kernel_dot_product(params, seed, draws):
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < draws:
        g1v, g2v, b2 = rng.uniform(0.2, 1.2, 3)
        try:
            b1 = radial.beta1_from_determinant(g1v, g2v, params.sigma, b2)
        except radial.NoRealDecayError:
            continue
        a00 = rng.uniform(-1, 1, 4)
        a10 = rng.uniform(-1, 1, 4)
        a10[3] = 0.0  # the three-term form assumes the fourth first-order coefficient is 0
        rvec = radial.recurrence_R(params, g1v, g2v, b1, b2, a00, *a10)
        psi1, _ = radial.kernel_vectors(g2v, params.sigma, b1, b2)
        direct = float(psi1 @ rvec)
        form = radial.kernel_contraction(params, g2v, b1, b2, a10[0], a10[1], a10[2])
        assert direct == pytest.approx(form, rel=1e-10, abs=1e-12)
        checked += 1


def test_contraction_equals_kernel_dot_product():
    _assert_contraction_equals_kernel_dot_product(ModelParams(sigma=0.3), seed=17, draws=50)


def test_contraction_equals_kernel_dot_product_away_from_default_j():
    # j reaches recurrence_R only through params, as it reaches kernel_contraction
    _assert_contraction_equals_kernel_dot_product(ModelParams(sigma=0.3, j1=2.0, j2=1.5),
                                                  seed=19, draws=20)


def test_contraction_sigma_zero_keeps_only_electron1_brackets():
    params = ModelParams(sigma=0.0)
    base = radial.kernel_contraction(params, 0.7, 0.6, 0.4, 0.3, 0.0, 0.2)
    with_a210 = radial.kernel_contraction(params, 0.7, 0.6, 0.4, 0.3, 5.0, 0.2)
    assert base == with_a210  # a210 enters with weight 2*sigma = 0


def test_both_kernel_vectors_give_identical_energy_condition():
    # contraction with psi2 (first-order coefficients following psi2's own
    # pattern) traces out the same function of the energy as psi1
    params = ModelParams(sigma=0.3)
    rho, h = 120.0, 0.25
    weight = (1 - params.sigma) ** 2 + 4 * params.sigma**2 * h**2
    for energy in np.linspace(0.2, 1.1, 12):
        g1v, g2v = gamma_rho(params.sigma, params.alpha, energy, rho)
        b1 = math.sqrt(g1v * g2v / weight)
        b2 = h * b1
        psi1, psi2 = radial.kernel_vectors(g2v, params.sigma, b1, b2)
        values = []
        for vec, a10 in ((psi1, [psi1[0], psi1[1], 1.0, 0.0]),
                         (psi2, [psi2[0], psi2[1], 0.0, 1.0])):
            rvec = radial.recurrence_R(params, g1v, g2v, b1, b2, [0.3, -0.8, 0.5, 0.1], *a10)
            values.append(float(vec @ rvec))
        assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_fundamental_residual_gamma_equal_case():
    # at shift X = 0 gamma1 = gamma2 = 1+sigma: the fundamental route gives beta1 = 0
    # and the residual equals the determinant-route value
    cf = spectrum.closed_form(0.3)
    h = cf.sigma * cf.s2 / cf.s1
    res = radial.fundamental_residual(radial.fundamental_relation(cf, 1.5), 0.0)
    weight = (1 - cf.sigma) ** 2 + 4 * cf.sigma**2 * h**2
    assert res == pytest.approx((1 + cf.sigma) / math.sqrt(weight), rel=1e-14)


def test_fundamental_sigma_zero_hydrogen_like_root():
    # at sigma = 0 and rho = inf the shift is the energy, and the residual vanishes
    # exactly at the one-electron ground energy sqrt(1 - (2 alpha)^2)
    e_star = math.sqrt(1 - 4 * ALPHA**2)
    relation = radial.fundamental_relation(spectrum.closed_form(0.0), rho=math.inf)
    assert abs(radial.fundamental_residual(relation, e_star)) < 1e-9


def test_fundamental_denominator_variants_differ():
    cf = spectrum.closed_form(0.3)
    values = {v: radial.fundamental_relation(cf, 1.0, v)[-1]
              for v in radial.FUNDAMENTAL_DENOMINATORS}
    assert len(set(values.values())) == 3
    with pytest.raises(ValueError):
        radial.fundamental_relation(cf, 1.0, "bogus")


J_GRID = (0.3, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.7)
ALPHA_GRID = (ALPHA, 0.05, 0.1, 0.2)


def _grid_params(sigma):
    for alpha in ALPHA_GRID:
        js = [j for j in J_GRID if j * j > 4 * alpha * alpha]
        for j1 in js:
            for j2 in js:
                yield ModelParams(sigma=sigma, alpha=alpha, j1=j1, j2=j2)


def per_site_root(j, alpha):
    """Reference arithmetic: sqrt(j^2 - 4 alpha^2) = s + 1/2, with the exponent s in the
    factored form ((j - 1/2)(j + 1/2) - 4 alpha^2) / (1/2 + sqrt(j^2 - 4 alpha^2))."""
    four_a2 = 4 * alpha * alpha
    return ((j - 0.5) * (j + 0.5) - four_a2) / (0.5 + math.sqrt(j * j - four_a2)) + 0.5


def per_site_shift(j, alpha, sign):
    """Reference arithmetic: the bracket 1 + sqrt(j^2 - 4 alpha^2) +- j with its own root."""
    return 1 + per_site_root(j, alpha) + sign * j


def per_site_denominator(params, h, variant):
    """Reference arithmetic: the denominator with its own square roots."""
    s, a = params.sigma, params.alpha
    g1 = per_site_root(params.j1, a)
    g2 = per_site_root(params.j2, a)
    tail = 4 * s**2 * h * (1 + g2)
    return {"default": (1 - s) ** 2 * g1 + tail, "alt-weight": (1 - s**2) * g1 + tail,
            "alt-shift": (1 - s) ** 2 * (1 + g1) + tail}[variant]


def test_first_order_brackets_equal_per_site_expressions():
    for params in _grid_params(0.3):
        a = params.alpha
        assert radial.first_order_brackets(params) == (
            per_site_shift(params.j1, a, -1), per_site_shift(params.j1, a, +1),
            per_site_shift(params.j2, a, -1), per_site_shift(params.j2, a, +1))


@pytest.mark.parametrize("variant", radial.FUNDAMENTAL_DENOMINATORS)
def test_fundamental_denominator_equals_per_site_expression(variant):
    for sigma in (0.0, 0.1775, 0.49, 0.9):
        for params in _grid_params(sigma):
            cf = spectrum.closed_form(sigma, params.alpha, params.j1, params.j2)
            h = sigma * cf.s2 / cf.s1
            assert (radial.fundamental_relation(cf, 1.0, variant)[-1]
                    == per_site_denominator(params, h, variant))


@pytest.mark.parametrize("alpha", [1e-10, 1e-8, 1e-6, 1e-4, ALPHA, 0.05, 0.1, 0.2])
def test_ion_limit_equals_high_precision_value(alpha):
    # (g1 / j - 1) / alpha^2 = -4 / (j (j + g1)) with g1 = sqrt(j^2 - 4 alpha^2), at 50 digits;
    # the subtraction E(0) - 1 would keep no correct digit at alpha = 1e-10
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for j1 in (j for j in J_GRID if j * j > 4 * alpha * alpha):
            j, a = mp.mpf(j1), mp.mpf(alpha)
            exact = -4 / (j * (j + mp.sqrt(j * j - 4 * a * a)))
            assert abs(spectrum.ion_limit(alpha, j1) - exact) <= 1e-15 * abs(exact)


def test_fundamental_residual_no_real_decay():
    cf = spectrum.closed_form(0.3)
    relation = radial.fundamental_relation(cf, 1.5)
    # a shift one step outside [-(1+sigma), 1+sigma] makes gamma1*gamma2 negative
    rest = 1 + cf.sigma
    for shift in (math.nextafter(rest, math.inf), math.nextafter(-rest, -math.inf)):
        with pytest.raises(radial.NoRealDecayError):
            radial.fundamental_residual(relation, shift)


def reference_residual(params, shift, h, variant):
    """The decay-rate mismatch at one shift X, with gamma1,2 = (1+sigma) +- X."""
    g1v, g2v = (1 + params.sigma) + shift, (1 + params.sigma) - shift
    weight = (1 - params.sigma) ** 2 + 4 * params.sigma**2 * h**2
    beta_det = math.sqrt(g1v * g2v / weight)
    den = per_site_denominator(params, h, variant)
    return beta_det - params.alpha * (1 + params.sigma) * (g1v - g2v) / den


@pytest.mark.parametrize("variant", radial.FUNDAMENTAL_DENOMINATORS)
def test_fundamental_residual_equals_per_energy_reference(variant):
    checked = 0
    for sigma in (0.0, 0.06, 0.1775, 0.3, 0.49, 0.9):
        for alpha, j1, j2 in ((ALPHA, 1.0, 1.0), (0.05, 1.5, 2.0), (0.1, 2.0, 1.5)):
            params = ModelParams(sigma=sigma, alpha=alpha, j1=j1, j2=j2)
            cf = spectrum.closed_form(sigma, alpha, j1, j2)
            h = sigma * cf.s2 / cf.s1
            for rho in (0.05, 0.8626, 3.0, 1e12):  # rho enters only the energy, not X
                relation = radial.fundamental_relation(cf, rho, variant)
                for shift in np.linspace(0.0, 1 + sigma, 9).tolist():
                    assert (radial.fundamental_residual(relation, shift)
                            == reference_residual(params, shift, h, variant))
                    checked += 1
    assert checked == 6 * 3 * 4 * 9


@pytest.mark.parametrize("variant", radial.FUNDAMENTAL_DENOMINATORS)
def test_consistency_solve_equals_brentq_on_per_energy_reference(variant):
    brentq = pytest.importorskip("scipy.optimize").brentq

    for sigma in np.linspace(0.06, 0.49, 10):
        cf = spectrum.closed_form(sigma)
        rho = spectrum.rho0_natural(cf)
        params = ModelParams(sigma=sigma)
        h = sigma * cf.s2 / cf.s1
        shift = brentq(lambda x: reference_residual(params, x, h, variant), 0.0, 1 + sigma,
                       xtol=1e-15)
        expected = (1 + sigma) * cf.alpha / rho + shift
        assert spectrum.energy_consistency_solve(sigma, rho, cf, variant) == expected


def test_fundamental_relation_rejects_vanishing_denominator():
    # sigma = 1 removes the (1-s)^2 term, s2 = 0 the tail
    with pytest.raises(ZeroDivisionError):
        radial.fundamental_relation(spectrum.closed_form(1.0)._replace(s2=0.0), 1.0)


def _random_inputs(shape, seed=29):
    """gamma1, gamma2, sigma, beta1, beta2, each of the given shape."""
    return np.random.default_rng(seed).uniform(0.2, 1.2, (5,) + shape)


def test_spectral_matrix_array_equals_stacked_scalar_calls():
    inputs = _random_inputs((2, 3))
    batch = radial.spectral_matrix(*inputs)
    assert batch.shape == (2, 3, 4, 4)
    for index in np.ndindex(2, 3):
        single = radial.spectral_matrix(*(x[index] for x in inputs))
        assert np.array_equal(batch[index], single)


def test_spectral_matrix_float_path_layout():
    mat = radial.spectral_matrix(1.7, 0.6, 0.4, 0.9, 0.3)
    a, b = (1 - 0.4) * 0.9, 2 * 0.4 * 0.3
    expected = np.array([[0.6, 0.0, a, b], [0.0, 0.6, b, -a], [a, b, 1.7, 0.0], [b, -a, 0.0, 1.7]])
    assert mat.shape == (4, 4) and mat.dtype == float
    assert np.array_equal(mat, expected)


def test_kernel_vectors_array_equals_stacked_scalar_calls():
    _, g2v, sig, b1, b2 = _random_inputs((7,))
    psi1, psi2 = radial.kernel_vectors(g2v, sig, b1, b2)
    assert psi1.shape == psi2.shape == (7, 4)
    for i in range(7):
        one, two = radial.kernel_vectors(g2v[i], sig[i], b1[i], b2[i])
        assert np.array_equal(psi1[i], one) and np.array_equal(psi2[i], two)


def test_kernel_vectors_float_path_layout():
    psi1, psi2 = radial.kernel_vectors(0.8, 0.3, 0.5, 0.2)
    p, q = (1 - 0.3) * 0.5 / 0.8, 2 * 0.3 * 0.2 / 0.8
    assert psi1.dtype == psi2.dtype == float
    assert np.array_equal(psi1, np.array([-p, -q, 1.0, 0.0]))
    assert np.array_equal(psi2, np.array([-q, p, 0.0, 1.0]))


def test_kernel_vectors_array_with_one_gamma2_zero_raises():
    with pytest.raises(radial.DegenerateKernelError):
        radial.kernel_vectors(np.array([0.5, 0.0]), 0.3, np.array([0.5, 0.5]),
                              np.array([0.2, 0.2]))


def test_recurrence_array_equals_stacked_scalar_calls():
    params = ModelParams(sigma=0.3)
    g1v, g2v, _, b1, b2 = _random_inputs((6,))
    coeffs = np.random.default_rng(31).uniform(-1, 1, (7, 6))
    batch = radial.recurrence_R(params, g1v, g2v, b1, b2, coeffs[:4].T, *coeffs[4:])
    assert batch.shape == (6, 4)
    for i in range(6):
        single = radial.recurrence_R(params, g1v[i], g2v[i], b1[i], b2[i], coeffs[:4, i],
                                     *coeffs[4:, i])
        assert np.array_equal(batch[i], single)


def test_recurrence_float_path_values():
    params = ModelParams(sigma=0.0)
    rvec = radial.recurrence_R(params, 1.3, 0.7, 0.6, 0.9, [0.8, 0.0, -0.5, 0.0])
    assert rvec.shape == (4,) and rvec.dtype == float
    assert np.array_equal(rvec, [0.7 * 0.8 + 0.6 * -0.5, 0.0, 1.3 * -0.5 + 0.6 * 0.8, 0.0])


def test_beta1_array_equals_scalar_loop():
    g1v, g2v, sig, _, b2 = _random_inputs((20,))
    sig = np.minimum(sig, 0.9)
    keep = radial.spectral_quadratic(g1v, g2v, sig, 0.0, b2) >= 0
    g1v, g2v, sig, b2 = g1v[keep], g2v[keep], sig[keep], b2[keep]
    batch = radial.beta1_from_determinant(g1v, g2v, sig, b2)
    assert batch.shape == (int(keep.sum()),) and len(batch) > 0
    assert np.array_equal(batch, [radial.beta1_from_determinant(g1v[i], g2v[i], sig[i], b2[i])
                                  for i in range(len(batch))])


def test_beta1_array_with_one_bad_entry_raises():
    g1v, g2v = np.array([1.0, 0.0, 2.0]), np.array([1.0, 1.0, 1.0])
    beta2 = np.array([0.1, 0.5, 0.1])
    with pytest.raises(radial.NoRealDecayError):
        radial.beta1_from_determinant(g1v, g2v, 0.5, beta2)
    with pytest.raises(ZeroDivisionError):
        radial.beta1_from_determinant(1.0, 1.0, np.array([0.2, 1.0]), 0.1)
    assert radial.beta1_from_determinant(g1v, g2v, 0.5, np.zeros(3))[1] == 0.0
