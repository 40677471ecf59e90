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


def test_exponents_alpha_zero():
    s1, s2 = radial.exponents(1.0, 1.0, 0.0)
    assert s1 == 0.5 and s2 == 0.5


def test_exponents_default_alpha_frozen_value():
    s1, s2 = radial.exponents(1.0, 1.0, ALPHA)
    assert s1 == pytest.approx(S1_REF, rel=1e-15)
    assert s2 == s1


def test_exponents_boundary_error():
    with pytest.raises(ParameterError, match="j1"):
        radial.exponents(1.0, 1.0, 0.5)  # 4 alpha^2 = 1 = j^2
    # the library paths that take j and alpha as plain arguments raise the same type
    with pytest.raises(ParameterError, match="j1"):
        radial.indicial_kernel(1, 1.0, 0.5)
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


def test_indicial_kernel_two_equivalent_forms():
    k = radial.indicial_kernel(1, 1.0, ALPHA)
    assert k.ratio == pytest.approx(k.ratio_alt, rel=1e-10)
    assert k.ratio == pytest.approx(137.03, rel=1e-4)
    kernel_vec = np.array([1.0, 0.0, k.ratio, 0.0])
    s_star = -0.5 + math.sqrt(1 - 4 * ALPHA * ALPHA)
    assert np.abs(radial.indicial_matrix(1, 1.0, s_star, ALPHA) @ kernel_vec).max() < 1e-10


@pytest.mark.parametrize("alpha", [-0.1, 0.0, math.nan, math.inf])
def test_indicial_kernel_checks_alpha(alpha):
    # the kernel ratios divide by 2 alpha; ModelParams rejects an alpha outside (0, inf) first
    with pytest.raises(ParameterError, match="^alpha"):
        radial.indicial_kernel(1, 1.0, alpha)


def test_indicial_kernel_electron2_pairing():
    k = radial.indicial_kernel(2, 1.0, ALPHA)
    s_star = -0.5 + math.sqrt(1 - 4 * ALPHA * ALPHA)
    vec = np.array([1.0, 1.0, k.second_ratio, k.ratio])  # (a100, a200, a300, a400)
    assert np.abs(radial.indicial_matrix(2, 1.0, s_star, ALPHA) @ vec).max() < 1e-9


def test_indicial_kernel_angles():
    angles = np.degrees(radial.indicial_kernel_angles(1.0, 1.0, ALPHA))
    assert angles.shape == (2,)
    # one near-shared direction, one near-orthogonal pair: joint kernel trivial
    assert angles.min() < 0.1
    assert angles.max() > 89.0


def test_gamma_rho_sum_invariant():
    sigma = 0.31
    gr = radial.GammaRho.from_energy(sigma, ALPHA, energy=0.93, rho=0.8)
    assert gr.gamma1 + gr.gamma2 == pytest.approx(2 * (1 + sigma), rel=1e-15)


def test_recurrence_all_zero():
    params = ModelParams(sigma=0.3)
    gr = radial.GammaRho(1.1, 0.9)
    ansatz = radial.RadialAnsatz(beta1=0.4, beta2=0.2, a100=0, a200=0, a300=0, a400=0)
    assert np.array_equal(radial.recurrence_R(params, gr, ansatz), np.zeros(4))


def test_recurrence_reduces_to_spectral_matrix():
    params = ModelParams(sigma=0.3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        g1v, g2v, b1, b2 = rng.uniform(0.2, 2.0, 4)
        a00 = rng.uniform(-1, 1, 4)
        gr = radial.GammaRho(g1v, g2v)
        ansatz = radial.RadialAnsatz(beta1=b1, beta2=b2,
                                     a100=a00[0], a200=a00[1], a300=a00[2], a400=a00[3])
        rvec = radial.recurrence_R(params, gr, ansatz)
        svec = radial.spectral_matrix(gr, params.sigma, b1, b2) @ a00
        assert np.abs(rvec - svec).max() <= 1e-12 * np.abs(svec).max()


def test_recurrence_sigma_zero_one_electron_shape():
    params = ModelParams(sigma=0.0)
    gr = radial.GammaRho(1.3, 0.7)
    ansatz = radial.RadialAnsatz(beta1=0.6, beta2=0.9, a100=0.8, a200=0.0, a300=-0.5, a400=0.0)
    rvec = radial.recurrence_R(params, gr, ansatz)
    assert rvec[0] == pytest.approx(gr.gamma2 * 0.8 + 0.6 * (-0.5), rel=1e-14)


def test_spectral_determinant_factorization():
    rng = np.random.default_rng(123)
    for _ in range(100):
        g1v, g2v, sig, b1, b2 = rng.uniform(0.2, 2.5, 5)
        gr = radial.GammaRho(g1v, g2v)
        mat = radial.spectral_matrix(gr, sig, b1, b2)
        fac = radial.spectral_quadratic(gr, sig, b1, b2) ** 2
        assert abs(det4_cofactor(mat) - fac) <= 1e-10 * max(abs(fac), 1e-30)


def test_spectral_determinant_beta_zero():
    gr = radial.GammaRho(1.7, 0.6)
    det = np.linalg.det(radial.spectral_matrix(gr, 0.4, 0.0, 0.0))
    assert det == pytest.approx((1.7 * 0.6) ** 2, rel=1e-12)


def test_beta1_sigma_zero_case():
    gr = radial.GammaRho(1.0, 1.0)
    assert radial.beta1_from_determinant(gr, 0.0, beta2=7.3) == pytest.approx(1.0, rel=1e-15)


def test_beta1_closed_value_and_determinant_zero():
    gr = radial.GammaRho(2.0, 1.0)
    b1 = radial.beta1_from_determinant(gr, 0.5, beta2=0.5)
    assert b1 == pytest.approx(2 * math.sqrt(1.75), rel=1e-14)
    mat = radial.spectral_matrix(gr, 0.5, b1, 0.5)
    scale = np.abs(mat).max()
    assert abs(np.linalg.det(mat)) <= 1e-12 * scale**4


def test_beta1_negative_discriminant_error():
    gr = radial.GammaRho(0.0, 1.0)
    with pytest.raises(radial.NoRealDecayError):
        radial.beta1_from_determinant(gr, 0.5, beta2=0.5)
    assert radial.beta1_from_determinant(gr, 0.5, beta2=0.0) == 0.0


def test_beta1_sigma_one_error():
    with pytest.raises(ZeroDivisionError):
        radial.beta1_from_determinant(radial.GammaRho(1.0, 1.0), 1.0, beta2=0.1)


def test_kernel_vectors_sigma_zero_forms():
    gr = radial.GammaRho(1.2, 0.8)
    b1 = radial.beta1_from_determinant(gr, 0.0, beta2=0.3)
    psi1, psi2 = radial.kernel_vectors(gr, 0.0, b1, 0.3)
    assert np.allclose(psi1, [-b1 / 0.8, 0.0, 1.0, 0.0], atol=1e-15)
    assert np.allclose(psi2, [0.0, +b1 / 0.8, 0.0, 1.0], atol=1e-15)


def test_kernel_vectors_annihilated_and_independent():
    rng = np.random.default_rng(5)
    for _ in range(100):
        g1v, g2v, sig, b2 = rng.uniform(0.2, 1.2, 4)
        sig = min(sig, 0.9)
        gr = radial.GammaRho(g1v, g2v)
        try:
            b1 = radial.beta1_from_determinant(gr, sig, b2)
        except radial.NoRealDecayError:
            continue
        mat = radial.spectral_matrix(gr, sig, b1, b2)
        psi1, psi2 = radial.kernel_vectors(gr, sig, b1, b2)
        scale = np.abs(mat).max()
        assert np.abs(mat @ psi1).max() <= 1e-10 * scale
        assert np.abs(mat @ psi2).max() <= 1e-10 * scale
        assert np.linalg.matrix_rank(np.stack([psi1, psi2])) == 2


def test_kernel_vectors_gamma2_zero_degeneracy():
    with pytest.raises(radial.DegenerateKernelError):
        radial.kernel_vectors(radial.GammaRho(1.0, 0.0), 0.3, 0.5, 0.2)


def test_contraction_zero_inputs():
    params = ModelParams(sigma=0.3)
    gr = radial.GammaRho(1.1, 0.9)
    assert radial.kernel_contraction(params, gr, 0.5, 0.2, 0.0, 0.0, 0.0) == 0.0


def _assert_contraction_equals_kernel_dot_product(params, seed, draws):
    rng = np.random.default_rng(seed)
    checked = 0
    while checked < draws:
        g1v, g2v, b2 = rng.uniform(0.2, 1.2, 3)
        gr = radial.GammaRho(g1v, g2v)
        try:
            b1 = radial.beta1_from_determinant(gr, params.sigma, b2)
        except radial.NoRealDecayError:
            continue
        a00 = rng.uniform(-1, 1, 4)
        a10 = rng.uniform(-1, 1, 4)
        a10[3] = 0.0  # the three-term form assumes the fourth first-order coefficient is 0
        ansatz = radial.RadialAnsatz(beta1=b1, beta2=b2,
                                     a100=a00[0], a200=a00[1], a300=a00[2], a400=a00[3])
        rvec = radial.recurrence_R(params, gr, ansatz, *a10)
        psi1, _ = radial.kernel_vectors(gr, params.sigma, b1, b2)
        direct = float(psi1 @ rvec)
        form = radial.kernel_contraction(params, gr, b1, b2, a10[0], a10[1], a10[2])
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
    gr = radial.GammaRho(1.3, 0.7)
    base = radial.kernel_contraction(params, gr, 0.6, 0.4, 0.3, 0.0, 0.2)
    with_a210 = radial.kernel_contraction(params, gr, 0.6, 0.4, 0.3, 5.0, 0.2)
    assert base == with_a210  # a210 enters with weight 2*sigma = 0


def test_both_kernel_vectors_give_identical_energy_condition():
    # contraction with psi2 (first-order coefficients following psi2's own
    # pattern) traces out the same function of the energy as psi1
    params = ModelParams(sigma=0.3)
    rho, h = 120.0, 0.25
    weight = (1 - params.sigma) ** 2 + 4 * params.sigma**2 * h**2
    for energy in np.linspace(0.2, 1.1, 12):
        gr = radial.GammaRho.from_energy(params.sigma, params.alpha, energy, rho)
        b1 = math.sqrt(gr.gamma1 * gr.gamma2 / weight)
        b2 = h * b1
        psi1, psi2 = radial.kernel_vectors(gr, params.sigma, b1, b2)
        values = []
        for vec, a10 in ((psi1, [psi1[0], psi1[1], 1.0, 0.0]),
                         (psi2, [psi2[0], psi2[1], 0.0, 1.0])):
            ansatz = radial.RadialAnsatz(beta1=b1, beta2=b2,
                                         a100=0.3, a200=-0.8, a300=0.5, a400=0.1)
            values.append(float(vec @ radial.recurrence_R(params, gr, ansatz, *a10)))
        assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_fundamental_residual_gamma_equal_case():
    # energy at which gamma1 = gamma2: the fundamental route gives beta1 = 0
    # and the residual equals the determinant-route value
    params = ModelParams(sigma=0.3)
    rho = 1.5
    energy = (1 + params.sigma) * params.alpha / rho  # shift X = 0
    h = 0.2
    res = radial.fundamental_residual(radial.fundamental_relation(params, rho, h), energy)
    gr = radial.GammaRho.from_energy(params.sigma, params.alpha, energy, rho)
    weight = (1 - params.sigma) ** 2 + 4 * params.sigma**2 * h**2
    assert res == pytest.approx(math.sqrt(gr.gamma1 * gr.gamma2 / weight), rel=1e-14)


def test_fundamental_sigma_zero_hydrogen_like_root():
    # at sigma = 0 (and rho -> infinity) the residual vanishes exactly at
    # the one-electron ground energy sqrt(1 - (2 alpha)^2)
    params = ModelParams(sigma=0.0)
    e_star = math.sqrt(1 - 4 * ALPHA**2)
    res = radial.fundamental_residual(radial.fundamental_relation(params, rho=1e12, h=0.0), e_star)
    assert abs(res) < 1e-9


def test_fundamental_denominator_variants_differ():
    params = ModelParams(sigma=0.3)
    values = {v: radial.fundamental_denominator(params, 0.15, v)
              for v in radial.FUNDAMENTAL_DENOMINATORS}
    assert len(set(values.values())) == 3
    with pytest.raises(ValueError):
        radial.fundamental_denominator(params, 0.15, "bogus")


J_GRID = (0.3, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.7)
ALPHA_GRID = (ALPHA, 0.05, 0.1, 0.2)


def _grid_params(sigma):
    for alpha in ALPHA_GRID:
        js = [j for j in J_GRID if j * j > 4 * alpha * alpha]
        for j1 in js:
            for j2 in js:
                yield ModelParams(sigma=sigma, alpha=alpha, j1=j1, j2=j2)


def per_site_shift(j, alpha, sign):
    """Reference arithmetic: the bracket 1 + sqrt(j^2 - 4 alpha^2) +- j with its own root."""
    return 1 + math.sqrt(j * j - 4 * alpha * alpha) + sign * j


def per_site_denominator(params, h, variant):
    """Reference arithmetic: the denominator with its own square roots."""
    s, a = params.sigma, params.alpha
    g1 = math.sqrt(params.j1**2 - 4 * a * a)
    g2 = math.sqrt(params.j2**2 - 4 * a * a)
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
            for h in (0.0, 0.15, 0.9):
                assert (radial.fundamental_denominator(params, h, variant)
                        == per_site_denominator(params, h, variant))


def test_ion_limit_equals_per_site_expression():
    for a in ALPHA_GRID:
        for j1 in (j for j in J_GRID if j * j > 4 * a * a):
            g1 = math.sqrt(j1 * j1 - 4 * a * a)
            assert spectrum.ion_limit(a, j1) == (g1 / math.sqrt(g1 * g1 + 4 * a**2) - 1) / a**2


def test_fundamental_residual_no_real_decay():
    params = ModelParams(sigma=0.3)
    rho = 1.5
    # energy far above the bracket makes gamma1*gamma2 negative
    energy = 5.0
    with pytest.raises(radial.NoRealDecayError):
        radial.fundamental_residual(radial.fundamental_relation(params, rho, 0.2), energy)


def reference_residual(params, energy, rho, h, variant):
    """The decay-rate mismatch at one energy, written out from GammaRho.from_energy."""
    gr = radial.GammaRho.from_energy(params.sigma, params.alpha, energy, rho)
    weight = (1 - params.sigma) ** 2 + 4 * params.sigma**2 * h**2
    beta_det = math.sqrt(gr.gamma1 * gr.gamma2 / weight)
    den = radial.fundamental_denominator(params, h, variant)
    return beta_det - params.alpha * (1 + params.sigma) * (gr.gamma1 - gr.gamma2) / den


@pytest.mark.parametrize("variant", radial.FUNDAMENTAL_DENOMINATORS)
def test_fundamental_residual_equals_per_energy_reference(variant):
    checked = 0
    for sigma in (0.0, 0.06, 0.1775, 0.3, 0.49, 0.9):
        for alpha, j1, j2 in ((ALPHA, 1.0, 1.0), (0.05, 1.5, 2.0)):
            params = ModelParams(sigma=sigma, alpha=alpha, j1=j1, j2=j2)
            for rho in (0.05, 0.8626, 3.0, 1e12):
                for h in (0.0, 0.15, 0.9):
                    relation = radial.fundamental_relation(params, rho, h, variant)
                    lo = (1 + sigma) * alpha / rho
                    for energy in np.linspace(lo, lo + (1 + sigma), 9)[1:-1]:
                        assert (radial.fundamental_residual(relation, energy)
                                == reference_residual(params, energy, rho, h, variant))
                        checked += 1
    assert checked == 6 * 2 * 4 * 3 * 7


@pytest.mark.parametrize("variant", radial.FUNDAMENTAL_DENOMINATORS)
def test_consistency_solve_equals_brentq_on_per_energy_reference(variant):
    brentq = pytest.importorskip("scipy.optimize").brentq

    for sigma in np.linspace(0.06, 0.49, 10):
        cf = spectrum.closed_form(sigma)
        rho = spectrum.rho0_natural(cf)
        params = ModelParams(sigma=sigma, alpha=cf.alpha, j1=cf.j1, j2=cf.j2)
        margin = 1e-12
        lo = (1 + sigma) * cf.alpha / rho + margin
        hi = (1 + sigma) + (1 + sigma) * cf.alpha / rho - margin
        h = sigma * cf.s2 / cf.s1
        expected = brentq(lambda e: reference_residual(params, e, rho, h, variant), lo, hi,
                          xtol=1e-15)
        assert spectrum.energy_consistency_solve(sigma, rho, cf, variant) == expected


def test_fundamental_relation_rejects_vanishing_denominator():
    # sigma = 1 removes the (1-s)^2 term, h = 0 the tail
    with pytest.raises(ZeroDivisionError):
        radial.fundamental_relation(ModelParams(sigma=1.0), 1.0, 0.0)


def _random_inputs(shape, seed=29):
    g1v, g2v, sig, b1, b2 = np.random.default_rng(seed).uniform(0.2, 1.2, (5,) + shape)
    return radial.GammaRho(g1v, g2v), sig, b1, b2


def _entry(gr, index):
    return radial.GammaRho(gr.gamma1[index], gr.gamma2[index])


def test_spectral_matrix_array_equals_stacked_scalar_calls():
    gr, sig, b1, b2 = _random_inputs((2, 3))
    batch = radial.spectral_matrix(gr, sig, b1, b2)
    assert batch.shape == (2, 3, 4, 4)
    for index in np.ndindex(2, 3):
        single = radial.spectral_matrix(_entry(gr, index), sig[index], b1[index], b2[index])
        assert np.array_equal(batch[index], single)


def test_spectral_matrix_float_path_layout():
    mat = radial.spectral_matrix(radial.GammaRho(1.7, 0.6), 0.4, 0.9, 0.3)
    a, b = (1 - 0.4) * 0.9, 2 * 0.4 * 0.3
    expected = np.array([[0.6, 0.0, a, b], [0.0, 0.6, b, -a], [a, b, 1.7, 0.0], [b, -a, 0.0, 1.7]])
    assert mat.shape == (4, 4) and mat.dtype == float
    assert np.array_equal(mat, expected)


def test_kernel_vectors_array_equals_stacked_scalar_calls():
    gr, sig, b1, b2 = _random_inputs((7,))
    psi1, psi2 = radial.kernel_vectors(gr, sig, b1, b2)
    assert psi1.shape == psi2.shape == (7, 4)
    for i in range(7):
        one, two = radial.kernel_vectors(_entry(gr, i), sig[i], b1[i], b2[i])
        assert np.array_equal(psi1[i], one) and np.array_equal(psi2[i], two)


def test_kernel_vectors_float_path_layout():
    psi1, psi2 = radial.kernel_vectors(radial.GammaRho(1.2, 0.8), 0.3, 0.5, 0.2)
    p, q = (1 - 0.3) * 0.5 / 0.8, 2 * 0.3 * 0.2 / 0.8
    assert psi1.dtype == psi2.dtype == float
    assert np.array_equal(psi1, np.array([-p, -q, 1.0, 0.0]))
    assert np.array_equal(psi2, np.array([-q, p, 0.0, 1.0]))


def test_kernel_vectors_array_with_one_gamma2_zero_raises():
    gr = radial.GammaRho(np.array([1.0, 1.0]), np.array([0.5, 0.0]))
    with pytest.raises(radial.DegenerateKernelError):
        radial.kernel_vectors(gr, 0.3, np.array([0.5, 0.5]), np.array([0.2, 0.2]))


def test_recurrence_array_equals_stacked_scalar_calls():
    params = ModelParams(sigma=0.3)
    gr, _, b1, b2 = _random_inputs((6,))
    coeffs = np.random.default_rng(31).uniform(-1, 1, (7, 6))
    ansatz = radial.RadialAnsatz(b1, b2, *coeffs[:4])
    batch = radial.recurrence_R(params, gr, ansatz, *coeffs[4:])
    assert batch.shape == (6, 4)
    for i in range(6):
        single = radial.RadialAnsatz(b1[i], b2[i], *coeffs[:4, i])
        assert np.array_equal(batch[i],
                              radial.recurrence_R(params, _entry(gr, i), single, *coeffs[4:, i]))


def test_recurrence_float_path_values():
    params = ModelParams(sigma=0.0)
    gr = radial.GammaRho(1.3, 0.7)
    ansatz = radial.RadialAnsatz(beta1=0.6, beta2=0.9, a100=0.8, a200=0.0, a300=-0.5, a400=0.0)
    rvec = radial.recurrence_R(params, gr, ansatz)
    assert rvec.shape == (4,) and rvec.dtype == float
    assert np.array_equal(rvec, [0.7 * 0.8 + 0.6 * -0.5, 0.0, 1.3 * -0.5 + 0.6 * 0.8, 0.0])


def test_beta1_array_equals_scalar_loop():
    gr, sig, _, b2 = _random_inputs((20,))
    sig = np.minimum(sig, 0.9)
    keep = radial.spectral_quadratic(gr, sig, 0.0, b2) >= 0
    gr, sig, b2 = radial.GammaRho(gr.gamma1[keep], gr.gamma2[keep]), sig[keep], b2[keep]
    batch = radial.beta1_from_determinant(gr, sig, b2)
    assert batch.shape == (int(keep.sum()),) and len(batch) > 0
    assert np.array_equal(batch, [radial.beta1_from_determinant(_entry(gr, i), sig[i], b2[i])
                                  for i in range(len(batch))])


def test_beta1_array_with_one_bad_entry_raises():
    gr = radial.GammaRho(np.array([1.0, 0.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    beta2 = np.array([0.1, 0.5, 0.1])
    with pytest.raises(radial.NoRealDecayError):
        radial.beta1_from_determinant(gr, 0.5, beta2)
    with pytest.raises(ZeroDivisionError):
        radial.beta1_from_determinant(radial.GammaRho(1.0, 1.0), np.array([0.2, 1.0]), 0.1)
    assert radial.beta1_from_determinant(gr, 0.5, np.zeros(3))[1] == 0.0
