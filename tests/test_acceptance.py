"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import math
import time

import numpy as np
import pytest

from hespinor import angular, clifford, optimize, radial, spectrum, verify
from hespinor.model import FINE_STRUCTURE_ALPHA, ModelParams
from hespinor.operators import (
    ConfigPoint,
    SpinorField,
    apply_H,
    commutator_residual,
    component_system_residual,
    covariant_form_residual,
    gradient,
)

ALPHA = FINE_STRUCTURE_ALPHA


def report(num, passed, detail):
    print(f"CRITERION {num:2} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def minimized():
    t0 = time.perf_counter()
    result = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    return result, time.perf_counter() - t0


def test_criterion_01_ground_state_energy(minimized):
    result, runtime = minimized
    pt = result.point
    ok = (-2.911 <= pt.delta_e <= -2.901) and (0.1765 <= pt.sigma <= 0.1785) and runtime < 1.0
    report(1, ok, f"delta_e = {pt.delta_e:.6f} in [-2.911, -2.901], "
                  f"sigma0 = {pt.sigma:.6f} in [0.1765, 0.1785], runtime {runtime:.3f}s < 1s")


def test_criterion_02_equilibrium_geometry(minimized):
    pt = minimized[0].point
    ok = (abs(pt.r10 - 0.130) <= 0.005 and abs(pt.r20 - 0.732) <= 0.005
          and abs(pt.rho0 - 0.862) <= 0.005)
    report(2, ok, f"r10 = {pt.r10:.4f} (0.130 +- 0.005), r20 = {pt.r20:.4f} "
                  f"(0.732 +- 0.005), rho0 = {pt.rho0:.4f} (0.862 +- 0.005)")


def test_criterion_03_ion_limit():
    limit = spectrum.ion_limit()
    gaps = []
    for k in (2, 3, 4):
        cf = spectrum.closed_form(10.0 ** (-k))
        gaps.append(abs(spectrum.delta_e(cf) - limit))
    bounds_ok = all(gap <= 10.0 ** (-k + 1) for gap, k in zip(gaps, (2, 3, 4)))
    # limit = -2 to within 2 alpha^2 + O(alpha^4)
    limit_ok = abs(limit - (-2.0)) <= 2 * ALPHA**2 + 10 * ALPHA**4
    report(3, bounds_ok and limit_ok,
           f"gaps {[f'{g:.2e}' for g in gaps]} within 1e-1/1e-2/1e-3; "
           f"limit {limit:.7f} = -2 - 2a^2 + O(a^4)")


def test_criterion_04_one_electron_reduction():
    cf = spectrum.closed_form(0.0)
    expected = math.sqrt(1 - (2 * ALPHA) ** 2)
    dev = abs(spectrum.energy_closed_form(cf) - expected) / expected
    report(4, dev <= 1e-12, f"sigma=0 energy vs sqrt(1-(2a)^2): rel dev {dev:.2e} <= 1e-12")


def test_criterion_05_clifford_suite():
    checks = {r.name: r for r in verify.clifford_checks()}
    exact = checks["clifford anticommutation, 15 pairs"].value == 0.0
    prod = clifford.GAMMA[0] @ clifford.GAMMA[1] @ clifford.GAMMA[2] @ clifford.GAMMA[3]
    product_ok = np.array_equal(clifford.GAMMA[5], -prod)
    report(5, exact and product_ok,
           "15 pairs machine-exact; gamma5 = (-1) * g0 g1 g2 g3 exactly "
           "(arbitrated phase -1; a -1j prefactor is inconsistent with these tables)")


def test_criterion_06_commutation_structure():
    params = ModelParams(sigma=0.23)
    rng = np.random.default_rng(20240801)
    rows = []
    while len(rows) < 20:
        row = rng.uniform(-2, 2, 4)
        if ConfigPoint(*row).min_radius() > 0.5:
            rows.append(row)
    batch = ConfigPoint(*np.array(rows).T)
    fields = [
        SpinorField.gaussian((0.1, -0.2, 0.3, 0.0), 2.0,
                             (0.3 + 0.4j, -0.2 + 0.1j, 0.7 - 0.3j, 0.5 + 0.6j),
                             winding=(1, -2), linear=(0.2, 0.0, -0.1, 0.05)),
        SpinorField.gaussian((-0.3, 0.1, 0.0, 0.25), 1.7,
                             (0.8, 0.1 - 0.5j, -0.4j, 0.2 + 0.2j), winding=(0, 1)),
        SpinorField.gaussian((0.0, 0.0, -0.2, -0.1), 2.4,
                             (0.5j, 0.6, -0.7, 0.3 - 0.1j), linear=(0.0, 0.15, 0.1, 0.0)),
    ]
    step = 1e-3

    def worst(rows):
        return float(np.abs(rows).max())

    res = max(worst(commutator_residual(params, [f], batch, step)[0]) for f in fields)
    res_half = max(worst(commutator_residual(params, [f], batch, step / 2)[0]) for f in fields)
    ratio = res / res_half
    extrap = abs(4 * res_half - res) / 3
    res_jz = max(worst(commutator_residual(params, [f], batch, step)[1]) for f in fields)
    ok = 3.5 <= ratio <= 4.5 and res_jz > 1e3 * extrap
    report(6, ok, f"[H,M] {res:.2e} -> {res_half:.2e} (ratio {ratio:.2f} in [3.5,4.5]); "
                  f"[H,Jz] {res_jz:.2e} > 1e3 * extrapolated [H,M] limit {extrap:.1e}")


def test_criterion_07_spectral_algebra():
    rng = np.random.default_rng(123)
    worst_det, worst_kernel = 0.0, 0.0
    draws = 0
    while draws < 100:
        g1v, g2v, sig, b2 = rng.uniform(0.2, 1.2, 4)
        sig = min(sig, 0.9)
        gr = radial.GammaRho(g1v, g2v)
        try:
            b1 = radial.beta1_from_determinant(gr, sig, b2)
        except radial.NoRealDecayError:
            continue
        draws += 1
        mat = radial.spectral_matrix(gr, sig, b1, b2)
        scale = np.abs(mat).max()
        worst_det = max(worst_det, abs(np.linalg.det(mat)) / scale**4)
        for vec in radial.kernel_vectors(gr, sig, b1, b2):
            worst_kernel = max(worst_kernel, float(np.abs(mat @ vec).max()) / scale)
    ok = worst_det <= 1e-12 and worst_kernel <= 1e-10
    report(7, ok, f"100 draws: det at beta1 root <= {worst_det:.1e} (tol 1e-12 * scale^4); "
                  f"kernel annihilation <= {worst_kernel:.1e} (tol 1e-10)")


def test_criterion_08_indicial_exponents():
    worst_at, worst_off = 0.0, math.inf
    for which, j in ((1, 1.0), (2, 1.0)):
        s_star = -0.5 + math.sqrt(j * j - 4 * ALPHA**2)
        worst_at = max(worst_at, abs(np.linalg.det(
            radial.indicial_matrix(which, j, s_star, ALPHA))))
        for ds in (0.01, -0.01):
            worst_off = min(worst_off, abs(np.linalg.det(
                radial.indicial_matrix(which, j, s_star + ds, ALPHA))))
    ok = worst_at <= 1e-12 and worst_off > 1e-6
    report(8, ok, f"determinants at s* <= {worst_at:.1e} (tol 1e-12); "
                  f"at s* +- 0.01 >= {worst_off:.1e} (nonzero)")


def test_criterion_09_structural_consistency():
    params = ModelParams(sigma=0.23)
    field = SpinorField.gaussian((0.1, -0.2, 0.3, 0.0), 2.0,
                                 (0.3 + 0.4j, -0.2 + 0.1j, 0.7 - 0.3j, 0.5 + 0.6j),
                                 winding=(1, -2), linear=(0.2, 0.0, -0.1, 0.05))
    point = ConfigPoint(1.1, 0.4, -0.8, 0.9)
    energy, step = 1.2, 1e-3
    g0 = clifford.GAMMA[0]
    f0, d = gradient(field, point, step)
    target = g0 @ (apply_H(params, point, f0, d) - energy * field(point))
    dev_rows = float(np.abs(component_system_residual(params, point, f0, d, energy)
                            - target).max())
    dev_cov = float(np.abs(covariant_form_residual(params, point, f0, d, energy)
                           - target).max())

    rng = np.random.default_rng(99)
    worst_rec = 0.0
    for _ in range(50):
        g1v, g2v, b1, b2 = rng.uniform(0.2, 2.0, 4)
        a00 = rng.uniform(-1, 1, 4)
        gr = radial.GammaRho(g1v, g2v)
        ansatz = radial.RadialAnsatz(beta1=b1, beta2=b2,
                                     a100=a00[0], a200=a00[1], a300=a00[2], a400=a00[3])
        rvec = radial.recurrence_R(params, gr, ansatz)
        svec = radial.spectral_matrix(gr, params.sigma, b1, b2) @ a00
        worst_rec = max(worst_rec, float(np.abs(rvec - svec).max() / np.abs(svec).max()))
    bound = 100 * step**2
    ok = dev_rows <= bound and dev_cov <= bound and worst_rec <= 1e-12
    report(9, ok, f"component rows vs g0(H-E): {dev_rows:.1e} <= O(step^2); "
                  f"covariant contraction: {dev_cov:.1e} <= O(step^2); "
                  f"recurrence vs spectral action: {worst_rec:.1e} <= 1e-12 relative")


def test_criterion_10_angular_separation():
    params = ModelParams(sigma=0.23)
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    profiles = [
        angular.RadialProfile(
            value=lambda r1, r2: np.exp(-((r1 - 1.0) ** 2 + (r2 - 1.3) ** 2) / 2),
            d_r1=lambda r1, r2: -(r1 - 1.0) * np.exp(-((r1 - 1.0) ** 2 + (r2 - 1.3) ** 2) / 2),
            d_r2=lambda r1, r2: -(r2 - 1.3) * np.exp(-((r1 - 1.0) ** 2 + (r2 - 1.3) ** 2) / 2),
        ),
        angular.RadialProfile.power_exponential(0.8, 1.0, 0.5, 0.9, 0.4),
        angular.RadialProfile.power_exponential(-0.6, 0.5, 1.0, 0.7, 0.8),
        angular.RadialProfile(
            value=lambda r1, r2: np.exp(-0.8 * r1 - 1.1 * r2) * (1 + 0.3 * r2),
            d_r1=lambda r1, r2: -0.8 * np.exp(-0.8 * r1 - 1.1 * r2) * (1 + 0.3 * r2),
            d_r2=lambda r1, r2: np.exp(-0.8 * r1 - 1.1 * r2) * (0.3 - 1.1 * (1 + 0.3 * r2)),
        ),
    ]
    angles = [(0.1 + 0.7 * k, 0.4 + 1.1 * k) for k in range(8)]
    rng = np.random.default_rng(7)
    worst = 0.0
    for r1, r2 in rng.uniform(0.6, 1.6, (10, 2)):
        scale = max(abs(prof.value(r1, r2)) for prof in profiles)
        rows = angular.separation_residual(params, assignment, profiles, 1.1,
                                           angles, (float(r1), float(r2)), 0.86, step=1e-5)
        worst = max(worst, float(np.abs(rows - rows[0]).max()) / scale)
    report(10, worst <= 1e-8,
           f"angle spread / field scale <= {worst:.1e} (tol 1e-8) over 8 angles x 10 radii, "
           "generic smooth profiles")


def test_criterion_11_consistency_oracle():
    sigmas = np.linspace(0.06, 0.49, 10)
    worst = 0.0
    table = dict.fromkeys(("squared", "unsquared"), 0.0)
    for sigma in sigmas:
        cf = spectrum.closed_form(float(sigma))
        e_ref = spectrum.energy_closed_form(cf)
        rho = spectrum.rho0_natural(cf)
        e_root = spectrum.energy_consistency_solve(float(sigma), rho, cf)
        worst = max(worst, abs(e_root - e_ref) / e_ref)
        for key in table:
            e_lit = spectrum.energy_shifted_literal(cf, rho, squared=key == "squared")
            table[key] = max(table[key], abs(e_lit - e_ref) / e_ref)
    ok = worst <= 1e-6 and table["squared"] <= 1e-9 and table["unsquared"] > 1e-6
    report(11, ok, f"root-finder vs closed form: rel dev {worst:.1e} <= 1e-6 at 10 sigmas; "
                   f"arbitration selects the SQUARED inner denominator "
                   f"(squared {table['squared']:.1e}, unsquared {table['unsquared']:.1e})")


def test_fig_shape_single_interior_minimum():
    # scan companion to criterion 1: a single interior well on (0.01, 0.5)
    (table,) = optimize.scan_sigma(0.01, 0.5, 60)  # 60 rows: one chunk
    values = table.delta_e
    imin = int(np.argmin(values))
    single_well = (np.count_nonzero(np.diff(np.sign(np.diff(values))) != 0) == 1
                   and 0 < imin < len(values) - 1)
    report("1b", single_well,
           f"sigma scan shows one interior minimum at sigma = {table.sigma[imin]:.4f}")
