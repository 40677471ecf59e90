"""Verification battery: every structural identity of the model, checked
numerically against explicit bounds.

Each check returns a CheckResult, which passes when ``lo < value <= hi``
and prints the bound it compared; a check with neither bound is
informational.  ``run_all`` aggregates them into the report printed by
the command-line ``verify`` command.  The report also
states the outcome of the convention arbitrations: the gamma-product
phase, the derivative assignment that commutes with M, and the reading of
the energy relation selected by the consistency root-finder.
"""

import math
from collections import namedtuple

import numpy as np

from . import angular, optimize, radial, spectrum
from .clifford import ALPHA_Z, GAMMA, GAMMA_INDICES, SPIN_SHIFT
from .model import FINE_STRUCTURE_ALPHA, ModelParams, exponents
from .operators import (
    CANONICAL_ASSIGNMENT,
    E2_EXCHANGED_ASSIGNMENT,
    ConfigPoint,
    SpinorField,
    apply_H,
    commutator_residual,
    component_system_residual,
    covariant_form_residual,
    gradient,
    scan_derivative_assignments,
)


class CheckResult(namedtuple("CheckResult", "name value lo hi note",
                             defaults=(-math.inf, math.inf, ""))):
    """One check: it passes when ``lo < value <= hi``; with neither bound it is
    informational, and still fails on NaN."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return bool(self.lo < self.value <= self.hi)

    def bound(self) -> str:
        if self.lo == -math.inf:
            return "" if self.hi == math.inf else f"<= {self.hi:g}"
        return f"> {self.lo:g}" if self.hi == math.inf else f"in ({self.lo:g}, {self.hi:g}]"

    def line(self) -> str:
        bound = self.bound()
        status = "FAIL" if not self.passed else "PASS" if bound else "INFO"
        text = f"[{status}] {self.name}: value {self.value:.3e}" + (f" {bound}" if bound else "")
        if self.note:
            text += f" -- {self.note}"
        return text


class VerifyReport(namedtuple("VerifyReport", "results", defaults=((),))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list:
        out = [r.line() for r in self.results]
        n_fail = sum(not r.passed for r in self.results)
        out.append(f"{len(self.results) - n_fail}/{len(self.results)} checks passed")
        return out


def clifford_checks() -> list:
    eye = np.eye(4)
    devs = {(mu, nu): float(np.abs(GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
                                   - 2 * (mu == nu) * eye).max())
            for k, mu in enumerate(GAMMA_INDICES) for nu in GAMMA_INDICES[k:]}
    # max keeps the first of equal deviations, so a tie names the first pair in table order
    (mu, nu), dev = max(devs.items(), key=lambda item: item[1])
    results = [CheckResult("clifford anticommutation, 15 pairs", dev, hi=1e-14,
                           note=f"worst pair ({mu},{nu})")]
    unit = max(float(np.abs(GAMMA[i] @ GAMMA[i].conj().T - eye).max()) for i in GAMMA_INDICES)
    results.append(CheckResult("gamma unitarity", unit, hi=1e-14))
    dev = float(np.abs(GAMMA[5] + GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]).max())
    results.append(CheckResult(
        "gamma5 product phase", dev, hi=0.0,
        note="gamma5 = -(g0 g1 g2 g3) exactly; a -1j prefactor does not hold"))
    a1 = float(np.abs(ALPHA_Z[1] - (-1j) * GAMMA[5] @ GAMMA[3]).max())
    a2 = float(np.abs(ALPHA_Z[2] - (-1j) * GAMMA[2] @ GAMMA[1]).max())
    results.append(CheckResult("alpha_z product identities", max(a1, a2), hi=1e-14,
                               note="alpha_z(2) = -i g2 g1 (reversed order)"))
    shift = float(np.abs(SPIN_SHIFT - np.diag([-1, 1, 0, 0])).max())
    results.append(CheckResult("spin shift diag(-1,1,0,0)", shift, hi=1e-14))
    return results


def _box_points(n, box) -> np.ndarray:
    """n fixed rows in a box of d (lo, hi) pairs: the R_d low-discrepancy sequence
    frac(0.5 + i phi^-k), i = 1..n, k = 1..d, phi the positive root of x^(d+1) = x + 1."""
    lo, hi = np.array(box, dtype=float).T
    phi = 2.0
    for _ in range(64):  # fixed-point iteration; each step shrinks the error by more than half
        phi = (1 + phi) ** (1 / (len(box) + 1))
    unit = (0.5 + np.outer(np.arange(1, n + 1), phi ** -np.arange(1.0, len(box) + 1))) % 1
    return lo + (hi - lo) * unit


def _safe_points(n):
    """The first n of 2n fixed rows (x1, y1, x2, y2) in [-2, 2]^4 with every radius above 0.5."""
    rows = _box_points(2 * n, [(-2, 2)] * 4)
    return rows[ConfigPoint(*rows.T).min_radius() > 0.5][:n]


def _test_fields():
    return [
        SpinorField.gaussian((0.1, -0.2, 0.3, 0.0), 2.0,
                             (0.3 + 0.4j, -0.2 + 0.1j, 0.7 - 0.3j, 0.5 + 0.6j),
                             winding=(1, -2), linear=(0.2, 0.0, -0.1, 0.05)),
        SpinorField.gaussian((-0.3, 0.1, 0.0, 0.25), 1.7,
                             (0.8, 0.1 - 0.5j, -0.4j, 0.2 + 0.2j), winding=(0, 1)),
        SpinorField.gaussian((0.0, 0.0, -0.2, -0.1), 2.4,
                             (0.5j, 0.6, -0.7, 0.3 - 0.1j), linear=(0.0, 0.15, 0.1, 0.0)),
    ]


def operator_checks() -> list:
    step = 1e-3
    params = ModelParams(sigma=0.23)
    rows = _safe_points(20)
    batch = ConfigPoint(*rows.T)
    fields = _test_fields()
    results = []

    hm, hjz = commutator_residual(params, fields, batch, step)
    hm_half, _ = commutator_residual(params, fields, batch, step / 2)
    res_h, res_jz, res_h2 = (float(np.abs(r).max()) for r in (hm, hjz, hm_half))
    ratio = res_h / res_h2
    results.append(CheckResult("[H,M] second-order decay (|ratio - 4|)", abs(ratio - 4), hi=0.5,
                               note=f"residuals {res_h:.2e} -> {res_h2:.2e}"))
    extrap = abs(4 * res_h2 - res_h) / 3
    results.append(CheckResult("[H,M] limit below [H,Jz] by 1e3", 1e3 * extrap / res_jz, hi=1.0,
                               note=f"[H,Jz] -> {res_jz:.3e}, [H,M] extrapolates to {extrap:.1e}"))

    kvec = (0.6, -0.4, 0.3, 0.8)
    wave = SpinorField.plane_wave(kvec, (1, 1, 1, 1))
    p = ConfigPoint(1.1, 0.4, -0.8, 0.9)
    f0 = wave(p)
    d = [1j * kvec[ax] * f0 for ax in range(4)]
    s, a = params.sigma, params.alpha
    exact = (1 - s) * (1j * (GAMMA[3] @ d[0] - GAMMA[5] @ d[1]) - (2 * a / p.r1) * f0)
    exact = exact + 2 * s * (1j * (GAMMA[1] @ d[2] - GAMMA[2] @ d[3]) - (2 * a / p.r2) * f0)
    exact = exact + (1 + s) * (GAMMA[0] @ f0 + (a / p.r12) * f0)
    err = [float(np.abs(apply_H(params, p, *gradient(wave, p, h)) - exact).max())
           for h in (step, step / 2)]
    results.append(CheckResult("plane-wave FD order (|ratio - 4|)", abs(err[0] / err[1] - 4),
                               hi=0.5, note=f"errors {err[0]:.2e} -> {err[1]:.2e}"))

    energy = 1.2
    batch = ConfigPoint(*rows[:8].T)
    # the fields' stencil passes concatenated along the point axis, as in commutator_residual
    f0, d = (np.concatenate(v, axis=-2) for v in zip(*(gradient(f, batch, step) for f in fields)))
    batch = ConfigPoint(*np.tile(rows[:8], (len(fields), 1)).T)
    target = (apply_H(params, batch, f0, d) - energy * f0) @ GAMMA[0].T
    component_gap, covariant_gap = (float(np.abs(lhs - target).max()) for lhs in (
        component_system_residual(params, batch, f0, d, energy),
        covariant_form_residual(params, batch, f0, d, energy)))
    results.append(CheckResult("component expansion equals g0(H-E)", component_gap, hi=1e-10))
    results.append(CheckResult("covariant contraction equals g0(H-E)", covariant_gap, hi=1e-10))

    scan = scan_derivative_assignments()
    commuting = sum(r == 0.0 for _, r in scan)
    # the first field on the first 4 points: canonical rows from the full-step call above
    canon = float(np.abs(hm[0, :4]).max())
    swapped = float(np.abs(commutator_residual(params, fields[:1], ConfigPoint(*rows[:4].T), step,
                                               E2_EXCHANGED_ASSIGNMENT)[0]).max())
    results.append(CheckResult("canonical assignment in the exact commuting set",
                               dict(scan)[CANONICAL_ASSIGNMENT], hi=0.0))
    results.append(CheckResult(
        "canonical assignment commutes with M", canon / swapped, hi=1e-4,
        note=f"{commuting} of {len(scan)} variants commute; "
             f"canonical {canon:.1e} vs exchanged {swapped:.1e}"))
    return results


def _angle_spread(rows) -> np.ndarray:
    """Largest deviation of rows S + (A, 4) from their first angle sample, shape S."""
    return np.abs(rows - rows[..., :1, :]).max(axis=(-2, -1))


def angular_checks() -> list:
    step = 1e-5
    params = ModelParams(sigma=0.23)
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    profiles = [
        lambda r1, r2: np.exp(-((r1 - 1.0) ** 2 + (r2 - 1.3) ** 2) / 2),
        angular.power_exponential(0.8, 1.0, 0.5, 0.9, 0.4),
        angular.power_exponential(-0.6, 0.5, 1.0, 0.7, 0.8),
        lambda r1, r2: np.exp(-0.8 * r1 - 1.1 * r2) * (1 + 0.3 * r2),
    ]
    energy = 1.1
    rho0 = 0.86
    angles = [(0.1 + 0.7 * k, 0.4 + 1.1 * k) for k in range(8)]
    r1, r2 = _box_points(10, [(0.6, 1.6)] * 2).T
    rows = angular.separation_residual(params, assignment, profiles, energy,
                                       angles, (r1, r2), rho0, step)
    scale = np.max([np.abs(prof(r1, r2)) for prof in profiles], axis=0)
    worst_rel = np.max(_angle_spread(rows) / scale)
    exact = angular.radial_system_residual(params, profiles, energy, rho0, (r1, r2))
    worst_dev = float(np.abs(rows[:, 0] - exact).max())
    results = [
        CheckResult("angular cancellation spread / field scale", worst_rel, hi=1e-8,
                    note="8 angles x 10 radial points, canonical phases"),
        CheckResult("radial rows equal angle-frozen evaluation", worst_dev, hi=1e-7),
    ]

    broken = angular.PhaseAssignment(pairs=(
        (params.j1 + 0.5, -(params.j2 + 0.5)),
        (params.j1 - 0.5, params.j2 + 0.5),
        (params.j1 - 0.5, params.j2 - 0.5),
        (params.j1 + 0.5, -(params.j2 - 0.5)),
    ))
    broken_rows = angular.separation_residual(params, broken, profiles, energy,
                                              angles, (r1[:1], r2[:1]), rho0, step)
    results.append(CheckResult("mixed-sign phase variant fails to cancel",
                               float(_angle_spread(broken_rows)[0]),
                               lo=1e-3, note="contrast case for the assignment search"))

    ladder = angular.find_cancelling_assignments(params.j1, params.j2)
    in_band = [a for a in ladder if a.in_half_step_band(params.j1, params.j2)]
    # 0 exactly when the canonical assignment is the one in-band solution
    results.append(CheckResult(
        "phase assignment search", len(set(in_band) ^ {assignment}), hi=0,
        note=f"{len(ladder)} winding ladders cancel; unique in-band solution is canonical"))
    return results


def _matvec(mats, vecs) -> np.ndarray:
    """Stacked matrix-vector products, term for term as one ``mat @ vec`` each."""
    return (mats @ vecs[..., None])[..., 0]


def radial_checks() -> list:
    alpha = FINE_STRUCTURE_ALPHA
    results = []
    worst_at = 0.0
    worst_off = math.inf
    for which, j, s_star in zip((1, 2), (1.0, 1.0), exponents(1.0, 1.0, alpha)):
        m = radial.indicial_matrix(which, j, s_star, alpha)
        if which == 1:  # a300/a100 from the third row (v/2 alpha) and from the first (2 alpha/u)
            ratio, ratio_alt = -m[2, 0] / m[2, 2], -m[0, 0] / m[0, 2]
        worst_at = max(worst_at, abs(np.linalg.det(m)))
        for ds in (0.01, -0.01):
            worst_off = min(worst_off, abs(np.linalg.det(
                radial.indicial_matrix(which, j, s_star + ds, alpha))))
    results.append(CheckResult("indicial determinants vanish at s*", worst_at, hi=1e-12))
    results.append(CheckResult("indicial determinants nonzero at s* +- 0.01", worst_off, lo=1e-5))

    results.append(CheckResult("indicial kernel two-form agreement",
                               abs(ratio - ratio_alt) / abs(ratio), hi=1e-10))
    angles = np.degrees(radial.indicial_kernel_angles(1.0, 1.0, alpha))
    results.append(CheckResult(
        "indicial kernel compatibility angles (deg)", float(angles.max()),
        note=f"principal angles {angles.round(4).tolist()}; joint kernel is trivial"))

    g1v, g2v, sig, b1, b2 = _box_points(100, [(0.2, 2.5)] * 5).T
    det = np.linalg.det(radial.spectral_matrix(g1v, g2v, sig, b1, b2))
    fac = radial.spectral_quadratic(g1v, g2v, sig, b1, b2) ** 2
    worst = np.max(np.abs(det - fac) / np.maximum(np.abs(fac), 1e-30))
    results.append(CheckResult("spectral determinant factorization (100 draws)", worst, hi=1e-10))

    g1v, g2v, sig, b2 = _box_points(100, [(0.2, 1.2)] * 4).T
    sig = np.minimum(sig, 0.9)
    real = radial.spectral_quadratic(g1v, g2v, sig, 0.0, b2) >= 0
    g1v, g2v, sig, b2 = g1v[real], g2v[real], sig[real], b2[real]
    b1 = radial.beta1_from_determinant(g1v, g2v, sig, b2)
    mat = radial.spectral_matrix(g1v, g2v, sig, b1, b2)
    scale = np.abs(mat).max(axis=(-2, -1))
    worst = max(np.max(np.abs(_matvec(mat, vec)).max(axis=-1) / scale)
                for vec in radial.kernel_vectors(g2v, sig, b1, b2))
    results.append(CheckResult("kernel vectors annihilated", worst, hi=1e-10))

    params = ModelParams(sigma=0.3)
    # per point: gamma1, gamma2, beta1, beta2, then a100..a400
    draws = _box_points(50, [(0.2, 2.0)] * 4 + [(-1, 1)] * 4)
    g1v, g2v, b1, b2 = draws[:, :4].T
    a00 = draws[:, 4:]
    rvec = radial.recurrence_R(params, g1v, g2v, b1, b2, a00)
    svec = _matvec(radial.spectral_matrix(g1v, g2v, params.sigma, b1, b2), a00)
    worst = np.max(np.abs(rvec - svec).max(axis=-1) / np.abs(svec).max(axis=-1))
    results.append(CheckResult("recurrence reduces to spectral matrix", worst, hi=1e-12))

    # gamma1, gamma2, beta2, a110..a310, a100..a400 (a410 = 0); no real decay rate drops a point
    draws = _box_points(50, [(0.2, 1.2)] * 3 + [(-1, 1)] * 7)
    real = radial.spectral_quadratic(*draws[:, :2].T, params.sigma, 0.0, draws[:, 2]) >= 0
    g1v, g2v, b2, a110, a210, a310 = draws[real, :6].T
    b1 = radial.beta1_from_determinant(g1v, g2v, params.sigma, b2)
    rvec = radial.recurrence_R(params, g1v, g2v, b1, b2, draws[real, 6:], a110, a210, a310)
    psi1, _ = radial.kernel_vectors(g2v, params.sigma, b1, b2)
    direct = _matvec(psi1[:, None, :], rvec)[:, 0]
    form = radial.kernel_contraction(params, g2v, b1, b2, a110, a210, a310)
    worst = np.max(np.abs(direct - form) / np.maximum(np.abs(form), 1e-12))
    results.append(CheckResult("kernel contraction equals dot product", worst, hi=1e-10))
    return results


def spectrum_checks() -> list:
    alpha = FINE_STRUCTURE_ALPHA
    results = []
    sigmas = _box_points(20, [(0.01, 1.0)])[:, 0]
    cf = spectrum.closed_form(sigmas)
    # compare in energy units: the Hartree-direction division by
    # alpha^2 amplifies the last-place rounding of E itself
    e_direct = spectrum.energy_closed_form(cf)
    e_rebuilt = (1 + sigmas) + alpha**2 * spectrum.delta_e(cf)
    worst_de = float(np.max(np.abs(e_rebuilt - e_direct) / e_direct))
    worst_c1 = float(np.max(np.abs(cf.c1 - cf.bracket * cf.c2) / cf.c1))
    pt = spectrum.equilibrium_point(sigmas)
    worst_geom = float(max(np.max(np.abs(pt.rho0 - (pt.r10 + pt.r20)) / pt.rho0),
                           np.max(np.abs(pt.r10 - pt.sigma * pt.r20) / pt.r10)))
    results.append(CheckResult("excess energy two-path identity", worst_de, hi=1e-12))
    results.append(CheckResult("C1 = B * C2 identity", worst_c1, hi=1e-12))
    results.append(CheckResult("equilibrium geometry identities", worst_geom, hi=1e-12))

    cf0 = spectrum.closed_form(0.0)
    dev0 = abs(spectrum.energy_closed_form(cf0) - math.sqrt(1 - 4 * alpha**2))
    results.append(CheckResult("one-electron reduction at sigma = 0", dev0, hi=1e-12,
                               note="closed form vs m sqrt(1 - (2 alpha)^2)"))

    points = [(cf, spectrum.energy_closed_form(cf), spectrum.rho0_natural(cf))
              for cf in map(spectrum.closed_form, np.linspace(0.06, 0.49, 10).tolist())]

    def worst(energy):  # relative deviation of a reading from the closed-form energy
        try:
            return max(abs(energy(cf, rho) - e_ref) / abs(e_ref) for cf, e_ref, rho in points)
        except spectrum.NoRootInBracketError:
            return math.inf  # a reading without a root

    def root(variant):
        return worst(lambda cf, rho: spectrum.energy_consistency_solve(cf.sigma, rho, cf, variant))

    results.append(CheckResult("consistency root vs closed form", root("default"), hi=1e-6,
                               note="fundamental denominator: default reading selected"))
    for variant in radial.FUNDAMENTAL_DENOMINATORS[1:]:
        results.append(CheckResult(f"{variant} denominator rejected", root(variant), lo=1e-6,
                                   note="disagrees with the closed form"))
    results.append(CheckResult("energy relation inner denominator: squared",
                               worst(spectrum.energy_shifted_literal), hi=1e-9,
                               note="squared reading selected"))
    results.append(CheckResult(
        "energy relation unsquared reading rejected",
        worst(lambda cf, rho: spectrum.energy_shifted_literal(cf, rho, squared=False)), lo=1e-7))

    limit = spectrum.ion_limit()
    approach = np.array([1e-2, 1e-3, 1e-4])
    worst = float(np.max(np.abs(spectrum.delta_e(spectrum.closed_form(approach)) - limit)
                         / (10 * approach)))
    results.append(CheckResult("ion limit approach rate", worst, hi=1.0,
                               note=f"limit {limit:.6f} = -2 - 2 alpha^2 + O(alpha^4)"))
    return results


def optimizer_checks() -> list:
    result = optimize.minimize_delta_e((0.05, 0.5), tol=1e-6)
    pt = result.point
    checks = [
        CheckResult("ground-state sigma0 in [0.1765, 0.1785]", pt.sigma, lo=0.1765, hi=0.1785,
                    note=f"sigma0 = {pt.sigma:.6f}"),
        CheckResult("ground-state excess energy in [-2.911, -2.901]", pt.delta_e,
                    lo=-2.911, hi=-2.901, note=f"delta_e = {pt.delta_e:.6f}"),
    ]
    for name, centre in (("r10", 0.130), ("r20", 0.732), ("rho0", 0.862)):
        x = getattr(pt, name)
        checks.append(CheckResult(f"equilibrium {name} = {centre:.3f} +- 0.005", abs(x - centre),
                                  hi=0.005, note=f"{name} = {x:.4f}"))
    return checks


def run_all() -> VerifyReport:
    """The verification battery: clifford, operator, angular, radial, spectrum and
    optimizer checks, in that order."""
    return VerifyReport([*clifford_checks(), *operator_checks(), *angular_checks(),
                         *radial_checks(), *spectrum_checks(), *optimizer_checks()])
