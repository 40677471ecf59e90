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

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import angular, clifford, optimize, radial, spectrum
from .model import FINE_STRUCTURE_ALPHA, ModelParams
from .operators import (
    CANONICAL_ASSIGNMENT,
    E2_EXCHANGED_ASSIGNMENT,
    ConfigPoint,
    SpinorField,
    apply_H,
    commutator_residual,
    component_system_residual,
    covariant_form_residual,
    scan_derivative_assignments,
)


@dataclass(frozen=True)
class CheckResult:
    """One check: it passes when ``lo < value <= hi``; with neither bound it is
    informational, and still fails on NaN."""

    name: str
    value: float
    lo: float = -math.inf
    hi: float = math.inf
    note: str = ""

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


@dataclass
class VerifyReport:
    results: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list:
        out = [r.line() for r in self.results]
        n_fail = sum(not r.passed for r in self.results)
        out.append(f"{len(self.results) - n_fail}/{len(self.results)} checks passed")
        return out


def clifford_checks() -> list:
    g = {i: clifford.gamma(i) for i in clifford.GAMMA_INDICES}
    eye = np.eye(4)
    devs = {(mu, nu): float(np.abs(g[mu] @ g[nu] + g[nu] @ g[mu] - 2 * (mu == nu) * eye).max())
            for k, mu in enumerate(clifford.GAMMA_INDICES) for nu in clifford.GAMMA_INDICES[k:]}
    # max keeps the first of equal deviations, so a tie names the first pair in table order
    (mu, nu), dev = max(devs.items(), key=lambda item: item[1])
    results = [CheckResult("clifford anticommutation, 15 pairs", dev, hi=1e-14,
                           note=f"worst pair ({mu},{nu})")]
    unit = max(float(np.abs(g[i] @ g[i].conj().T - eye).max()) for i in clifford.GAMMA_INDICES)
    results.append(CheckResult("gamma unitarity", unit, hi=1e-14))
    dev = float(np.abs(g[5] + g[0] @ g[1] @ g[2] @ g[3]).max())
    results.append(CheckResult(
        "gamma5 product phase", dev, hi=0.0,
        note="gamma5 = -(g0 g1 g2 g3) exactly; a -1j prefactor does not hold"))
    a1 = float(np.abs(clifford.alpha_z(1) - (-1j) * g[5] @ g[3]).max())
    a2 = float(np.abs(clifford.alpha_z(2) - (-1j) * g[2] @ g[1]).max())
    results.append(CheckResult("alpha_z product identities", max(a1, a2), hi=1e-14,
                               note="alpha_z(2) = -i g2 g1 (reversed order)"))
    shift = float(np.abs(clifford.spin_shift_matrix() - np.diag([-1, 1, 0, 0])).max())
    results.append(CheckResult("spin shift diag(-1,1,0,0)", shift, hi=1e-14))
    return results


def _safe_points(n, seed, lo=0.5, box=2.0):
    """The first n draws in the box with every radius above lo, drawn 2n at a time."""
    rng = np.random.default_rng(seed)
    kept = np.empty((0, 4))
    while len(kept) < n:
        draws = rng.uniform(-box, box, (2 * n, 4))
        kept = np.concatenate([kept, draws[ConfigPoint(*draws.T).min_radius() > lo]])
    return [ConfigPoint(*row) for row in kept[:n]]


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
    points = _safe_points(20, seed=20240801)
    fields = _test_fields()
    results = []

    res_h, res_jz = commutator_residual("H", ("M", "Jz"), params, fields, points, step)
    res_h2 = commutator_residual("H", "M", params, fields, points, step / 2)
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
    g = {i: clifford.gamma(i) for i in (0, 1, 2, 3, 5)}
    s, a = params.sigma, params.alpha
    exact = (1 - s) * (1j * (g[3] @ d[0] - g[5] @ d[1]) - (2 * a / p.r1) * f0)
    exact = exact + 2 * s * (1j * (g[1] @ d[2] - g[2] @ d[3]) - (2 * a / p.r2) * f0)
    exact = exact + (1 + s) * (g[0] @ f0 + (a / p.r12) * f0)
    err = [float(np.abs(apply_H(params, wave, p, h) - exact).max()) for h in (step, step / 2)]
    results.append(CheckResult("plane-wave FD order (|ratio - 4|)", abs(err[0] / err[1] - 4),
                               hi=0.5, note=f"errors {err[0]:.2e} -> {err[1]:.2e}"))

    energy = 1.2
    g0 = clifford.gamma(0)
    batch = ConfigPoint.stack(points[:8])
    dev_cs = max(
        float(np.abs(component_system_residual(params, f, batch, step, energy)
                     - (apply_H(params, f, batch, step) - energy * f(batch)) @ g0.T).max())
        for f in fields
    )
    results.append(CheckResult("component expansion equals g0(H-E)", dev_cs, hi=1e-10))
    dev_cov = max(float(covariant_form_residual(params, f, batch, step, energy).max())
                  for f in fields)
    results.append(CheckResult("covariant contraction equals g0(H-E)", dev_cov, hi=1e-10))

    scan = scan_derivative_assignments()
    commuting = sum(r == 0.0 for _, r in scan)
    canon, swapped = (commutator_residual("H", "M", params, fields[0], points[:4], step, a)
                      for a in (CANONICAL_ASSIGNMENT, E2_EXCHANGED_ASSIGNMENT))
    results.append(CheckResult("canonical assignment in the exact commuting set",
                               dict(scan)[CANONICAL_ASSIGNMENT], hi=0.0))
    results.append(CheckResult(
        "canonical assignment commutes with M", canon / swapped, hi=1e-4,
        note=f"{commuting} of {len(scan)} variants commute; "
             f"canonical {canon:.1e} vs exchanged {swapped:.1e}"))
    return results


def angular_checks() -> list:
    step = 1e-5
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
    energy = 1.1
    rho0 = 0.86
    angles = [(0.1 + 0.7 * k, 0.4 + 1.1 * k) for k in range(8)]
    r1, r2 = np.random.default_rng(7).uniform(0.6, 1.6, (10, 2)).T
    spread = angular.separation_residual(params, assignment, profiles, energy,
                                         angles, (r1, r2), rho0, step)
    scale = np.max([np.abs(prof.value(r1, r2)) for prof in profiles], axis=0)
    worst_rel = np.max(spread / scale)
    p = angular.point_from_polar(r1, angles[0][0], r2, angles[0][1])
    fd = component_system_residual(params, angular.build_spinor(assignment, profiles),
                                   p, step, energy, rho_freeze=rho0)
    fd = fd / assignment.phase_vector(p.theta1, p.theta2)
    exact = angular.radial_system_residual(params, profiles, energy, rho0, (r1, r2))
    worst_dev = float(np.abs(fd - exact).max())
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
    spread_broken = angular.separation_residual(params, broken, profiles, energy,
                                                angles, (r1[0], r2[0]), rho0, step)
    results.append(CheckResult("mixed-sign phase variant fails to cancel", spread_broken,
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
    for which, j, s_star in zip((1, 2), (1.0, 1.0), radial.exponents(1.0, 1.0, alpha)):
        worst_at = max(worst_at, abs(np.linalg.det(radial.indicial_matrix(which, j, s_star, alpha))))
        for ds in (0.01, -0.01):
            worst_off = min(worst_off, abs(np.linalg.det(
                radial.indicial_matrix(which, j, s_star + ds, alpha))))
    results.append(CheckResult("indicial determinants vanish at s*", worst_at, hi=1e-12))
    results.append(CheckResult("indicial determinants nonzero at s* +- 0.01", worst_off, lo=1e-5))

    k1 = radial.indicial_kernel(1, 1.0, alpha)
    results.append(CheckResult("indicial kernel two-form agreement",
                               abs(k1.ratio - k1.ratio_alt) / abs(k1.ratio), hi=1e-10))
    angles = np.degrees(radial.indicial_kernel_angles(1.0, 1.0, alpha))
    results.append(CheckResult(
        "indicial kernel compatibility angles (deg)", float(angles.max()),
        note=f"principal angles {angles.round(4).tolist()}; joint kernel is trivial"))

    rng = np.random.default_rng(20240802)
    g1v, g2v, sig, b1, b2 = rng.uniform(0.2, 2.5, (100, 5)).T
    gr = radial.GammaRho(g1v, g2v)
    det = np.linalg.det(radial.spectral_matrix(gr, sig, b1, b2))
    fac = radial.spectral_quadratic(gr, sig, b1, b2) ** 2
    worst = np.max(np.abs(det - fac) / np.maximum(np.abs(fac), 1e-30))
    results.append(CheckResult("spectral determinant factorization (100 draws)", worst, hi=1e-10))

    g1v, g2v, sig, b2 = rng.uniform(0.2, 1.2, (100, 4)).T
    sig = np.minimum(sig, 0.9)
    real = radial.spectral_quadratic(radial.GammaRho(g1v, g2v), sig, 0.0, b2) >= 0
    gr, sig, b2 = radial.GammaRho(g1v[real], g2v[real]), sig[real], b2[real]
    b1 = radial.beta1_from_determinant(gr, sig, b2)
    mat = radial.spectral_matrix(gr, sig, b1, b2)
    scale = np.abs(mat).max(axis=(-2, -1))
    worst = max(np.max(np.abs(_matvec(mat, vec)).max(axis=-1) / scale)
                for vec in radial.kernel_vectors(gr, sig, b1, b2))
    results.append(CheckResult("kernel vectors annihilated", worst, hi=1e-10))

    params = ModelParams(sigma=0.3)
    # per draw: gamma1, gamma2, beta1, beta2 in [0.2, 2], then a100..a400 in [-1, 1]
    draws = rng.uniform([0.2] * 4 + [-1] * 4, [2.0] * 4 + [1] * 4, (50, 8))
    g1v, g2v, b1, b2 = draws[:, :4].T
    gr = radial.GammaRho(g1v, g2v)
    a00 = draws[:, 4:]
    rvec = radial.recurrence_R(params, gr, radial.RadialAnsatz(b1, b2, *a00.T))
    svec = _matvec(radial.spectral_matrix(gr, params.sigma, b1, b2), a00)
    worst = np.max(np.abs(rvec - svec).max(axis=-1) / np.abs(svec).max(axis=-1))
    results.append(CheckResult("recurrence reduces to spectral matrix", worst, hi=1e-12))

    # a draw with no real decay rate takes no coefficient draws
    draws = []
    for _ in range(50):
        g = rng.uniform(0.2, 1.2, 3)
        if radial.spectral_quadratic(radial.GammaRho(g[0], g[1]), params.sigma, 0.0, g[2]) >= 0:
            draws.append(np.concatenate([g, rng.uniform(-1, 1, 8)]))
    # the drawn a410 is unused: the contraction form holds for a410 = 0
    g1v, g2v, b2, a110, a210, a310, _, a100, a200, a300, a400 = np.array(draws).T
    gr = radial.GammaRho(g1v, g2v)
    b1 = radial.beta1_from_determinant(gr, params.sigma, b2)
    ansatz = radial.RadialAnsatz(b1, b2, a100, a200, a300, a400)
    rvec = radial.recurrence_R(params, gr, ansatz, a110, a210, a310)
    psi1, _ = radial.kernel_vectors(gr, params.sigma, b1, b2)
    direct = _matvec(psi1[:, None, :], rvec)[:, 0]
    form = radial.kernel_contraction(params, gr, b1, b2, a110, a210, a310)
    worst = np.max(np.abs(direct - form) / np.maximum(np.abs(form), 1e-12))
    results.append(CheckResult("kernel contraction equals dot product", worst, hi=1e-10))
    return results


def spectrum_checks() -> list:
    alpha = FINE_STRUCTURE_ALPHA
    results = []
    sigmas = np.random.default_rng(42).uniform(0.01, 1.0, 20)
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

    sigmas = np.linspace(0.06, 0.49, 10)
    table = spectrum.arbitration_table(sigmas)
    results.append(CheckResult("consistency root vs closed form", table["default"], hi=1e-6,
                               note="fundamental denominator: default reading selected"))
    for variant in ("alt-weight", "alt-shift"):
        results.append(CheckResult(f"{variant} denominator rejected", table[variant], lo=1e-6,
                                   note="disagrees with the closed form"))
    results.append(CheckResult("energy relation inner denominator: squared", table["squared"],
                               hi=1e-9, note="squared reading selected"))
    results.append(CheckResult("energy relation unsquared reading rejected", table["unsquared"],
                               lo=1e-7))

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


def run_all(fast: bool = False) -> VerifyReport:
    """Full verification battery; ``fast`` skips the operator and angular batteries."""
    report = VerifyReport()
    report.results += clifford_checks()
    if not fast:
        report.results += operator_checks()
        report.results += angular_checks()
    report.results += radial_checks()
    report.results += spectrum_checks()
    report.results += optimizer_checks()
    return report
