import dataclasses
import math
import re

import numpy as np
import pytest

from hespinor import angular, cli, optimize, radial, spectrum, verify
from hespinor.model import ModelParams
from hespinor.operators import ConfigPoint

CHECK_NAMES = [
    "clifford anticommutation, 15 pairs",
    "gamma unitarity",
    "gamma5 product phase",
    "alpha_z product identities",
    "spin shift diag(-1,1,0,0)",
    "[H,M] second-order decay (|ratio - 4|)",
    "[H,M] limit below [H,Jz] by 1e3",
    "plane-wave FD order (|ratio - 4|)",
    "component expansion equals g0(H-E)",
    "covariant contraction equals g0(H-E)",
    "canonical assignment in the exact commuting set",
    "canonical assignment commutes with M",
    "angular cancellation spread / field scale",
    "radial rows equal angle-frozen evaluation",
    "mixed-sign phase variant fails to cancel",
    "phase assignment search",
    "indicial determinants vanish at s*",
    "indicial determinants nonzero at s* +- 0.01",
    "indicial kernel two-form agreement",
    "indicial kernel compatibility angles (deg)",
    "spectral determinant factorization (100 draws)",
    "kernel vectors annihilated",
    "recurrence reduces to spectral matrix",
    "kernel contraction equals dot product",
    "excess energy two-path identity",
    "C1 = B * C2 identity",
    "equilibrium geometry identities",
    "one-electron reduction at sigma = 0",
    "consistency root vs closed form",
    "alt-weight denominator rejected",
    "alt-shift denominator rejected",
    "energy relation inner denominator: squared",
    "energy relation unsquared reading rejected",
    "ion limit approach rate",
    "ground-state sigma0 in [0.1765, 0.1785]",
    "ground-state excess energy in [-2.911, -2.901]",
    "equilibrium r10 = 0.130 +- 0.005",
    "equilibrium r20 = 0.732 +- 0.005",
    "equilibrium rho0 = 0.862 +- 0.005",
]


def test_full_battery_passes_every_check_in_order():
    report = verify.run_all()
    assert [r.name for r in report.results] == CHECK_NAMES
    assert [r.name for r in report.results if not r.passed] == []
    assert [r.name for r in report.results if not r.bound()] == [
        "indicial kernel compatibility angles (deg)"]
    for r in report.results:  # every printed bound is the number compared
        printed = [float(x) for x in re.findall(r"-?\d[\d.e+-]*", r.bound())]
        assert printed == [b for b in (r.lo, r.hi) if math.isfinite(b)], r.name
    notes = {r.name: r.note for r in report.results}
    assert notes["canonical assignment commutes with M"].startswith("16 of 64 variants commute")
    assert notes["phase assignment search"].startswith("9 winding ladders cancel")


def test_assignment_check_needs_canonical_in_exact_set(monkeypatch):
    # the FD ratio alone still passes; the exact scan must also list the canonical variant
    exact = verify.scan_derivative_assignments()
    monkeypatch.setattr(verify, "scan_derivative_assignments", lambda: [
        (a, 2.0 if a == verify.CANONICAL_ASSIGNMENT else r) for a, r in exact])
    checks = {r.name: r for r in verify.operator_checks()}
    assert not checks["canonical assignment in the exact commuting set"].passed
    assert checks["canonical assignment in the exact commuting set"].value == 2.0
    assert checks["canonical assignment commutes with M"].passed


def test_phase_search_fails_without_the_canonical_solution(monkeypatch):
    ladder = angular.find_cancelling_assignments
    monkeypatch.setattr(angular, "find_cancelling_assignments", lambda j1, j2: [
        a for a in ladder(j1, j2) if a != angular.PhaseAssignment.canonical(j1, j2)])
    checks = {r.name: r for r in verify.angular_checks()}
    assert checks["phase assignment search"].value == 1
    assert not checks["phase assignment search"].passed


@pytest.mark.parametrize("lo, hi, inside", [
    (-math.inf, 1e-10, 0.0),
    (1e-6, math.inf, 1.0),
    (0.1765, 0.1785, 0.177),
    (-math.inf, math.inf, 90.0),
], ids=["upper", "lower", "window", "none"])
def test_check_passes_exactly_when_lo_below_value_at_most_hi(lo, hi, inside):
    def passed(value):
        return verify.CheckResult("c", value, lo=lo, hi=hi).passed

    assert passed(inside)
    assert not passed(math.nan)
    if hi < math.inf:
        assert passed(hi)  # the upper edge is inclusive
        assert not passed(math.nextafter(hi, math.inf))
    if lo > -math.inf:
        assert not passed(math.nextafter(lo, -math.inf))
        assert not passed(lo)  # the lower edge is exclusive
        assert passed(math.nextafter(lo, math.inf))


@pytest.mark.parametrize("lo, hi, bound", [
    (-math.inf, 1e-14, "<= 1e-14"),
    (-math.inf, 0.0, "<= 0"),
    (1e-3, math.inf, "> 0.001"),
    (-2.911, -2.901, "in (-2.911, -2.901]"),
    (-math.inf, math.inf, ""),
])
def test_line_prints_the_compared_bound(lo, hi, bound):
    check = verify.CheckResult("c", 0.5, lo=lo, hi=hi, note="n")
    assert check.bound() == bound
    assert check.line().endswith(f"value 5.000e-01{' ' + bound if bound else ''} -- n")


def test_informational_check_prints_info_and_fails_only_on_nan():
    report = verify.VerifyReport([verify.CheckResult("angles", 89.99)])
    assert report.lines() == ["[INFO] angles: value 8.999e+01", "1/1 checks passed"]
    report = verify.VerifyReport([verify.CheckResult("angles", math.nan)])
    assert report.lines() == ["[FAIL] angles: value nan", "0/1 checks passed"]


def _accept_alt_weight(monkeypatch):
    table = spectrum.arbitration_table
    monkeypatch.setattr(spectrum, "arbitration_table",
                        lambda sigmas: {**table(sigmas), "alt-weight": 0.0})


def _sigma0_at_lower_edge(monkeypatch):
    minimize = optimize.minimize_delta_e
    monkeypatch.setattr(optimize, "minimize_delta_e", lambda *a, **k: dataclasses.replace(
        minimize(*a, **k), point=spectrum.equilibrium_point(0.1765)))


def _nan_kernel_angles(monkeypatch):
    monkeypatch.setattr(radial, "indicial_kernel_angles", lambda *a: np.full(2, np.nan))


# an upper bound failing the command: test_cli's gamma sign flip
@pytest.mark.parametrize("fault, failed", [
    (_accept_alt_weight, "[FAIL] alt-weight denominator rejected: value 0.000e+00 > 1e-06"),
    (_sigma0_at_lower_edge, "[FAIL] ground-state sigma0 in [0.1765, 0.1785]: "
                            "value 1.765e-01 in (0.1765, 0.1785]"),
    (_nan_kernel_angles, "[FAIL] indicial kernel compatibility angles (deg): value nan"),
], ids=["lower", "window", "none"])
def test_each_bound_form_fails_the_command(monkeypatch, capsys, fault, failed):
    fault(monkeypatch)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith(failed) for line in out.splitlines()), out


def _per_draw_radial_values(seed=20240802):
    """The four random-draw identities of the radial battery, one scalar draw at a time."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("factorization", "kernel", "recurrence", "contraction"), 0.0)
    for _ in range(100):
        g1v, g2v, sig, b1, b2 = rng.uniform(0.2, 2.5, 5)
        gr = radial.GammaRho(gamma1=g1v, gamma2=g2v)
        det = np.linalg.det(radial.spectral_matrix(gr, sig, b1, b2))
        fac = radial.spectral_quadratic(gr, sig, b1, b2) ** 2
        worst["factorization"] = max(worst["factorization"], abs(det - fac) / max(abs(fac), 1e-30))
    for _ in range(100):
        g1v, g2v, sig, b2 = rng.uniform(0.2, 1.2, 4)
        sig = min(sig, 0.9)
        try:
            b1 = radial.beta1_from_determinant(radial.GammaRho(g1v, g2v), sig, b2)
        except radial.NoRealDecayError:
            continue
        gr = radial.GammaRho(g1v, g2v)
        mat = radial.spectral_matrix(gr, sig, b1, b2)
        scale = float(np.abs(mat).max())
        for vec in radial.kernel_vectors(gr, sig, b1, b2):
            worst["kernel"] = max(worst["kernel"], float(np.abs(mat @ vec).max()) / scale)
    params = ModelParams(sigma=0.3)
    for _ in range(50):
        g1v, g2v, b1, b2 = rng.uniform(0.2, 2.0, 4)
        gr = radial.GammaRho(g1v, g2v)
        a00 = rng.uniform(-1, 1, 4)
        ansatz = radial.RadialAnsatz(beta1=b1, beta2=b2,
                                     a100=a00[0], a200=a00[1], a300=a00[2], a400=a00[3])
        rvec = radial.recurrence_R(params, gr, ansatz)
        svec = radial.spectral_matrix(gr, params.sigma, b1, b2) @ a00
        worst["recurrence"] = max(worst["recurrence"],
                                  float(np.abs(rvec - svec).max()) / float(np.abs(svec).max()))
    for _ in range(50):
        g1v, g2v, b2 = rng.uniform(0.2, 1.2, 3)
        try:
            b1 = radial.beta1_from_determinant(radial.GammaRho(g1v, g2v), params.sigma, b2)
        except radial.NoRealDecayError:
            continue
        gr = radial.GammaRho(g1v, g2v)
        a10 = rng.uniform(-1, 1, 4)
        a10[3] = 0.0
        a00 = rng.uniform(-1, 1, 4)
        ansatz = radial.RadialAnsatz(beta1=b1, beta2=b2,
                                     a100=a00[0], a200=a00[1], a300=a00[2], a400=a00[3])
        rvec = radial.recurrence_R(params, gr, ansatz, *a10)
        psi1, _ = radial.kernel_vectors(gr, params.sigma, b1, b2)
        direct = float(psi1 @ rvec)
        form = radial.kernel_contraction(params, gr, b1, b2, a10[0], a10[1], a10[2])
        worst["contraction"] = max(worst["contraction"], abs(direct - form) / max(abs(form), 1e-12))
    return worst


def test_batched_radial_draws_equal_per_draw_loops():
    checks = {r.name: r.value for r in verify.radial_checks()}
    reference = _per_draw_radial_values()
    assert checks["spectral determinant factorization (100 draws)"] == reference["factorization"]
    assert checks["kernel vectors annihilated"] == reference["kernel"]
    assert checks["recurrence reduces to spectral matrix"] == reference["recurrence"]
    assert checks["kernel contraction equals dot product"] == reference["contraction"]


@pytest.mark.parametrize("n, seed, lo", [(20, 20240801, 0.5), (50, 3, 0.5), (5, 11, 1.5)],
                         ids=["battery", "more-points", "few-clear-lo"])
def test_safe_points_equal_one_draw_at_a_time(n, seed, lo):
    rng = np.random.default_rng(seed)
    reference = []
    while len(reference) < n:
        p = ConfigPoint(*rng.uniform(-2.0, 2.0, 4))
        if p.min_radius() > lo:
            reference.append(p)
    assert verify._safe_points(n, seed=seed, lo=lo) == reference
