import math
import re

import numpy as np
import pytest

from hespinor import angular, cli, clifford, optimize, radial, spectrum, verify
from hespinor.model import ModelParams
from hespinor.operators import (
    CANONICAL_ASSIGNMENT,
    E2_EXCHANGED_ASSIGNMENT,
    ConfigPoint,
    SpinorField,
)

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
    solve = spectrum.energy_consistency_solve

    def biased(sigma, rho, cf, variant="default"):
        if variant == "alt-weight":
            return spectrum.energy_closed_form(cf)
        return solve(sigma, rho, cf, variant)

    monkeypatch.setattr(spectrum, "energy_consistency_solve", biased)


def _bias_covariant_row(monkeypatch):
    covariant = verify.covariant_form_residual
    monkeypatch.setattr(verify, "covariant_form_residual",
                        lambda *args: covariant(*args) + np.array([0, 0, 1e-6, 0]))


def _bias_separation_rows(monkeypatch, angle_bias):
    separation = angular.separation_residual
    monkeypatch.setattr(angular, "separation_residual",
                        lambda *args: separation(*args) + angle_bias[:, None])


def _perturb_one_angle(monkeypatch):
    _bias_separation_rows(monkeypatch, np.eye(8)[3] * 1e-6)


def _bias_every_angle(monkeypatch):
    _bias_separation_rows(monkeypatch, np.full(8, 1e-6))


def _bias_canonical_commutator(monkeypatch):
    commutator = verify.commutator_residual

    def biased(params, fields, batch, step, assignment=CANONICAL_ASSIGNMENT):
        hm, hjz = commutator(params, fields, batch, step, assignment)
        return (hm + 1e-3 if assignment == CANONICAL_ASSIGNMENT else hm), hjz

    monkeypatch.setattr(verify, "commutator_residual", biased)


def _sigma0_at_lower_edge(monkeypatch):
    minimize = optimize.minimize_delta_e
    monkeypatch.setattr(optimize, "minimize_delta_e", lambda *a, **k: minimize(*a, **k)._replace(
        point=spectrum.equilibrium_point(0.1765)))


def _offset_exponents(monkeypatch):
    # both indicial checks read s* from verify's exponents: off s* the determinant
    # no longer vanishes, and the two rows' ratios a300/a100 part
    exponents = verify.exponents
    monkeypatch.setattr(verify, "exponents",
                        lambda *args: tuple(s + 1e-6 for s in exponents(*args)))


def _nan_kernel_angles(monkeypatch):
    monkeypatch.setattr(radial, "indicial_kernel_angles", lambda *a: np.full(2, np.nan))


def _scale_gamma1(monkeypatch):
    # one table off by a relative 2^-44: above every 1e-14 bound, invisible in printed digits
    monkeypatch.setitem(clifford.GAMMA, 1, clifford.GAMMA[1] * (1 + 2**-44))


def _exchanged_spin_shift(monkeypatch):
    monkeypatch.setattr(verify, "SPIN_SHIFT", np.diag([0, 0, 1, -1]).astype(complex))


def _no_root(monkeypatch):
    # no sign change on the consistency bracket: every root reading raises
    # NoRootInBracketError, which the default reading reports as inf and the
    # two rejected readings pass with
    monkeypatch.setattr(radial, "fundamental_residual", lambda relation, shift: 1.0)


# an upper bound failing the command: test_cli's gamma sign flip, the table,
# exponent and root faults above, and the comparisons of the commutator,
# expansion and separation rows; every FAIL line is listed
@pytest.mark.parametrize("fault, failed", [
    (_accept_alt_weight, ["[FAIL] alt-weight denominator rejected: value 0.000e+00 > 1e-06"]),
    (_sigma0_at_lower_edge, ["[FAIL] ground-state sigma0 in [0.1765, 0.1785]: "
                             "value 1.765e-01 in (0.1765, 0.1785]",
                             "[FAIL] equilibrium r20 = 0.732 +- 0.005: ",
                             "[FAIL] equilibrium rho0 = 0.862 +- 0.005: "]),
    (_offset_exponents, ["[FAIL] indicial determinants vanish at s*: value 6.399e-11 <= 1e-12",
                         "[FAIL] indicial kernel two-form agreement: value 9.477e-03 <= 1e-10"]),
    (_nan_kernel_angles, ["[FAIL] indicial kernel compatibility angles (deg): value nan"]),
    # the limit line fails because 1e3 x 1e-3 over [H,Jz] (0.98 on the fixed points) is
    # above 1; were [H,Jz] above 1 there, this entry would fail two lines
    (_bias_canonical_commutator, ["[FAIL] [H,M] second-order decay (|ratio - 4|): ",
                                  "[FAIL] [H,M] limit below [H,Jz] by 1e3: value 1.017e+00",
                                  "[FAIL] canonical assignment commutes with M: value 3.157e-03"]),
    (_bias_covariant_row, ["[FAIL] covariant contraction equals g0(H-E): value 1.000e-06"]),
    (_perturb_one_angle, ["[FAIL] angular cancellation spread / field scale: "]),
    (_bias_every_angle, ["[FAIL] radial rows equal angle-frozen evaluation: value 1.000e-06"]),
    (_scale_gamma1, ["[FAIL] clifford anticommutation, 15 pairs: value 2.274e-13 <= 1e-14 "
                     "-- worst pair (1,1)",
                     "[FAIL] gamma unitarity: value 1.137e-13",
                     "[FAIL] gamma5 product phase: ",
                     "[FAIL] alpha_z product identities: ",
                     "[FAIL] canonical assignment in the exact commuting set: "]),
    (_exchanged_spin_shift, ["[FAIL] spin shift diag(-1,1,0,0): value 1.000e+00"]),
    (_no_root, ["[FAIL] consistency root vs closed form: value inf <= 1e-06"]),
], ids=["lower", "window", "exponents", "none", "canonical-commutator", "covariant-row",
        "one-angle", "every-angle", "gamma1-scale", "spin-shift", "no-root"])
def test_each_bound_form_fails_the_command(monkeypatch, capsys, fault, failed):
    fault(monkeypatch)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(lines) == len(failed), out
    assert all(line.startswith(prefix) for line, prefix in zip(lines, failed)), out


def _arbitration_loops(sigmas):
    """Worst relative deviation of each reading from the closed-form energy, one sigma at a time."""
    worst = {}
    for variant in radial.FUNDAMENTAL_DENOMINATORS:
        errs = []
        for sigma in sigmas:
            cf = spectrum.closed_form(sigma)
            e_ref = spectrum.energy_closed_form(cf)
            e_root = spectrum.energy_consistency_solve(sigma, spectrum.rho0_natural(cf), cf, variant)
            errs.append(abs(e_root - e_ref) / abs(e_ref))
        worst[variant] = max(errs)
    for key, squared in (("squared", True), ("unsquared", False)):
        errs = []
        for sigma in sigmas:
            cf = spectrum.closed_form(sigma)
            e_ref = spectrum.energy_closed_form(cf)
            e_lit = spectrum.energy_shifted_literal(cf, spectrum.rho0_natural(cf), squared=squared)
            errs.append(abs(e_lit - e_ref) / abs(e_ref))
        worst[key] = max(errs)
    return worst


ARBITRATION_CHECKS = {
    "default": "consistency root vs closed form",
    "alt-weight": "alt-weight denominator rejected",
    "alt-shift": "alt-shift denominator rejected",
    "squared": "energy relation inner denominator: squared",
    "unsquared": "energy relation unsquared reading rejected",
}


def test_arbitration_equals_per_sigma_loops_with_one_closed_form_per_sigma(monkeypatch):
    sigmas = np.linspace(0.06, 0.49, 10)
    closed_form, calls = spectrum.closed_form, []
    monkeypatch.setattr(spectrum, "closed_form",
                        lambda s, *a, **k: calls.append(s) or closed_form(s, *a, **k))
    values = {r.name: r.value for r in verify.spectrum_checks()}
    assert [s for s in calls if np.ndim(s) == 0 and s in sigmas] == list(sigmas)
    monkeypatch.undo()
    reference = _arbitration_loops(sigmas)
    assert list(reference) == list(ARBITRATION_CHECKS)
    for key, name in ARBITRATION_CHECKS.items():
        assert values[name] == reference[key], name
    assert reference["default"] <= 1e-9 and reference["squared"] <= 1e-9
    assert min(reference["alt-weight"], reference["alt-shift"], reference["unsquared"]) > 1e-6


def test_spectrum_checks_hand_python_floats_to_the_scalar_solvers(monkeypatch):
    # numpy scalars give the same values but make every scalar step several times slower
    solve, literal, seen = spectrum.energy_consistency_solve, spectrum.energy_shifted_literal, []
    monkeypatch.setattr(spectrum, "energy_consistency_solve", lambda sigma, rho, cf, variant: (
        seen.append((type(sigma), type(cf.sigma), type(rho))) or solve(sigma, rho, cf, variant)))
    monkeypatch.setattr(spectrum, "energy_shifted_literal", lambda cf, rho, squared=True: (
        seen.append((float, type(cf.sigma), type(rho))) or literal(cf, rho, squared)))
    verify.spectrum_checks()
    assert len(seen) == 3 * 10 + 2 * 10  # three denominators and two readings, 10 sigma each
    assert set(seen) == {(float, float, float)}


def test_operator_checks_call_each_field_once_per_stencil(monkeypatch):
    # [H, M] and [H, Jz] at two steps (3 + 3), the exchanged assignment (1), the
    # plane wave (its value and two steps), and one pass per expansion field (3);
    # the canonical contrast reads the first field's rows of the full-step call
    call, calls = SpinorField.__call__, []
    monkeypatch.setattr(SpinorField, "__call__",
                        lambda field, point: calls.append(point) or call(field, point))
    verify.operator_checks()
    assert len(calls) == 13


def test_canonical_contrast_is_the_first_field_on_four_points():
    # the canonical side is read from the full-step rows; it must equal its own call
    params, fields = ModelParams(sigma=0.23), verify._test_fields()
    points = ConfigPoint(*verify._safe_points(20)[:4].T)
    canon, swapped = (float(np.abs(verify.commutator_residual(params, fields[:1], points, 1e-3,
                                                              a)[0]).max())
                      for a in (CANONICAL_ASSIGNMENT, E2_EXCHANGED_ASSIGNMENT))
    values = {r.name: r.value for r in verify.operator_checks()}
    assert values["canonical assignment commutes with M"] == canon / swapped


def test_angular_checks_call_each_field_once_per_phase_assignment(monkeypatch):
    call, calls = SpinorField.__call__, []
    monkeypatch.setattr(SpinorField, "__call__",
                        lambda field, point: calls.append(point) or call(field, point))
    verify.angular_checks()
    assert len(calls) == 2


def _per_point_radial_values():
    """The four point-set identities of the radial battery, one scalar point at a time,
    on the rows of the battery's boxes."""
    worst = dict.fromkeys(("factorization", "kernel", "recurrence", "contraction"), 0.0)
    for g1v, g2v, sig, b1, b2 in verify._box_points(100, [(0.2, 2.5)] * 5):
        det = np.linalg.det(radial.spectral_matrix(g1v, g2v, sig, b1, b2))
        fac = radial.spectral_quadratic(g1v, g2v, sig, b1, b2) ** 2
        worst["factorization"] = max(worst["factorization"], abs(det - fac) / max(abs(fac), 1e-30))
    for g1v, g2v, sig, b2 in verify._box_points(100, [(0.2, 1.2)] * 4):
        sig = min(sig, 0.9)
        try:
            b1 = radial.beta1_from_determinant(g1v, g2v, sig, b2)
        except radial.NoRealDecayError:
            continue
        mat = radial.spectral_matrix(g1v, g2v, sig, b1, b2)
        scale = float(np.abs(mat).max())
        for vec in radial.kernel_vectors(g2v, sig, b1, b2):
            worst["kernel"] = max(worst["kernel"], float(np.abs(mat @ vec).max()) / scale)
    params = ModelParams(sigma=0.3)
    for row in verify._box_points(50, [(0.2, 2.0)] * 4 + [(-1, 1)] * 4):
        g1v, g2v, b1, b2 = row[:4]
        a00 = row[4:]
        rvec = radial.recurrence_R(params, g1v, g2v, b1, b2, a00)
        svec = radial.spectral_matrix(g1v, g2v, params.sigma, b1, b2) @ a00
        worst["recurrence"] = max(worst["recurrence"],
                                  float(np.abs(rvec - svec).max()) / float(np.abs(svec).max()))
    for row in verify._box_points(50, [(0.2, 1.2)] * 3 + [(-1, 1)] * 7):
        g1v, g2v, b2 = row[:3]
        try:
            b1 = radial.beta1_from_determinant(g1v, g2v, params.sigma, b2)
        except radial.NoRealDecayError:
            continue
        a10 = np.append(row[3:6], 0.0)
        rvec = radial.recurrence_R(params, g1v, g2v, b1, b2, row[6:], *a10)
        psi1, _ = radial.kernel_vectors(g2v, params.sigma, b1, b2)
        direct = float(psi1 @ rvec)
        form = radial.kernel_contraction(params, g2v, b1, b2, a10[0], a10[1], a10[2])
        worst["contraction"] = max(worst["contraction"], abs(direct - form) / max(abs(form), 1e-12))
    return worst


def test_batched_radial_draws_equal_per_draw_loops():
    checks = {r.name: r.value for r in verify.radial_checks()}
    reference = _per_point_radial_values()
    assert checks["spectral determinant factorization (100 draws)"] == reference["factorization"]
    assert checks["kernel vectors annihilated"] == reference["kernel"]
    assert checks["recurrence reduces to spectral matrix"] == reference["recurrence"]
    assert checks["kernel contraction equals dot product"] == reference["contraction"]


def test_two_form_agreement_equals_the_closed_form_ratios():
    # v/2a from the third row of the first indicial matrix and 2a/u from its first,
    # with u, v = j -+ (s* + 1/2) at j = 1
    alpha = verify.FINE_STRUCTURE_ALPHA
    s, _ = verify.exponents(1.0, 1.0, alpha)
    ratio, ratio_alt = (1.0 + s + 0.5) / (2 * alpha), 2 * alpha / (1.0 - s - 0.5)
    checks = {r.name: r.value for r in verify.radial_checks()}
    assert checks["indicial kernel two-form agreement"] == abs(ratio - ratio_alt) / abs(ratio)


@pytest.mark.parametrize("n", [20, 50, 5], ids=["battery", "more-points", "few"])
def test_safe_points_equal_one_draw_at_a_time(n):
    reference = []
    for row in verify._box_points(2 * n, [(-2, 2)] * 4):
        if len(reference) < n and ConfigPoint(*row).min_radius() > 0.5:
            reference.append(row)
    rows = verify._safe_points(n)
    assert rows.shape == (n, 4)
    assert np.array_equal(rows, reference)
    x1, y1, x2, y2 = rows.T
    assert min(np.hypot(x1, y1).min(), np.hypot(x2, y2).min(),
               np.hypot(x1 - x2, y1 - y2).min()) > 0.5


def test_box_points_follow_the_r_d_sequence():
    # phi is the golden ratio for d = 1 and the plastic number for d = 2, the real
    # roots of x^2 = x + 1 and x^3 = x + 1; coordinate k steps by phi^-k
    golden, plastic = (1 + math.sqrt(5)) / 2, 1.324717957244746
    for steps, box in (([1 / golden], [(0.01, 1.0)]),
                       ([1 / plastic, plastic ** -2], [(0.6, 1.6), (-1, 1)])):
        rows = verify._box_points(50, box)
        reference = [[lo + (hi - lo) * ((0.5 + i * step) % 1) for step, (lo, hi) in zip(steps, box)]
                     for i in range(1, 51)]
        assert rows.shape == (50, len(box))
        assert np.allclose(rows, reference, rtol=0, atol=1e-12)
        lo, hi = np.array(box).T
        assert np.all((rows >= lo) & (rows < hi))


def test_expansion_checks_equal_per_field_loops(monkeypatch):
    # the batched rows, field after field, and their maxima equal one call per field
    params, step, energy = ModelParams(sigma=0.23), 1e-3, 1.2
    batch = ConfigPoint(*verify._safe_points(20)[:8].T)
    rows, gaps = {}, []
    for f in verify._test_fields():
        f0, d = verify.gradient(f, batch, step)
        target = (verify.apply_H(params, batch, f0, d) - energy * f0) @ verify.GAMMA[0].T
        for expansion in (verify.component_system_residual, verify.covariant_form_residual):
            rows.setdefault(expansion.__name__, []).append(expansion(params, batch, f0, d, energy))
        gaps.append([float(np.abs(lhs[-1] - target).max()) for lhs in rows.values()])
    batched = {}
    for name in rows:
        expansion = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, name=name, expansion=expansion:
                            batched.setdefault(name, expansion(*args)))
    values = {r.name: r.value for r in verify.operator_checks()}
    for name in rows:
        assert np.array_equal(batched[name], np.concatenate(rows[name])), name
    assert values["component expansion equals g0(H-E)"] == max(g[0] for g in gaps)
    assert values["covariant contraction equals g0(H-E)"] == max(g[1] for g in gaps)
