from hespinor import verify

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
    notes = {r.name: r.note for r in report.results}
    assert notes["canonical assignment commutes with M"].startswith("16 of 64 variants commute")
    assert notes["phase assignment search"].startswith("9 winding ladders cancel")


def test_assignment_check_needs_canonical_in_exact_set(monkeypatch):
    # the FD ratio alone still passes; the exact scan must also list the canonical variant
    exact = verify.scan_derivative_assignments()
    monkeypatch.setattr(verify, "scan_derivative_assignments", lambda: [
        (a, 2.0 if a == verify.CANONICAL_ASSIGNMENT else r) for a, r in exact])
    checks = {r.name: r for r in verify.operator_checks()}
    assert not checks["canonical assignment commutes with M"].passed
    assert checks["canonical assignment commutes with M"].value < 1e-4
