import itertools
import math

import numpy as np
import pytest

import hand_partials
from hespinor import angular
from hespinor.model import ModelParams
from hespinor.operators import apply_M, component_system_residual, gradient


@pytest.fixture(scope="module")
def params():
    return ModelParams(sigma=0.23)


def unit_profiles():
    return [lambda r1, r2: 1.0] * 4


def smooth_profiles():
    """Generic smooth profiles unrelated to any exact solution."""
    return hand_partials.values(hand_partials.SMOOTH)


ZERO_PROFILE = angular.power_exponential(0.0, 0, 0, 0, 0)
ANGLES = [(0.1 + 0.7 * k, 0.4 + 1.1 * k) for k in range(8)]


def spread(rows):
    return np.abs(rows - rows[..., :1, :]).max(axis=(-2, -1))


def test_canonical_pairs():
    a = angular.PhaseAssignment.canonical(1.0, 1.0)
    assert a.pairs == ((1.5, 1.5), (0.5, 0.5), (0.5, 1.5), (1.5, 0.5))
    assert a.in_half_step_band(1.0, 1.0)


def test_build_spinor_at_zero_angles():
    spinor = angular.build_spinor(angular.PhaseAssignment.canonical(1.0, 1.0), unit_profiles())
    p = angular.point_from_polar(1.0, 0.0, 1.0, 0.0)
    assert np.allclose(spinor(p), np.ones(4), atol=1e-15)


def test_build_spinor_phase_value():
    # first component at theta1 = pi, theta2 = 0: exp(i 3pi/2) = -i
    spinor = angular.build_spinor(angular.PhaseAssignment.canonical(1.0, 1.0), unit_profiles())
    p = angular.point_from_polar(1.0, math.pi, 1.0, 0.0)
    assert spinor(p)[0] == pytest.approx(-1j, abs=1e-12)


def test_built_spinor_is_m_eigenstate():
    # every component carries M eigenvalue j1 + j2
    profiles = [angular.power_exponential(1.0, 0.6, 0.7, 1.0, 0.8)] * 4
    spinor = angular.build_spinor(angular.PhaseAssignment.canonical(1.0, 1.0), profiles)
    p = angular.point_from_polar(0.9, 0.52, 1.2, -1.1)
    out = apply_M(p, *gradient(spinor, p, 1e-5))
    ratios = out / spinor(p)
    assert np.allclose(ratios, 2.0, atol=1e-8)


def test_separation_residual_cancels_for_generic_profiles(params):
    profiles = smooth_profiles()
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    rng = np.random.default_rng(7)
    for r1, r2 in rng.uniform(0.6, 1.6, (10, 2)):
        scale = max(abs(prof(r1, r2)) for prof in profiles)
        rows = angular.separation_residual(params, assignment, profiles, 1.1,
                                           ANGLES, (r1, r2), 0.86, step=1e-5)
        assert rows.shape == (len(ANGLES), 4)
        assert spread(rows) <= 1e-8 * scale


def test_separation_zero_profiles(params):
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    zeros = [ZERO_PROFILE] * 4
    rows = angular.separation_residual(params, assignment, zeros, 1.1,
                                       ANGLES, (0.9, 1.2), 0.86, step=1e-5)
    assert np.array_equal(rows, np.zeros((len(ANGLES), 4)))


def test_separation_single_angle_sample(params):
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    rows = angular.separation_residual(params, assignment, smooth_profiles(), 1.1,
                                       [(0.3, 1.0)], (0.9, 1.2), 0.86, step=1e-5)
    assert rows.shape == (1, 4)
    assert spread(rows) == 0.0


def test_mixed_sign_assignment_does_not_cancel(params):
    mixed = angular.PhaseAssignment(pairs=(
        (params.j1 + 0.5, -(params.j2 + 0.5)),
        (params.j1 - 0.5, params.j2 + 0.5),
        (params.j1 - 0.5, params.j2 - 0.5),
        (params.j1 + 0.5, -(params.j2 - 0.5)),
    ))
    rows = angular.separation_residual(params, mixed, smooth_profiles(), 1.1,
                                       ANGLES, (0.9, 1.2), 0.86, step=1e-5)
    assert spread(rows) > 1e-2


def test_radial_rows_match_angle_frozen_path(params):
    profiles = smooth_profiles()
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    spinor = angular.build_spinor(assignment, profiles)
    energy, rho0, step = 1.1, 0.86, 1e-5
    for theta1, theta2 in ((0.4, 1.1), (2.0, -1.2), (-2.3, 0.7)):
        rp = (0.95, 1.25)
        p = angular.point_from_polar(rp[0], theta1, rp[1], theta2)
        f0, d = gradient(spinor, p, step)
        fd = component_system_residual(params, p, f0, d, energy, rho_freeze=rho0)
        fd = fd / assignment.phase_vector(p.theta1, p.theta2)
        exact = angular.radial_system_residual(params, profiles, energy, rho0, rp)
        assert np.abs(fd - exact).max() < 50 * step**2


def test_radial_rows_zero_profiles(params):
    zeros = [ZERO_PROFILE] * 4
    rows = angular.radial_system_residual(params, zeros, 1.1, 0.86, (0.9, 1.2))
    assert np.array_equal(rows, np.zeros(4))


def test_radial_rows_sigma_one_keeps_only_electron2_terms():
    params1 = ModelParams(sigma=1.0)
    profiles = smooth_profiles()
    r1, r2 = 0.9, 1.2
    energy, rho0 = 1.1, 0.86
    rows = angular.radial_system_residual(params1, profiles, energy, rho0, (r1, r2))
    from hespinor.operators import potential_radii
    phi = potential_radii(params1, r1, r2, rho0)
    qp = 2 + (phi - energy)
    qm = 2 - (phi - energy)
    f, _, d2 = hand_partials.partials(hand_partials.SMOOTH, r1, r2)
    j2 = params1.j2
    expected = np.array([
        qp * f[0] - 2 * (d2[3] - (j2 - 0.5) / r2 * f[3]),
        qp * f[1] - 2 * (d2[2] + (j2 + 0.5) / r2 * f[2]),
        qm * f[2] - 2 * (d2[1] - (j2 - 0.5) / r2 * f[1]),
        qm * f[3] - 2 * (d2[0] + (j2 + 0.5) / r2 * f[0]),
    ])
    assert np.allclose(rows, expected, rtol=0, atol=1e-15)


def test_radial_rows_sigma_zero_is_one_electron_system():
    params0 = ModelParams(sigma=0.0)
    profiles = smooth_profiles()
    r1, r2 = 0.9, 1.2
    energy, rho0 = 0.9, 0.86
    rows = angular.radial_system_residual(params0, profiles, energy, rho0, (r1, r2))
    from hespinor.operators import potential_radii
    phi = potential_radii(params0, r1, r2, rho0)
    qp = 1 + (phi - energy)
    qm = 1 - (phi - energy)
    f, d1, _ = hand_partials.partials(hand_partials.SMOOTH, r1, r2)
    j1 = params0.j1
    expected = np.array([
        qp * f[0] - (d1[2] - (j1 - 0.5) / r1 * f[2]),
        qp * f[1] + (d1[3] + (j1 + 0.5) / r1 * f[3]),
        qm * f[2] - (d1[0] + (j1 + 0.5) / r1 * f[0]),
        qm * f[3] + (d1[1] - (j1 - 0.5) / r1 * f[1]),
    ])
    assert np.allclose(rows, expected, rtol=0, atol=1e-15)


def test_radial_rows_reject_nonpositive_radii(params):
    # a NaN radius is no positive radius either
    for point in ((0.0, 1.0), (math.nan, 1.0), (0.9, math.nan)):
        with pytest.raises(ValueError, match="r1 > 0 and r2 > 0"):
            angular.radial_system_residual(params, smooth_profiles(), 1.0, 0.86, point)


def test_radial_rows_batch_matches_per_point_loop(params):
    r1, r2 = np.random.default_rng(7).uniform(0.6, 1.6, (2, 2, 5))
    rows = angular.radial_system_residual(params, smooth_profiles(), 1.1, 0.86, (r1, r2))
    assert rows.shape == (2, 5, 4)
    loop = [[angular.radial_system_residual(params, smooth_profiles(), 1.1, 0.86, (a, b))
             for a, b in zip(ra, rb)] for ra, rb in zip(r1, r2)]
    assert np.array_equal(rows, loop)
    floats = angular.radial_system_residual(params, smooth_profiles(), 1.1, 0.86,
                                            (float(r1[0, 0]), float(r2[0, 0])))
    assert floats.shape == (4,)
    assert np.array_equal(floats, rows[0, 0])


def test_radial_rows_batch_rejects_one_nonpositive_radius(params):
    radii = np.array([0.8, 1.1, 1.4])
    for point in ((np.array([0.8, 0.0, 1.4]), radii), (radii, np.array([0.8, 1.1, -0.2])),
                  (np.array([0.8, math.nan, 1.4]), radii), (radii, np.array([math.nan, 1.1, 1.4]))):
        with pytest.raises(ValueError, match="r1 > 0 and r2 > 0"):
            angular.radial_system_residual(params, smooth_profiles(), 1.0, 0.86, point)


def _brute_force_ladders(j1, j2):
    # reference: all 16^4 candidates, each row constraint tested directly
    m1_opts = {j1 - 0.5, j1 + 0.5, -(j1 - 0.5), -(j1 + 0.5)}
    m2_opts = {j2 - 0.5, j2 + 0.5, -(j2 - 0.5), -(j2 + 0.5)}

    def close(a, b):
        return abs(a - b) <= 1e-12

    found = set()
    for pairs in itertools.product(itertools.product(m1_opts, m2_opts), repeat=4):
        (m11, m21), (m12, m22), (m13, m23), (m14, m24) = pairs
        if (close(m11 - m13, 1) and close(m21, m23) and close(m14 - m12, 1) and close(m24, m22)
                and close(m23 - m22, 1) and close(m13, m12)
                and close(m21 - m24, 1) and close(m11, m14)):
            found.add(pairs)
    return found


@pytest.mark.parametrize("j1, j2, n_ladders", [
    (1.0, 1.0, 9), (1.5, 1.0, 6), (2.0, 0.5, 4), (1.0, 2.5, 6), (0.5, 0.5, 4),
])
def test_find_cancelling_assignments_unique_in_band(j1, j2, n_ladders):
    ladder = angular.find_cancelling_assignments(j1, j2)
    assert len(ladder) == n_ladders  # whole-winding shifts of one solution
    assert {a.pairs for a in ladder} == _brute_force_ladders(j1, j2)
    in_band = [a for a in ladder if a.in_half_step_band(j1, j2)]
    assert in_band == [angular.PhaseAssignment.canonical(j1, j2)]


def test_phase_assignment_needs_four_pairs():
    with pytest.raises(ValueError):
        angular.PhaseAssignment(pairs=((1.5, 1.5),))
    canonical = angular.PhaseAssignment.canonical(1.0, 1.0)
    with pytest.raises(ValueError):  # _replace builds through _make
        canonical._replace(pairs=canonical.pairs[:3])
    with pytest.raises(ValueError):
        angular.PhaseAssignment._make((((1.5, 1.5),),))


def test_built_spinor_shapes_for_point_and_batch():
    spinor = angular.build_spinor(angular.PhaseAssignment.canonical(1.0, 1.0),
                                  smooth_profiles()[:3] + [ZERO_PROFILE])
    p = angular.point_from_polar(0.9, 0.52, 1.2, -1.1)
    assert spinor(p).shape == (4,)
    batch = angular.point_from_polar(np.array([0.9, 1.1, 0.7]), np.array([0.52, 2.0, -1.0]),
                                     np.array([1.2, 0.8, 1.4]), np.array([-1.1, 0.3, 2.5]))
    out = spinor(batch)
    assert out.shape == (3, 4)
    assert np.array_equal(out[0], spinor(p))


def test_separation_batch_matches_per_angle_loop(params):
    # reference: one component-system evaluation per angle sample
    profiles = smooth_profiles()
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    spinor = angular.build_spinor(assignment, profiles)
    r1, r2 = 0.9, 1.2
    rows = []
    for theta1, theta2 in ANGLES:
        p = angular.point_from_polar(r1, theta1, r2, theta2)
        res = component_system_residual(params, p, *gradient(spinor, p, 1e-5), 1.1, rho_freeze=0.86)
        rows.append(res / assignment.phase_vector(p.theta1, p.theta2))
    batched = angular.separation_residual(params, assignment, profiles, 1.1,
                                          ANGLES, (r1, r2), 0.86, step=1e-5)
    assert batched.shape == (len(ANGLES), 4)
    assert np.abs(batched - rows).max() <= 1e-15


def test_separation_first_angle_equals_a_separate_evaluation(params):
    # the rows at the first angle do not depend on the other samples in the batch
    profiles = smooth_profiles()
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    r1, r2 = np.random.default_rng(7).uniform(0.6, 1.6, (10, 2)).T
    rows = angular.separation_residual(params, assignment, profiles, 1.1,
                                       ANGLES, (r1, r2), 0.86, step=1e-5)
    p = angular.point_from_polar(r1, ANGLES[0][0], r2, ANGLES[0][1])
    f0, d = gradient(angular.build_spinor(assignment, profiles), p, 1e-5)
    first = component_system_residual(params, p, f0, d, 1.1, rho_freeze=0.86)
    assert np.array_equal(rows[:, 0], first / assignment.phase_vector(p.theta1, p.theta2))


def test_separation_radial_batch_matches_per_point_loop(params):
    profiles = smooth_profiles()
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    r1, r2 = np.random.default_rng(7).uniform(0.6, 1.6, (10, 2)).T
    rows = angular.separation_residual(params, assignment, profiles, 1.1,
                                       ANGLES, (r1, r2), 0.86, step=1e-5)
    assert rows.shape == (10, len(ANGLES), 4)
    loop = [angular.separation_residual(params, assignment, profiles, 1.1,
                                        ANGLES, (a, b), 0.86, step=1e-5) for a, b in zip(r1, r2)]
    assert np.array_equal(rows, loop)


def test_separation_without_angles_keeps_the_radial_shape(params):
    assignment = angular.PhaseAssignment.canonical(params.j1, params.j2)
    radii = np.array([0.8, 1.1, 1.4])
    assert angular.separation_residual(params, assignment, smooth_profiles(), 1.1,
                                       [], (0.9, 1.2), 0.86, step=1e-5).shape == (0, 4)
    empty = angular.separation_residual(params, assignment, smooth_profiles(), 1.1,
                                        [], (radii, radii), 0.86, step=1e-5)
    assert empty.shape == (3, 0, 4)
