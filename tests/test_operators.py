import functools
import itertools
import math

import numpy as np
import pytest

from hespinor import clifford, operators, verify
from hespinor.model import ModelParams, ParameterError
from hespinor.operators import (
    CANONICAL_ASSIGNMENT,
    E2_EXCHANGED_ASSIGNMENT,
    ConfigPoint,
    DerivativeAssignment,
    SingularPointError,
    SpinorField,
    _stencil,
    apply_H,
    apply_Jz,
    apply_M,
    commutator_residual,
    component_system_residual,
    covariant_form_residual,
    gradient,
    potential_radii,
    scan_derivative_assignments,
)

STEP = 1e-3


@pytest.fixture(scope="module")
def params():
    return ModelParams(sigma=0.23)


@pytest.fixture(scope="module")
def rows():
    """The verify battery's 20 configuration points, one (x1, y1, x2, y2) row each."""
    return verify._safe_points(20)


@pytest.fixture(scope="module")
def batch(rows):
    return ConfigPoint(*rows.T)


@pytest.fixture(scope="module")
def test_fields():
    return verify._test_fields()


def _single_points(rows):
    """One float ConfigPoint per row."""
    return [ConfigPoint(*row.tolist()) for row in rows]


def _worst(rows):
    """Largest modulus over all rows."""
    return float(np.abs(rows).max())


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(sigma=1.2)
    with pytest.raises(ValueError):
        ModelParams(sigma=0.1, alpha=-1.0)
    with pytest.raises(ValueError):
        ModelParams(sigma=0.1, alpha=1.0)  # j1 = 1 fails j^2 > 4 alpha^2


def test_smallest_alpha_has_a_normal_square():
    # below 2**-511 alpha^2 is subnormal and delta_e loses digits; at 1e-162 it reads NaN
    assert ModelParams(sigma=0.1, alpha=2.0**-511).alpha ** 2 == 2.0**-1022
    with pytest.raises(ParameterError, match="^alpha"):
        ModelParams(sigma=0.1, alpha=math.nextafter(2.0**-511, 0))


def test_config_point_radii():
    p = ConfigPoint(3.0, 4.0, 0.0, 1.0)
    assert p.r1 == 5.0
    assert p.r2 == 1.0
    assert p.r12 == math.hypot(3.0, 3.0)


def test_h_on_constant_field_balanced_potentials():
    # strong-coupling parameters where the scalar parts cancel: sigma = 0,
    # alpha = 1 at r1 = r12 = 1 (j chosen large enough to stay valid)
    params = ModelParams(sigma=0.0, alpha=1.0, j1=3.0, j2=3.0)
    field = SpinorField.plane_wave((0, 0, 0, 0), (1, 0, 0, 0))
    point = ConfigPoint(1.0, 0.0, 2.0, 0.0)
    out = apply_H(params, point, *gradient(field, point, STEP))
    assert np.abs(out).max() < 1e-12


def test_h_on_constant_field_lower_block_sign():
    params = ModelParams(sigma=0.0, alpha=1.0, j1=3.0, j2=3.0)
    field = SpinorField.plane_wave((0, 0, 0, 0), (0, 0, 1, 0))
    point = ConfigPoint(1.0, 0.0, 2.0, 0.0)
    out = apply_H(params, point, *gradient(field, point, STEP))
    phi = potential_radii(params, point.r1, point.r2, point.r12)
    assert phi == pytest.approx(-1.0)
    # third component is phi - (1+sigma) = -2, everything else zero
    assert out[2] == pytest.approx(-2.0, abs=1e-12)
    assert np.abs(out[[0, 1, 3]]).max() < 1e-12


def test_h_plane_wave_second_order_convergence(params):
    kvec = (0.6, -0.4, 0.3, 0.8)
    wave = SpinorField.plane_wave(kvec, (1, 1, 1, 1))
    point = ConfigPoint(1.1, 0.4, -0.8, 0.9)
    g = clifford.GAMMA
    f0 = wave(point)
    d = [1j * kvec[ax] * f0 for ax in range(4)]
    s, a = params.sigma, params.alpha
    exact = (1 - s) * (1j * (g[3] @ d[0] - g[5] @ d[1]) - (2 * a / point.r1) * f0)
    exact = exact + 2 * s * (1j * (g[1] @ d[2] - g[2] @ d[3]) - (2 * a / point.r2) * f0)
    exact = exact + (1 + s) * (g[0] @ f0 + (a / point.r12) * f0)
    errs = [float(np.abs(apply_H(params, point, *gradient(wave, point, h)) - exact).max())
            for h in (STEP, STEP / 2)]
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_h_singular_point_guard(params):
    field = SpinorField.plane_wave((0, 0, 0, 0), (1, 0, 0, 0))
    near_origin = ConfigPoint(1e-4, 0.0, 1.0, 1.0)
    with pytest.raises(SingularPointError):
        gradient(field, near_origin, STEP)


def test_jz_annihilates_rotation_invariants():
    def fn(p):
        g = np.exp(-p.r1 - 0.5 * p.r2) * (1 + 0.1 * p.r12**2)
        zero = np.zeros_like(g)
        return np.stack([g, zero, zero, zero], axis=-1).astype(complex)

    field = SpinorField(fn)
    point = ConfigPoint(0.9, 0.5, -0.7, 1.1)
    out = apply_Jz(point, *gradient(field, point, STEP))
    assert np.abs(out).max() < 10 * STEP**2


def test_jz_winding_eigenvalue_is_plus_one():
    # exp(i theta1) = (x1 + i y1)/r1 is smooth away from the origin
    def fn(p):
        w = (p.x1 + 1j * p.y1) / p.r1
        zero = np.zeros_like(w)
        return np.stack([w, zero, zero, zero], axis=-1)

    field = SpinorField(fn)
    point = ConfigPoint(0.8, 0.45, 1.0, -0.3)
    out = apply_Jz(point, *gradient(field, point, 1e-5))
    ratio = out[0] / field(point)[0]
    assert ratio == pytest.approx(1.0, abs=1e-8)


def test_jz_polynomial_case():
    def fn(p):
        zero = np.zeros_like(p.x1)
        return np.stack([p.x1, zero, zero, zero], axis=-1).astype(complex)

    field = SpinorField(fn)
    at_axis = ConfigPoint(1.0, 0.0, 2.0, 0.0)
    assert np.abs(apply_Jz(at_axis, *gradient(field, at_axis, STEP))).max() < 1e-10
    generic = ConfigPoint(0.7, 1.2, 0.5, -0.9)
    out = apply_Jz(generic, *gradient(field, generic, STEP))
    assert out[0] == pytest.approx(1j * generic.y1, abs=1e-9)


@pytest.mark.parametrize("values,expected", [
    ((0, 0, 1, 0), (0, 0, 0, 0)),
    ((1, 0, 0, 0), (-1, 0, 0, 0)),
    ((0, 1, 0, 0), (0, 1, 0, 0)),
])
def test_m_on_constant_fields(values, expected):
    field = SpinorField.plane_wave((0, 0, 0, 0), values)
    point = ConfigPoint(1.0, 0.3, -0.5, 0.8)
    out = apply_M(point, *gradient(field, point, STEP))
    assert np.allclose(out, np.array(expected, dtype=complex), atol=1e-10)


def test_h_m_commutator_vanishes_at_second_order(params, batch, test_fields):
    for field in test_fields:
        res = _worst(commutator_residual(params, [field], batch, STEP)[0])
        res_half = _worst(commutator_residual(params, [field], batch, STEP / 2)[0])
        assert 3.5 <= res / res_half <= 4.5
        assert res < 1e-4


def test_h_jz_commutator_does_not_vanish(params, batch, test_fields):
    res = _worst(commutator_residual(params, test_fields[:1], batch, STEP)[1])
    res_half = _worst(commutator_residual(params, test_fields[:1], batch, STEP / 2)[1])
    assert res > 0.1
    assert res_half == pytest.approx(res, rel=1e-3)  # converges to a nonzero limit


def test_exchanged_assignment_breaks_commutation(params, rows, test_fields):
    res = _worst(commutator_residual(params, test_fields[:1], ConfigPoint(*rows[:6].T), STEP,
                                     assignment=E2_EXCHANGED_ASSIGNMENT)[0])
    assert res > 0.01


def test_assignment_scan_identifies_commuting_variants():
    scan = scan_derivative_assignments()
    residuals = dict(scan)
    assert len(residuals) == 64
    assert residuals[CANONICAL_ASSIGNMENT] == 0.0
    assert residuals[E2_EXCHANGED_ASSIGNMENT] > 0
    assert sum(r == 0.0 for _, r in scan) == 16
    assert [r for _, r in scan] == sorted(residuals.values())


def test_reversed_alpha2_product_swaps_the_canonical_and_exchanged_classes(monkeypatch):
    # alpha_2z = -i g2 g1: the reversed product -i g1 g2 flips its sign, and the shift it
    # gives is the one the exchanged assignment conserves, so the two trade places
    residuals = dict(scan_derivative_assignments())
    assert (residuals[CANONICAL_ASSIGNMENT], residuals[E2_EXCHANGED_ASSIGNMENT]) == (0.0, 2.0)
    g = clifford.GAMMA
    shift = (clifford.ALPHA_Z[1] - 1j * g[1] @ g[2]) / 2
    assert np.array_equal(shift, np.diag([0, 0, 1, -1]))
    monkeypatch.setattr(operators, "SPIN_SHIFT", shift)
    scan = scan_derivative_assignments()
    residuals = dict(scan)
    assert (residuals[CANONICAL_ASSIGNMENT], residuals[E2_EXCHANGED_ASSIGNMENT]) == (2.0, 0.0)
    assert sum(r == 0.0 for _, r in scan) == 16


def _scalar_assignment_scan():
    """Reference: one cached scalar 4x4 residual per derivative pair, maxed per variant."""
    g = clifford.GAMMA
    shift = clifford.SPIN_SHIFT

    def comm(a):
        return shift @ a - a @ shift

    @functools.cache
    def residual(pair):
        (ix, sx), (iy, sy) = pair
        p, q = sx * g[ix], sy * g[iy]
        return max(np.abs(1j * comm(p) + q).max(), np.abs(1j * comm(q) - p).max())

    mass = np.abs(comm(g[0])).max()
    variants = (
        DerivativeAssignment(e1=((a1, s1x), (b1, s1y)), e2=((a2, s2x), (b2, s2y)))
        for (a1, b1), s1x, s1y, (a2, b2), s2x, s2y in itertools.product(
            ((3, 5), (5, 3)), (+1, -1), (+1, -1), ((1, 2), (2, 1)), (+1, -1), (+1, -1))
    )
    return sorted(((v, float(max(residual(v.e1), residual(v.e2), mass))) for v in variants),
                  key=lambda t: t[1])


def test_assignment_scan_equals_the_scalar_pair_loop():
    # same 64 variants in the same order, with bit-identical residuals
    scan, reference = scan_derivative_assignments(), _scalar_assignment_scan()
    assert len(scan) == 64
    assert [a for a, _ in scan] == [a for a, _ in reference]
    assert [(type(r), r) for _, r in scan] == [(float, r) for _, r in reference]


def test_fd_commutator_marks_the_exact_commuting_set(params, rows, test_fields):
    # the finite-difference reference for the exact scan: [H, M] on a field,
    # variant by variant, is small exactly where the gamma identities hold
    scan = scan_derivative_assignments()
    exact = {a for a, r in scan if r == 0.0}
    batch = ConfigPoint(*rows[:4].T)
    fd = {a for a, _ in scan
          if _worst(commutator_residual(params, test_fields[:1], batch, STEP, a)[0]) < 1e-3}
    assert fd == exact


def test_component_system_equals_matrix_route(params, rows, test_fields):
    energy = 1.2
    g0 = clifford.GAMMA[0]
    for field in test_fields:
        for point in _single_points(rows[:6]):
            f0, d = gradient(field, point, STEP)
            lhs = component_system_residual(params, point, f0, d, energy)
            ref = g0 @ (apply_H(params, point, f0, d) - energy * field(point))
            assert np.abs(lhs - ref).max() < 1e-12


def test_component_system_qplus_zero_case(params):
    point = ConfigPoint(1.0, 0.2, -0.8, 0.9)
    energy = potential_radii(params, point.r1, point.r2, point.r12) + (1 + params.sigma)
    field = SpinorField.plane_wave((0, 0, 0, 0), (1, 0, 0, 0))
    rows = component_system_residual(params, point, *gradient(field, point, STEP), energy)
    assert abs(rows[0]) < 1e-14


def test_component_system_chi3_only(params):
    point = ConfigPoint(1.0, 0.2, -0.8, 0.9)
    energy = 0.7
    field = SpinorField.plane_wave((0, 0, 0, 0), (0, 0, 1, 0))
    rows = component_system_residual(params, point, *gradient(field, point, STEP), energy)
    phi = potential_radii(params, point.r1, point.r2, point.r12)
    qm = (1 + params.sigma) - (phi - energy)
    assert rows[0] == pytest.approx(0.0, abs=1e-14)
    assert rows[2] == pytest.approx(qm, rel=1e-14)


def _covariant_gap(params, field, point, energy):
    """Largest deviation of the covariant rows from gamma(0) (H - E) field."""
    f0, d = gradient(field, point, STEP)
    target = (apply_H(params, point, f0, d) - energy * field(point)) @ clifford.GAMMA[0].T
    rows = covariant_form_residual(params, point, f0, d, energy)
    assert rows.shape == target.shape
    return float(np.abs(rows - target).max())


def test_covariant_contraction_matches(params, rows, test_fields):
    energy = 1.2
    worst = max(_covariant_gap(params, f, p, energy)
                for f in test_fields for p in _single_points(rows[:6]))
    assert worst < 1e-12


def test_covariant_constant_field(params):
    field = SpinorField.plane_wave((0, 0, 0, 0), (0.4, -0.3, 0.2, 0.7))
    point = ConfigPoint(1.0, 0.2, -0.8, 0.9)
    assert _covariant_gap(params, field, point, 0.9) < 1e-14


def test_covariant_sigma_zero(test_fields):
    params0 = ModelParams(sigma=0.0)
    point = ConfigPoint(1.0, 0.2, -0.8, 0.9)
    assert _covariant_gap(params0, test_fields[0], point, 0.9) < 1e-13


def test_commutator_rejects_unsafe_points(params, test_fields):
    bad = ConfigPoint(1e-4, 0.0, 1.0, -1.0)
    with pytest.raises(SingularPointError):
        commutator_residual(params, test_fields[:1], bad, STEP)


@pytest.mark.parametrize("scale, raises", [(0.99, True), (1.01, False)], ids=["inside", "outside"])
@pytest.mark.parametrize("radius", ["r1", "r2", "r12"])
def test_commutator_clearance_is_four_steps(radius, scale, raises, params, test_fields):
    # each radius in turn just inside or just outside the 4*step clearance:
    # inside, the nested stencil is refused; outside, it reaches no singularity
    d = scale * 4 * STEP
    point = {"r1": ConfigPoint(d, 0.0, 1.0, -1.0),
             "r2": ConfigPoint(1.0, -1.0, d, 0.0),
             "r12": ConfigPoint(1.0, 0.5, 1.0 + d, 0.5)}[radius]
    assert point.min_radius() == getattr(point, radius) == pytest.approx(d, rel=1e-9)
    if raises:
        with pytest.raises(SingularPointError):
            commutator_residual(params, test_fields, point, STEP)
    else:
        assert np.all(np.isfinite(commutator_residual(params, test_fields, point, STEP)))


@pytest.mark.parametrize("step", [0.0, -STEP], ids=["zero", "negative"])
def test_commutator_rejects_a_nonpositive_step(step, params, batch, test_fields):
    with pytest.raises(ValueError, match="step must be positive"):
        commutator_residual(params, test_fields, batch, step)


@pytest.mark.parametrize("n_fields", [1, 3])
@pytest.mark.parametrize("shape", [(), (20,), (4, 5), (0,)], ids=["float", "flat", "grid", "empty"])
def test_commutator_rows_have_the_apply_h_shape(shape, n_fields, params, rows, test_fields):
    # (F,) + S + (4,) for F fields and a batch of shape S; an empty batch gives empty rows
    coords = rows[:int(np.prod(shape))].T.reshape((4,) + shape)
    point = ConfigPoint(*(coords.tolist() if shape == () else coords))
    for out in commutator_residual(params, test_fields[:n_fields], point, STEP):
        assert out.shape == (n_fields,) + shape + (4,) and out.dtype == complex


@pytest.mark.parametrize("name", ["H", "Jz", "M", "component", "covariant"])
def test_batch_equals_stacked_single_points(name, params, rows, batch, test_fields):
    energy = 1.2
    op = {
        "H": lambda p, f0, d: apply_H(params, p, f0, d),
        "Jz": apply_Jz,
        "M": apply_M,
        "component": lambda p, f0, d: component_system_residual(params, p, f0, d, energy),
        "covariant": lambda p, f0, d: covariant_form_residual(params, p, f0, d, energy),
    }[name]

    def apply(field, p):
        return op(p, *gradient(field, p, STEP))

    for field in test_fields:
        batched = apply(field, batch)
        stacked = np.stack([apply(field, p) for p in _single_points(rows)])
        assert batched.shape == stacked.shape
        assert np.abs(batched - stacked).max() <= 1e-15


def test_one_singular_point_in_a_batch_raises(params, rows, test_fields):
    bad = (1e-4, 0.0, 1.0, -1.0)
    batch = ConfigPoint(*np.vstack([rows[:3], bad, rows[3:6]]).T)
    for call in (
        lambda: gradient(test_fields[0], batch, STEP),
        lambda: commutator_residual(params, test_fields[:1], batch, STEP),
    ):
        with pytest.raises(SingularPointError):
            call()


def test_a_nan_coordinate_does_not_clear_the_batch(params, test_fields):
    # the smallest radius of this batch is NaN, which compares false with the
    # margin; the point at r1 = 1e-4, whose stencil straddles the nucleus,
    # must still be refused
    batch = ConfigPoint(np.array([np.nan, 1e-4]), np.zeros(2), np.ones(2), -np.ones(2))
    with pytest.raises(SingularPointError):
        apply_H(params, batch, *gradient(test_fields[0], batch, STEP))
    with pytest.raises(SingularPointError):
        commutator_residual(params, test_fields[:1], batch, STEP)


@pytest.mark.parametrize("field", [
    SpinorField.plane_wave((0, 0, 0, 0), (1, 0.5j, 0, -1)),
    SpinorField.plane_wave((0.6, -0.4, 0.3, 0.8), (1, 1, 1, 1)),
    SpinorField.gaussian((0.1, -0.2, 0.3, 0.0), 2.0, (1, 2j, 3, 4),
                         winding=(1, -2), linear=(0.2, 0.0, -0.1, 0.05)),
])
def test_builtin_field_shapes(field, rows):
    single = field(ConfigPoint(*rows[0].tolist()))
    assert single.shape == (4,) and single.dtype == complex
    batched = field(ConfigPoint(*rows[:5].T))
    assert batched.shape == (5, 4) and batched.dtype == complex
    assert np.array_equal(batched[0], single)


def _nested_commutator(op, params, field, batch, step, assignment=CANONICAL_ASSIGNMENT):
    """Reference rows: H applied to a field that wraps Q field, minus the reverse."""
    apply_q = {"Jz": apply_Jz, "M": apply_M}[op]
    q_field = SpinorField(lambda p: apply_q(p, *gradient(field, p, step)))
    h_field = SpinorField(lambda p: apply_H(params, p, *gradient(field, p, step), assignment))
    hq = apply_H(params, batch, *gradient(q_field, batch, step), assignment)
    qh = apply_q(batch, *gradient(h_field, batch, step))
    return hq - qh


# the two rows commutator_residual returns, in order
OPS = ["M", "Jz"]


@pytest.mark.parametrize("step", [STEP, STEP / 2])
@pytest.mark.parametrize("op", OPS, ids=["H-M", "H-Jz"])
def test_commutator_equals_nested_composition(op, step, params, batch, test_fields):
    # every field's rows, from one batched call, bit for bit
    rows = commutator_residual(params, test_fields, batch, step)[OPS.index(op)]
    for k, field in enumerate(test_fields):
        assert np.array_equal(rows[k], _nested_commutator(op, params, field, batch, step))


@pytest.mark.parametrize("step", [STEP, STEP / 2])
@pytest.mark.parametrize("op", OPS, ids=["H-M", "H-Jz"])
def test_exchanged_commutator_equals_nested_composition(op, step, params, batch, test_fields):
    # the contrast assignment of the verify report goes through the same fused path
    rows = commutator_residual(params, test_fields, batch, step, E2_EXCHANGED_ASSIGNMENT)
    for k, field in enumerate(test_fields):
        assert np.array_equal(rows[OPS.index(op)][k], _nested_commutator(
            op, params, field, batch, step, E2_EXCHANGED_ASSIGNMENT))


def test_commutator_makes_one_field_call(params, batch, test_fields):
    # one call per field on the nested stencil, whatever the number of fields
    calls = []

    def counted(k):
        return SpinorField(lambda p: calls.append((k, np.shape(p.x1))) or test_fields[k](p))

    for n_fields in (1, 3):
        calls.clear()
        commutator_residual(params, [counted(k) for k in range(n_fields)], batch, STEP)
        assert calls == [(k, (9, 9, len(batch.x1))) for k in range(n_fields)]


@pytest.mark.parametrize("step", [STEP, STEP / 2])
def test_batched_fields_equal_the_per_field_rows(step, params, batch, test_fields):
    # the verify battery's fields and points, batched as operator_checks batches them
    batched = commutator_residual(params, test_fields, batch, step)
    single = [commutator_residual(params, [f], batch, step) for f in test_fields]
    for k, rows in enumerate(batched):
        assert np.array_equal(rows, np.concatenate([s[k] for s in single]))


def test_leading_points_equal_their_own_batch(params, rows, batch, test_fields):
    # the canonical contrast of the verify report reads the first field's
    # first 4 points from the full call's rows
    hm = commutator_residual(params, test_fields, batch, STEP)[0]
    assert np.array_equal(hm[0, :4],
                          commutator_residual(params, test_fields[:1], ConfigPoint(*rows[:4].T),
                                              STEP)[0][0])


@pytest.mark.parametrize("n_fields", [1, 3])
def test_float_point_equals_the_batch_of_one(n_fields, params, rows, test_fields):
    # a point of floats is a batch of one, not a point whose values the
    # fields' concatenation would join along the spinor axis
    fields = test_fields[:n_fields]
    single = commutator_residual(params, fields, ConfigPoint(*rows[0].tolist()), STEP)
    batch_of_one = commutator_residual(params, fields, ConfigPoint(*rows[:1].T), STEP)
    for out, ref in zip(single, batch_of_one):
        assert np.array_equal(out, ref[:, 0])


@pytest.mark.parametrize("op", OPS)
def test_batch_residual_is_the_max_over_its_points(op, params, rows, batch, test_fields):
    k = OPS.index(op)
    batched = _worst(commutator_residual(params, test_fields, batch, STEP)[k])
    per_point = [_worst(commutator_residual(params, test_fields, ConfigPoint(*rows[j:j + 1].T),
                                            STEP)[k]) for j in range(len(rows))]
    assert batched == pytest.approx(max(per_point), rel=1e-12)


@pytest.mark.parametrize("n_fields", [1, 3])
def test_batch_of_any_shape_equals_the_flat_batch(n_fields, params, rows, batch, test_fields):
    # a (4, 5) grid of the battery's 20 points is the same batch as its flat form
    fields = test_fields[:n_fields]
    grid = ConfigPoint(*rows.T.reshape(4, 4, 5))
    for out, flat in zip(commutator_residual(params, fields, grid, STEP),
                         commutator_residual(params, fields, batch, STEP)):
        assert np.array_equal(out.reshape(flat.shape), flat)


def _stacked_gaussian(center, width, values, winding=(0, 0), linear=None):
    """Reference: the Gaussian field written over a stacked length-4 coordinate axis."""
    c, v = np.asarray(center, dtype=float), np.asarray(values, dtype=complex)
    lin = np.zeros(4) if linear is None else np.asarray(linear, dtype=float)

    def fn(p):
        x = np.stack([p.x1, p.y1, p.x2, p.y2], axis=-1)
        env = np.exp(-np.sum((x - c) ** 2, axis=-1) / width**2)
        poly = 1.0 + np.sum(lin * x, axis=-1)
        phase = np.exp(1j * (winding[0] * p.theta1 + winding[1] * p.theta2))
        return v * (env * poly * phase)[..., None]

    return fn


@pytest.mark.parametrize("kwargs", [
    dict(center=(0.1, -0.2, 0.3, 0.0), width=2.0,
         values=(0.3 + 0.4j, -0.2 + 0.1j, 0.7 - 0.3j, 0.5 + 0.6j),
         winding=(1, -2), linear=(0.2, 0.0, -0.1, 0.05)),
    dict(center=(-0.3, 0.1, 0.0, 0.25), width=1.7, values=(0.8, 0.1 - 0.5j, -0.4j, 0.2 + 0.2j),
         winding=(0, 1)),
    dict(center=(0.0, 0.0, -0.2, -0.1), width=2.4, values=(0.5j, 0.6, -0.7, 0.3 - 0.1j),
         linear=(0.0, 0.15, 0.1, 0.0)),
], ids=["winding-and-linear", "winding", "linear"])
def test_gaussian_matches_the_stacked_form(kwargs, rows, batch):
    field, reference = SpinorField.gaussian(**kwargs), _stacked_gaussian(**kwargs)
    # a batch, the nested stencil the commutator evaluates, and one point
    for p in (batch, _stencil(_stencil(batch, STEP), STEP), ConfigPoint(*rows[0].tolist())):
        np.testing.assert_allclose(field(p), reference(p), rtol=1e-14, atol=0)
