"""Properties of the closed form over sigma arrays in (0, 1], and of the
commands over the whole parameter domain."""

import contextlib
import io
import math
import re

import numpy as np
import pytest

from hespinor import cli, model, optimize, spectrum
from hespinor.model import FINE_STRUCTURE_ALPHA, J_MAX, SIGMA_MIN

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SIGMA_ARRAYS = st.lists(st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False),
                        min_size=1, max_size=40).map(np.array)
PROPERTY = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)


@PROPERTY
@hypothesis.given(SIGMA_ARRAYS)
def test_property_array_equals_scalar(sigmas):
    batch = spectrum.equilibrium_point(sigmas)
    for i, sigma in enumerate(sigmas.tolist()):
        point = spectrum.equilibrium_point(sigma)
        for field in spectrum.EquilibriumPoint._fields:
            got, want = getattr(batch, field)[i], getattr(point, field)
            # ``** 0.5`` of a float and numpy's sqrt may differ in the last ulp;
            # delta_e crosses zero near sigma = 0.4, so it is scaled by max(|x|, 1)
            scale = max(abs(want), 1.0) if field == "delta_e" else abs(want)
            assert abs(got - want) <= 1e-15 * scale, (field, sigma)


@PROPERTY
@hypothesis.given(SIGMA_ARRAYS)
def test_property_geometry_and_bracket_identities(sigmas):
    cf = spectrum.closed_form(sigmas)
    pt = spectrum.equilibrium_point(sigmas)
    assert np.all(np.abs(pt.rho0 - (pt.r10 + pt.r20)) <= 1e-12 * pt.rho0)
    assert np.all(np.abs(pt.r10 - sigmas * pt.r20) <= 1e-12 * pt.r10)
    assert np.all(np.abs(cf.c1 - cf.bracket * cf.c2) <= 1e-12 * cf.c1)


@PROPERTY
@hypothesis.given(st.lists(st.floats(0.0, 1e-2, exclude_min=True, allow_subnormal=False),
                           min_size=1, max_size=40).map(np.array))
def test_property_ion_limit_approach(sigmas):
    gap = np.abs(spectrum.delta_e(spectrum.closed_form(sigmas)) - spectrum.ion_limit())
    # the gap closes linearly in sigma (slope about 6); the floor is the
    # rounding of delta_e and ion_limit(), a few ulp of 2
    assert np.all(gap <= 10 * sigmas + 1e-12)


@st.composite
def scan_domains(draw):
    """(alpha, j1, j2, sigma_min, sigma_max, points) in the scan's domain, with
    each j at or near the edge s = 0 two times in three: 1/2 + 10^-k for k <= 17
    (1/2 itself at k = 17), or a few ulps either side of the root of
    j^2 - 4 alpha^2 = 1/4.
    Otherwise j is log-uniform between 2 alpha and 4, so s < 0 and B^2 underflows
    at small sigma where j is tiny (s = -1/2 exactly, B ~ sigma^3)."""
    rnd = draw(st.randoms(use_true_random=True))
    alpha = 2.0 ** rnd.uniform(-511, -1.5)
    edge = math.sqrt(0.25 + 4 * alpha * alpha)

    def draw_j():
        pick = rnd.randrange(3)
        j = (0.5 + 10.0 ** -rnd.randint(1, 17) if pick == 0
             else edge + rnd.randint(-4, 4) * math.ulp(edge) if pick == 1
             else 2.0 ** rnd.uniform(math.log2(2 * alpha), 2))
        return rnd.choice((1.0, -1.0)) * j

    j1, j2 = draw_j(), draw_j()
    hypothesis.assume(4 * alpha * alpha < min(j1 * j1, j2 * j2))
    sigma_min, sigma_max = sorted(2.0 ** rnd.uniform(-516, 0) for _ in range(2))
    hypothesis.assume(sigma_min < sigma_max)
    return alpha, j1, j2, sigma_min, sigma_max, rnd.randint(2, 2 * optimize.SCAN_CHUNK_ROWS + 1)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.example(domain=(1e-100, 0.5, 1.0, 1e-150, 1e-140, 3))  # B ~ s1 / 2 = -2e-200
@hypothesis.example(domain=(1e-100, 1.0, 0.5, 0.5, 1.0, 100000))  # B^2 = 0 in the last row only
@hypothesis.example(domain=(1.2457268173565584e-107, -5.942966867006111e-24,
                            -2.5450831915338916e-23, 5.6e-141, 2.9e-122, 3))
@hypothesis.example(domain=(0.1875, 0.625, 1.0, 1e-60, 1e-50, 5))  # s1 = 0: B = 4 sigma^3 ...
@hypothesis.example(domain=(0.1875, 0.625, 1.0, 0.05, 0.5, 9))  # ... which is > 0 here
@hypothesis.example(domain=(1e-10, 0.5, 1.0, 0.05, 0.5, 9))  # s1 = -4e-20
@hypothesis.given(domain=scan_domains())
def test_property_b_squared_proof_or_pass_raises_where_the_full_pass_does(domain):
    # scan_sigma checks B^2 only where the proof (s1, s2 > 0) does not hold; the full
    # pass checks every row of the grid, with the closed form's own expression for B
    alpha, j1, j2, sigma_min, sigma_max, points = domain
    s1, s2 = model.exponents(j1, j2, alpha)
    sigma = np.linspace(sigma_min, sigma_max, points)
    with np.errstate(all="ignore"):
        b = (1 - sigma) * (1 - sigma) * (s1 + 0.5) * s1 + 4 * (sigma * sigma * sigma) * (
            s2 + 1.5) * s2
        full_pass_raises = not (b * b).all()
        try:
            optimize.scan_sigma(sigma_min, sigma_max, points, alpha, j1, j2)
        except ZeroDivisionError:
            assert full_pass_raises
        else:
            assert not full_pass_raises


@st.composite
def command_inputs(draw):
    """Log-uniform draws that each reach a little past their documented edges:
    alpha >= 2**-511, 4 alpha^2 < j^2 <= J_MAX^2 with either sign of j,
    SIGMA_MIN <= sigma <= 1, points >= 2 and one ulp of the largest sigma <= tol
    < the bracket width.
    alpha stops at 2**256: above J_MAX / 2 no j is in the domain, and the
    examples hold the largest floats.

    A seeded ``random.Random`` draws the exponents uniformly; hypothesis's own
    floats would favour simple values such as alpha = j = 1, outside the domain.
    """
    rnd = draw(st.randoms(use_true_random=True))

    def log_uniform(lo_exp, hi_exp):
        return 2.0 ** rnd.uniform(lo_exp, hi_exp)

    alpha = log_uniform(-515, 256)
    j_lo = min(math.log2(2 * alpha) - 2, 254)
    j1, j2 = (rnd.choice((1.0, -1.0)) * log_uniform(j_lo, 254.5) for _ in range(2))
    sigma_lo, sigma_hi = sorted((log_uniform(-520, 0.5), log_uniform(-520, 0.5)))
    return dict(fmt=rnd.choice(("csv", "json")), alpha=alpha, j1=j1, j2=j2,
                sigma_lo=sigma_lo, sigma_hi=sigma_hi, points=rnd.randint(0, 7),
                tol=math.ulp(sigma_hi) * log_uniform(-3, 60))


EDGE = math.nextafter
DOMAIN_EXAMPLES = [  # each exact edge and its neighbour outside the domain
    dict(alpha=2.0**-511), dict(alpha=EDGE(2.0**-511, 0)),
    dict(alpha=EDGE(math.inf, 0)), dict(alpha=math.inf), dict(alpha=math.nan),
    dict(alpha=0.0), dict(alpha=-0.1), dict(alpha=1e200),
    dict(j1=J_MAX), dict(j1=EDGE(J_MAX, math.inf)),
    dict(j2=-J_MAX), dict(j2=EDGE(-J_MAX, -math.inf)),
    dict(alpha=0.25, j1=EDGE(0.5, 1.0)), dict(alpha=0.25, j1=0.5),
    dict(sigma_lo=SIGMA_MIN), dict(sigma_lo=EDGE(SIGMA_MIN, 0)),
    dict(sigma_hi=1.0), dict(sigma_hi=EDGE(1.0, 2.0)),
    dict(sigma_lo=0.3, sigma_hi=0.3), dict(sigma_lo=0.5, sigma_hi=0.05),
    dict(points=2), dict(points=1), dict(points=2**53 + 2),  # 2**53 + 1 writes 9e15 rows
    dict(tol=math.ulp(0.5)), dict(tol=EDGE(math.ulp(0.5), 0)),
    dict(tol=EDGE(0.5 - 0.05, 0)), dict(tol=0.5 - 0.05),
]
DEFAULTS = dict(fmt="csv", alpha=FINE_STRUCTURE_ALPHA, j1=1.0, j2=1.0, sigma_lo=0.05, sigma_hi=0.5,
                points=5, tol=1e-6)
PARAMETER_NAMES = ("alpha", "j1", "j2", "sigma", "sigma_min", "points", "tol")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _argv(command, p):
    argv = [command, f"--alpha={p['alpha']!r}", f"--j1={p['j1']!r}", f"--j2={p['j2']!r}",
            f"--format={p['fmt']}"]
    if command == "ion-limit":
        return argv + [f"--sigmas={p['sigma_lo']!r},{p['sigma_hi']!r}"]
    argv += [f"--sigma-min={p['sigma_lo']!r}", f"--sigma-max={p['sigma_hi']!r}"]
    return argv + ([f"--points={p['points']}"] if command == "scan" else [f"--tol={p['tol']!r}"])


def _with_examples(test):
    for example in DOMAIN_EXAMPLES:
        test = hypothesis.example(params={**DEFAULTS, **example})(test)
    return test


@pytest.mark.parametrize("command", ["scan", "minimize", "ion-limit"])
@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@_with_examples
@hypothesis.given(params=command_inputs())
def test_property_every_input_prints_finite_numbers_or_exits_2_or_3(command, params):
    code, out, err = _run(_argv(command, params))
    if code == 0:
        numbers = [float(token) for token in re.findall(r"[-+.\w]+", out)
                   if re.fullmatch(r"[-+]?(\d[\d.]*(e[-+]?\d+)?|nan|inf|NaN|Infinity)", token)]
        assert numbers and all(map(math.isfinite, numbers)), out
    elif code == 2:
        assert re.match(rf"invalid arguments: ({'|'.join(PARAMETER_NAMES)}) = ", err), err
    else:
        assert code == 3 and err.startswith("numeric error: "), (code, err)
