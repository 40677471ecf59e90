"""Properties of the closed form over sigma arrays in (0, 1]."""

import dataclasses

import numpy as np
import pytest

from hespinor import spectrum

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
        for field in dataclasses.fields(spectrum.EquilibriumPoint):
            got, want = getattr(batch, field.name)[i], getattr(point, field.name)
            # ``** 0.5`` of a float and numpy's sqrt may differ in the last ulp;
            # delta_e crosses zero near sigma = 0.4, so it is scaled by max(|x|, 1)
            scale = max(abs(want), 1.0) if field.name == "delta_e" else abs(want)
            assert abs(got - want) <= 1e-15 * scale, (field.name, sigma)


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
    # rounding of ion_limit() itself, which forms E(0)/m - 1 by subtraction
    assert np.all(gap <= 10 * sigmas + 1e-12)
