"""The records of the model, spectrum, optimize, operators, angular and verify layers."""

import pytest

from hespinor import angular, model, operators, optimize, spectrum, verify
from hespinor.model import ModelParams, ParameterError


def test_replace_and_make_validate_model_params():
    params = ModelParams(0.3)
    assert params._replace(j1=1.5) == ModelParams(0.3, j1=1.5)
    with pytest.raises(ParameterError, match="^sigma must lie in"):
        params._replace(sigma=2.0)
    with pytest.raises(ParameterError, match="^j2 = 0.0"):
        ModelParams._make((0.3, model.FINE_STRUCTURE_ALPHA, 1.0, 0.0))


@pytest.mark.parametrize("record", [
    ModelParams(0.3),
    spectrum.closed_form(0.3),
    spectrum.equilibrium_point(0.3),
    optimize.minimize_delta_e((0.05, 0.5)),
    operators.ConfigPoint(1.1, 0.4, -0.8, 0.9),
    operators.SpinorField.plane_wave((0.6, -0.4, 0.3, 0.8), (1, 1, 1, 1)),
    angular.PhaseAssignment.canonical(1.0, 1.0),
    verify.CheckResult("c", 0.25, hi=1.0),
    verify.VerifyReport([verify.CheckResult("c", 0.25, hi=1.0)]),
], ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 0.5)
    with pytest.raises(AttributeError):
        record.extra = 0.5  # no instance dict either
    assert getattr(record, field) != 0.5

