"""The package's records: every construction path checks the fields, and no field can be assigned.

Each validated record is built valid, then rebuilt with one bad field
through the constructor, ``_replace`` and ``_make``; all three must raise
``ValueError``.
"""

import copy
import pickle

import numpy as np
import pytest

from clonectx import cli, ontic, quantum, scan

IDENTITY = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))

# (a valid record, a field, a value that field may not take)
RECORDS = {
    "CurveSeries": (lambda: scan.CurveSeries("c", "F", (0.0, 0.5), (1.0, 0.9), "p"), "x", (0.5, 0.0)),
    "ViolationRegion": (lambda: scan.ViolationRegion(0.015, 0.3, 0.7, "thm2-direct", "ideal-overlap"),
                        "c_hi", None),
    "DensityOperator": (lambda: quantum.DensityOperator(((0.5, 0.0), (0.0, 0.5))),
                        "matrix", ((1.5, 0.0), (0.0, -0.5))),
    # Every operator is real: a Python complex entry is rejected, even with a zero or subnormal imaginary part.
    "DensityOperator[complex-zero]": (lambda: quantum.DensityOperator(((0.5, 0.0), (0.0, 0.5))),
                                      "matrix", ((0.5, 0j), (0j, 0.5))),
    "DensityOperator[complex-tiny]": (lambda: quantum.DensityOperator(((0.5, 0.0), (0.0, 0.5))),
                                      "matrix", ((0.5, 0.0), (0.0, complex(0.5, 1e-300)))),
    # A numpy complex entry too, which float() would cut to its real part with only a ComplexWarning.
    "DensityOperator[numpy-complex128]": (lambda: quantum.DensityOperator(((0.5, 0.0), (0.0, 0.5))),
                                          "matrix", np.diag([0.5, complex(0.5, 0.3)])),
    "DensityOperator[numpy-complex64-zero]": (lambda: quantum.DensityOperator(((0.5, 0.0), (0.0, 0.5))),
                                              "matrix", np.diag(np.array([0.5, 0.5], dtype=np.complex64))),
    "EpistemicState": (lambda: ontic.EpistemicState((0.25,) * 4), "mass", (1.0, 1.0, 1.0, 1.0)),
    "ResponseFunction": (lambda: ontic.ResponseFunction((1.0, 0.0, 0.0, 1.0)), "values", (2.0, 0.0, 0.0, 0.0)),
    "StochasticMap": (lambda: ontic.StochasticMap(IDENTITY), "kernel", ((0.5,) * 4,) * 4),
    "StochasticMap[ragged]": (lambda: ontic.StochasticMap(IDENTITY), "kernel", ((1.0,), (0.0, 1.0))),
    "OnticModel": (lambda: ontic.build_saturating_model(0.3), "states", {}),
}
records = pytest.mark.parametrize("record, field, bad", RECORDS.values(), ids=RECORDS)


@records
def test_constructor_rejects_a_bad_field(record, field, bad):
    valid = record()
    with pytest.raises(ValueError):
        type(valid)(**{**valid._asdict(), field: bad})


@records
def test_replace_rejects_a_bad_field(record, field, bad):
    with pytest.raises(ValueError):
        record()._replace(**{field: bad})


@records
def test_make_rejects_a_bad_field(record, field, bad):
    valid = record()
    with pytest.raises(ValueError):
        type(valid)._make(bad if f == field else x for f, x in zip(valid._fields, valid))


@records
def test_fields_cannot_be_assigned(record, field, bad):
    valid = record()
    with pytest.raises(AttributeError):
        setattr(valid, field, bad)
    with pytest.raises(AttributeError):
        valid.unknown = 1


@records
def test_copies_of_a_valid_record_are_equal(record, field, bad):
    valid = record()
    for twin in (valid._replace(), type(valid)._make(valid), copy.copy(valid), pickle.loads(pickle.dumps(valid))):
        assert type(twin) is type(valid) and twin == valid


def test_make_rejects_a_wrong_field_count():
    with pytest.raises(TypeError):
        scan.CurveSeries._make(["c", "F", (0.0, 0.5)])


def test_copies_normalise_like_the_constructor():
    rho = quantum.DensityOperator(((1.0, 0.0), (0.0, 0.0)))._replace(matrix=[[0, 0], [0, 1]])
    assert repr(rho.matrix) == repr(((0.0, 0.0), (0.0, 1.0)))
    state = ontic.EpistemicState((1.0,))._replace(mass=[0, 1])
    assert repr(state.mass) == repr((0.0, 1.0)) and state == ontic.EpistemicState((0.0, 1.0))
    kernel = ontic.StochasticMap(IDENTITY)._replace(kernel=[[1, 0], [0.5, 0.5]]).kernel
    assert type(kernel) is ontic._Table and repr(kernel) == repr(((1.0, 0.0), (0.5, 0.5)))


def test_model_copy_with_mixed_states_is_checked():
    model = ontic.build_saturating_model(0.3)
    mixed = ontic.mix_with_uniform(model, 0.1)
    assert type(mixed) is ontic.OnticModel and mixed.clone_map is model.clone_map
    with pytest.raises(ValueError, match="missing states"):
        model._replace(states={"a": model.states["a"]})


def test_run_reports_share_no_outputs_or_verdicts():
    first, second = cli.RunReport("bounds", {}), cli.RunReport("bounds", {})
    first.outputs["x"] = 1.0
    first.check("check", "residual", 0.0, 1.0)
    assert second.outputs == {} and second.verdicts == []
