"""The package's records: every construction path checks the fields, and no field can be assigned.

Each validated record is built valid, then rebuilt with one bad field
through the constructor, ``_replace`` and ``_make``; all three must raise
``ValueError``.
"""

import copy
import math
import pickle

import pytest

from clonectx import bounds, cli, ontic, quantum, scan

GRID = ontic.LambdaGrid.uniform(1, 4)
IDENTITY = tuple(tuple(float(i == j) for j in range(4)) for i in range(4))

# (a valid record, a field, a value that field may not take)
RECORDS = {
    "OverlapParams": (lambda: bounds.OverlapParams.symmetric(0.3), "c_ab", math.nan),
    "ErrorBudget": (lambda: bounds.ErrorBudget.uniform(0.1), "eps_bb", 1.5),
    "CurveSeries": (lambda: scan.CurveSeries("c", "F", (0.0, 0.5), (1.0, 0.9), "p"), "x", (0.5, 0.0)),
    "ViolationRegion": (lambda: scan.ViolationRegion(0.015, 0.3, 0.7, "thm2-direct", "ideal-overlap"),
                        "c_hi", None),
    "PureState": (lambda: quantum.PureState((1.0, 0.0)), "amplitudes", (1.0, 1.0)),
    "DensityOperator": (lambda: quantum.DensityOperator(((0.5, 0.0), (0.0, 0.5))),
                        "matrix", ((1.5, 0.0), (0.0, -0.5))),
    "TwoOutcomeMeasurement": (lambda: quantum.TwoOutcomeMeasurement(((1.0, 0.0), (0.0, 0.0))),
                              "effect", ((2.0, 0.0), (0.0, 0.0))),
    "LambdaGrid": (lambda: GRID, "edges", ((0.0, 1.0),)),
    "EpistemicState": (lambda: ontic.EpistemicState.uniform(GRID), "density", (1.0, 1.0, 1.0, 1.0)),
    "ResponseFunction": (lambda: ontic.ResponseFunction(GRID, (1.0, 0.0, 0.0, 1.0)), "values", (2.0, 0.0, 0.0, 0.0)),
    "StochasticMap": (lambda: ontic.StochasticMap(GRID, GRID, IDENTITY), "kernel", ((0.5,) * 4,) * 4),
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
        bounds.OverlapParams._make([0.1, 0.2, 0.3])


def test_copies_normalise_like_the_constructor():
    state = quantum.PureState((1.0, 0.0))._replace(amplitudes=[0, 1])
    assert state.amplitudes == (0j, 1 + 0j)
    grid = GRID._replace(edges=[(0, 0.5, 2)])
    assert grid == ontic.LambdaGrid(((0.0, 0.5, 2.0),))
    assert grid.cells == (((0.0, 0.5),), ((0.5, 2.0),)) and grid.volumes == (0.5, 1.5)


def test_model_copy_with_mixed_states_is_checked():
    model = ontic.build_saturating_model(0.3)
    mixed = ontic.mix_with_uniform(model, 0.1)
    assert type(mixed) is ontic.OnticModel and mixed.clone_map is model.clone_map
    with pytest.raises(ValueError, match="missing states"):
        model._replace(states={"a": model.states["a"]})


def test_run_reports_share_no_outputs_or_verdicts():
    first, second = cli.RunReport("bounds", {}), cli.RunReport("bounds", {})
    first.outputs["x"] = 1.0
    first.add_verdict("check", True)
    assert second.outputs == {} and second.verdicts == []
