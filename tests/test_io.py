import json

import numpy as np
import pytest
from conftest import random_density, random_pure

from entmono import (
    DensityMatrix,
    PureState,
    StateFormatError,
    load_state,
    save_state,
)
from entmono.io import state_from_dict, state_to_dict


def test_density_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    rho = random_density(rng, 2, 3)
    path = tmp_path / "rho.json"
    save_state(path, rho)
    back = load_state(path)
    assert isinstance(back, DensityMatrix)
    assert back.dims == (2, 3)
    assert np.allclose(back.mat, rho.mat, atol=1e-15)


def test_pure_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    psi = random_pure(rng, 3, 4)
    path = tmp_path / "psi.json"
    save_state(path, psi)
    back = load_state(path)
    assert isinstance(back, PureState)
    assert back.dims == (3, 4)
    assert np.allclose(back.vec, psi.vec, atol=1e-15)


def _bell_dict():
    h = 0.5
    return {
        "d_a": 2,
        "d_b": 2,
        "kind": "density",
        "re": [[h, 0, 0, h], [0, 0, 0, 0], [0, 0, 0, 0], [h, 0, 0, h]],
        "im": [[0.0] * 4 for _ in range(4)],
    }


def test_dict_parsing():
    rho = state_from_dict(_bell_dict())
    assert isinstance(rho, DensityMatrix)
    assert abs(rho.mat[0, 3] - 0.5) < 1e-15


def test_rejects_missing_keys():
    obj = _bell_dict()
    del obj["im"]
    with pytest.raises(StateFormatError, match="im"):
        state_from_dict(obj)


def test_rejects_non_rectangular():
    obj = _bell_dict()
    obj["re"][1] = [0, 0, 0]
    with pytest.raises(StateFormatError, match="rectangular"):
        state_from_dict(obj)


def test_rejects_dimension_mismatch():
    obj = _bell_dict()
    obj["d_b"] = 3
    with pytest.raises(StateFormatError, match="6x6"):
        state_from_dict(obj)


@pytest.mark.parametrize("key", ["d_a", "d_b"])
def test_rejects_boolean_dimension(key):
    obj = _bell_dict()
    obj[key] = True  # bool is an int subclass; JSON true is not a dimension
    with pytest.raises(StateFormatError, match="positive integers"):
        state_from_dict(obj)


def test_rejects_unknown_kind():
    obj = _bell_dict()
    obj["kind"] = "mixed"
    with pytest.raises(StateFormatError, match="kind"):
        state_from_dict(obj)


def test_rejects_mismatched_re_im():
    obj = _bell_dict()
    obj["im"] = [[0.0] * 4 for _ in range(3)]
    with pytest.raises(StateFormatError, match="shape"):
        state_from_dict(obj)


def test_pure_needs_single_row():
    obj = {
        "d_a": 2,
        "d_b": 2,
        "kind": "pure",
        "re": [[1, 0], [0, 0]],
        "im": [[0, 0], [0, 0]],
    }
    with pytest.raises(StateFormatError, match="single row"):
        state_from_dict(obj)


def test_rejects_non_numeric():
    obj = _bell_dict()
    obj["re"][0][0] = "x"
    with pytest.raises(StateFormatError, match="non-numeric"):
        state_from_dict(obj)


@pytest.mark.parametrize("entry", [True, False, "1", "0.5", None, [1.0]])
def test_rejects_entries_that_are_not_json_numbers(entry):
    # numpy reads true/false and numeric strings as numbers, and null as NaN
    for key in ("re", "im"):
        obj = _bell_dict()
        obj[key][1][2] = entry
        with pytest.raises(StateFormatError, match=f'"{key}" contains non-numeric'):
            state_from_dict(obj)


def test_integer_beyond_float_range_is_named():
    obj = _bell_dict()
    obj["re"][0][0] = 10**400
    with pytest.raises(StateFormatError, match="beyond the float range"):
        state_from_dict(obj)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"d_a": 2,\n  oops}')
    with pytest.raises(StateFormatError, match=r"line 2"):
        load_state(path)


def test_load_reports_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d_a": 2}))
    with pytest.raises(StateFormatError, match="bad.json"):
        load_state(path)
