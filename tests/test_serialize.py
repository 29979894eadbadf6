import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from infopower import serialize
from infopower.errors import SchemaError
from infopower.information import ClassicalChannel, blahut_arimoto
from infopower.objects import (
    DensityOperator,
    anti_tetrahedral_ensemble,
    maximally_mixed,
    random_povm,
    tetrahedral_sic_povm,
)
from infopower.solver import SolverConfig, informational_power


finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(finite_doubles, finite_doubles)
def test_complex_encoding_is_bit_exact(re, im):
    z = complex(re, im)
    back = serialize.encode_complex(z)
    assert json.loads(json.dumps(back)) == [re, im]


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_matrix_round_trip_bit_exact(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    node = json.loads(json.dumps(serialize.encode_matrix(m)))
    back = serialize.decode_matrix(node, 3, "matrix")
    assert np.array_equal(back, m)


def test_encode_matrix_matches_per_entry_encoding():
    rng = np.random.default_rng(16)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m[0, 0], m[1, 1], m[2, 2] = complex(-0.0, 1e-300), complex(1e-300, -0.0), 0.0
    per_entry = [[serialize.encode_complex(z) for z in row] for row in m]
    assert serialize.dumps({"m": serialize.encode_matrix(m)}) == serialize.dumps({"m": per_entry})


def test_awkward_doubles_survive_json():
    m = np.array([[0.1, 1.0 / 3.0], [math.pi, 5e-324]], dtype=complex)
    m[0, 0] += 1e-300j
    node = json.loads(serialize.dumps({"m": serialize.encode_matrix(m)}))["m"]
    assert np.array_equal(serialize.decode_matrix(node, 2, "m"), m)


def test_povm_document_round_trip():
    p = random_povm(3, 4, seed=8)
    doc = json.loads(serialize.dumps(serialize.povm_to_document(p)))
    back = serialize.povm_from_document(doc)
    assert np.array_equal(back.elements, p.elements)


def test_ensemble_document_round_trip():
    e = anti_tetrahedral_ensemble()
    doc = json.loads(serialize.dumps(serialize.ensemble_to_document(e)))
    back = serialize.ensemble_from_document(doc)
    assert np.array_equal(back.priors, e.priors)
    for a, b in zip(back.states, e.states):
        assert np.array_equal(a.matrix, b.matrix)


def test_state_document_round_trip():
    rho = maximally_mixed(3)
    doc = json.loads(serialize.dumps(serialize.state_to_document(rho)))
    back = serialize.state_from_document(doc)
    assert np.array_equal(back.matrix, rho.matrix)


def test_channel_document_round_trip():
    ch = ClassicalChannel(np.array([[0.9, 0.1], [0.25, 0.75]]))
    doc = json.loads(serialize.dumps(serialize.channel_to_document(ch)))
    back = serialize.channel_from_document(doc)
    assert np.array_equal(back.probs, ch.probs)


def test_kind_tag_is_enforced():
    p_doc = serialize.povm_to_document(tetrahedral_sic_povm())
    with pytest.raises(SchemaError):
        serialize.ensemble_from_document(p_doc)
    with pytest.raises(SchemaError):
        serialize.channel_from_document(p_doc)
    with pytest.raises(SchemaError):
        serialize.state_from_document(p_doc)


def test_missing_and_malformed_fields_raise_schema_error():
    with pytest.raises(SchemaError):
        serialize.povm_elements_from_document({"kind": "povm", "dim": 2})
    with pytest.raises(SchemaError):
        serialize.povm_elements_from_document(
            {"kind": "povm", "dim": 2, "elements": [[[1.0, 0.0]]]}
        )
    with pytest.raises(SchemaError):
        serialize.decode_matrix([[[1.0], [0.0, 0.0]]], 1, "m")


def test_load_document_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError):
        serialize.load_document(str(bad))
    scalar = tmp_path / "scalar.json"
    scalar.write_text("42", encoding="utf-8")
    with pytest.raises(SchemaError):
        serialize.load_document(str(scalar))


def test_ingest_tolerance_is_looser_than_construction():
    els = np.stack([np.diag([0.5, 0.5]), np.diag([0.5, 0.5 + 3e-9])])
    doc = {
        "kind": "povm",
        "dim": 2,
        "elements": [serialize.encode_matrix(m) for m in els],
    }
    p = serialize.povm_from_document(doc)  # 1e-8 ingest tolerance accepts it
    assert p.num_outcomes == 2
    from infopower.objects import Povm

    with pytest.raises(ValueError):
        Povm(els)  # 1e-9 construction tolerance rejects the same stack


def test_report_document_fields_and_self_readability():
    rep = informational_power(tetrahedral_sic_povm(), SolverConfig(restarts=2, seed=0))
    doc = json.loads(serialize.dumps(serialize.report_to_document(rep)))
    assert doc["kind"] == "report"
    assert doc["base"] == "bits"
    assert set(doc["bound_check"]) == {
        "dim",
        "m_eff",
        "lower",
        "upper",
        "passed",
        "real_entries",
        "real_upper",
        "real_passed",
    }
    # the embedded ensemble is itself a valid ensemble document
    back = serialize.ensemble_from_document(doc["best_ensemble"])
    assert back.dim == 2


def test_capacity_document():
    res = blahut_arimoto(ClassicalChannel(np.eye(2)))
    doc = serialize.capacity_to_document(res, "bits")
    assert doc["kind"] == "capacity"
    assert doc["capacity"] == pytest.approx(1.0)
    assert doc["converged"] is True


def test_dumps_is_deterministic_and_sorted():
    doc = {"b": 1, "a": [1.5, 2.5]}
    s = serialize.dumps(doc)
    assert s == '{\n  "a": [\n    1.5,\n    2.5\n  ],\n  "b": 1\n}\n'
    assert serialize.dumps(doc) == s


def test_write_document_round_trip(tmp_path):
    p = tetrahedral_sic_povm()
    path = tmp_path / "sic.json"
    serialize.write_document(str(path), serialize.povm_to_document(p))
    back = serialize.povm_from_document(serialize.load_document(str(path)))
    assert np.array_equal(back.elements, p.elements)


def test_decode_matrix_rejects_nonfinite():
    node = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(SchemaError):
        serialize.decode_matrix(node, 2, "m")
