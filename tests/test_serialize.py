import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    node = json.loads(json.dumps(serialize.encode_matrix(m).tolist()))
    back = serialize.decode_matrix(node, 3, "matrix")
    assert np.array_equal(back, m)


def test_encode_matrix_matches_per_entry_encoding():
    rng = np.random.default_rng(16)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m[0, 0], m[1, 1], m[2, 2] = complex(-0.0, 1e-300), complex(1e-300, -0.0), 0.0
    per_entry = [[serialize.encode_complex(z) for z in row] for row in m]
    assert serialize.dumps({"m": serialize.encode_matrix(m)}) == serialize.dumps({"m": per_entry})


def test_awkward_doubles_survive_json():
    m = np.array([[0.1, 1.0 / 3.0, math.pi], [5e-324, 1.0, 1.0], [1.0, 1.0, 0.0]], dtype=complex)
    m[0, 0] += 1e-300j
    # signed zeros, which re + 1j*im would turn into +0.0
    m[1, 1], m[1, 2], m[2, 0] = complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0)
    node = json.loads(serialize.dumps({"m": serialize.encode_matrix(m)}))["m"]
    back = serialize.decode_matrix(node, 3, "m")
    assert np.array_equal(back, m)
    assert np.array_equal(np.signbit(back.view(float)), np.signbit(m.view(float)))


def test_povm_document_round_trip():
    p = random_povm(3, 4, seed=8)
    doc = json.loads(serialize.dumps(serialize.povm_to_document(p)))
    back = serialize.povm_from_document(doc)
    assert np.array_equal(back.elements, p.elements)


def test_ensemble_document_round_trip():
    e = anti_tetrahedral_ensemble()
    doc = serialize.ensemble_to_document(e)
    # the in-memory document holds arrays, the parsed one nested lists
    for back in (serialize.ensemble_from_document(doc),
                 serialize.ensemble_from_document(json.loads(serialize.dumps(doc)))):
        assert np.array_equal(back.priors, e.priors)
        assert np.array_equal(back.states, e.states)


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
    # an array of rank 0 is no list of elements, states or priors
    with pytest.raises(SchemaError):
        serialize.povm_elements_from_document({"kind": "povm", "dim": 1, "elements": np.array(1.0)})
    ens = serialize.ensemble_to_document(anti_tetrahedral_ensemble())
    with pytest.raises(SchemaError):
        serialize.ensemble_from_document({**ens, "priors": np.array(1.0)})


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
    rep = informational_power(tetrahedral_sic_povm(), SolverConfig(seed=0))
    doc = json.loads(serialize.dumps(serialize.report_to_document(rep)))
    assert doc["kind"] == "report"
    assert doc["base"] == "bits"
    assert set(doc["bound_check"]) == {
        "dim",
        "m_eff",
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


# ---------------------------------------------------------------------------
# dumps writes exactly what json.dumps(indent=2, sort_keys=True) writes


def json_reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=np.ndarray.tolist) + "\n"


AWKWARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]
BIG_INTS = [2**63 - 1, 2**63, 2**64, 2**70, -(2**63) - 1]
awkward_text = st.text(st.sampled_from('[],:"\\ aé☃\x00\n') | st.characters(), max_size=6)
numbers = (
    st.booleans()
    | st.integers()
    | st.sampled_from(BIG_INTS)
    | st.floats(width=64)
    | st.sampled_from(AWKWARD_FLOATS)
    | st.floats(width=64).map(np.float64)
)


@st.composite
def rectangular_lists(draw):
    """Nested lists of one shape, with bool, int and float leaves mixed."""
    shape = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    size = int(np.prod(shape))
    leaves = iter(draw(st.lists(numbers, min_size=size, max_size=size)))

    def build(dims):
        if not dims:
            return next(leaves)
        return [build(dims[1:]) for _ in range(dims[0])]

    return build(shape)


ARRAY_DTYPES = [np.bool_, np.int8, np.int64, np.uint8, np.uint64, np.float16, np.float32, np.float64]


@st.composite
def arrays(draw):
    """ndarrays of rank 0 to 3, size 0 included, C-ordered or transposed."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    dtype = np.dtype(draw(st.sampled_from(ARRAY_DTYPES)))
    size = int(np.prod(shape))
    if dtype.kind == "f":
        leaves = st.floats(width=64) | st.sampled_from(AWKWARD_FLOATS)
    elif dtype.kind == "b":
        leaves = st.booleans()
    else:
        info = np.iinfo(dtype)
        leaves = st.integers(int(info.min), int(info.max))
    values = draw(st.lists(leaves, min_size=size, max_size=size))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # doubles cast to float16/32
        a = np.array(values, dtype=dtype).reshape(shape)
    return a.T if draw(st.booleans()) else a


json_leaves = st.none() | numbers | awkward_text | rectangular_lists() | arrays()
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(awkward_text, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=100)
@given(st.dictionaries(awkward_text, json_values, max_size=5))
def test_dumps_matches_json_on_any_document(doc):
    assert serialize.dumps(doc) == json_reference(doc)


@pytest.mark.parametrize(
    "value",
    [
        # same leaf and list counts as a 2x2x2 array, but ragged
        [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0, 7.0], [8.0]]],
        [[], []],
        [[[]]],
        [np.float64(0.1), np.float64(-0.0), 2.5],
        [True, 2],
        [[True, 2.5], [3, False]],
        [1.0, 2**70],
        [1.0, "2"],
        [1.0, None],
        [[1.0, 2.0], {"a": [3.0]}],
        (1.0, (2.0, 3.0)),
        [(1.0, 2.0), [3.0, 4.0]],
        AWKWARD_FLOATS,
        {},
        [],
        np.array(AWKWARD_FLOATS),
        np.zeros((2, 0, 3)),
        np.array(-0.0),
        np.arange(6.0).reshape(2, 3).T,
        np.array(["a", "],"]),
        np.array([1.0, [2.0, 3.0]], dtype=object),
    ],
)
def test_dumps_matches_json_on_traps(value):
    doc = {"value": value, 'k"e:y[]é': [value, {"inner": value}]}
    assert serialize.dumps(doc) == json_reference(doc)


def test_dumps_rejects_non_string_keys():
    with pytest.raises(TypeError):
        serialize.dumps({"a": {1: 2.0}})


def test_dumps_matches_json_on_every_document_kind(tmp_path, monkeypatch, capsys):
    from infopower.cli import main
    from infopower.duality import ensemble_from_povm

    povm = random_povm(16, 64, seed=3)
    ensemble, _ = ensemble_from_povm(povm, maximally_mixed(16))
    rng = np.random.default_rng(64)
    channel = ClassicalChannel(rng.dirichlet(np.ones(64), size=64))
    sic = informational_power(tetrahedral_sic_povm(), SolverConfig(seed=0))
    docs = [
        serialize.povm_to_document(povm),
        serialize.ensemble_to_document(ensemble),
        serialize.state_to_document(DensityOperator(ensemble.states[5])),
        serialize.channel_to_document(channel),
        serialize.report_to_document(sic),
        serialize.capacity_to_document(blahut_arimoto(channel), "bits"),
    ]
    # the validation and duality documents are built inside the CLI
    path = tmp_path / "povm.json"
    serialize.write_document(str(path), docs[0])
    emitted = []
    dumps = serialize.dumps
    monkeypatch.setattr(serialize, "dumps", lambda doc: emitted.append(doc) or dumps(doc))
    assert main(["validate", str(path)]) == 0
    assert main(["duality", str(path), "--direction", "to-ensemble", "--check"]) == 0
    capsys.readouterr()
    assert [doc["kind"] for doc in emitted] == ["validation", "ensemble"]
    for doc in docs + emitted:
        assert dumps(doc) == json_reference(doc), doc["kind"]
