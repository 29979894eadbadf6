import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from infopower import cli, serialize
from infopower.cli import main
from infopower.objects import Povm, random_povm, tetrahedral_sic_povm, trine_povm

from helpers import HESSE_W_BITS, SIC_W_BITS, h2


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_povm(tmp_path, name: str, povm) -> str:
    path = tmp_path / name
    serialize.write_document(str(path), serialize.povm_to_document(povm))
    return str(path)


# ---------------------------------------------------------------------------
# validate


def test_validate_example_sic(capsys):
    code, out, _ = run_cli(capsys, "validate", "--example", "sic")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_validate_file(tmp_path, capsys):
    path = write_povm(tmp_path, "p.json", random_povm(2, 3, seed=4))
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_validate_rejects_bad_completeness(tmp_path, capsys):
    doc = serialize.povm_to_document(tetrahedral_sic_povm())
    doc["elements"][0][0][0][0] += 1e-3  # breaks the identity sum
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_validate_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert err.strip() != ""


def test_validate_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "validate", "/no/such/file.json")
    assert code == 2


def test_validate_requires_some_input(capsys):
    code, _, err = run_cli(capsys, "validate")
    assert code != 0


def test_examples_keep_their_names_and_order():
    assert cli.EXAMPLES == ("sic", "hesse", "projective2", "projective3", "trine", "trivial")
    for name in cli.EXAMPLES:
        assert isinstance(cli.example_povm(name), Povm)
    with pytest.raises(ValueError, match="unknown example 'nope'"):
        cli.example_povm("nope")


# ---------------------------------------------------------------------------
# solve


def test_solve_projective2_stdout_and_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "solve", "--example", "projective2", "--out", str(out_path)
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["kind"] == "report"
    assert doc["fast_path_used"] is True
    assert doc["w_estimate"] == pytest.approx(1.0, abs=1e-9)
    # the embedded ensemble parses with the tool's own reader
    ens = serialize.ensemble_from_document(doc["best_ensemble"])
    assert ens.dim == 2


def test_solve_trivial_example(capsys):
    code, out, _ = run_cli(capsys, "solve", "--example", "trivial")
    assert code == 0
    assert abs(float(out.strip())) <= 1e-12


def test_solve_from_file_with_flags(tmp_path, capsys):
    path = write_povm(tmp_path, "trine.json", trine_povm())
    code, out, _ = run_cli(capsys, "solve", path, "--seed", "3")
    assert code == 0
    assert float(out.strip()) == pytest.approx(np.log2(1.5), abs=1e-6)


def test_solve_generic_file_reports_one_restart_when_it_certifies(tmp_path, capsys):
    # rand3x5 fails the symmetric probe; the generic run certifies it and
    # the report holds the printed W as its one value
    path = write_povm(tmp_path, "rand3x5.json", random_povm(3, 5, seed=1))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "solve", path, "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["converged"] is True and doc["fast_path_used"] is False
    assert doc["per_restart_values"] == [doc["w_estimate"]] == [float(out.strip())]


def test_solve_warns_when_the_solver_does_not_converge(tmp_path, capsys, monkeypatch):
    """An uncertified report still prints W and exits 0; the warning goes
    to stderr and the report says converged false."""
    report = dataclasses.replace(cli.informational_power(trine_povm()), converged=False)
    monkeypatch.setattr(cli, "informational_power", lambda povm, cfg: report)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", "--example", "trine", "--out", str(out_path))
    assert code == 0
    assert float(out.strip()) == report.w_estimate
    assert "warning" in err and "converge" in err
    assert json.loads(out_path.read_text(encoding="utf-8"))["converged"] is False


def test_solve_base_nats(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--example", "sic", "--base", "nats"
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(SIC_W_BITS * np.log(2.0), abs=1e-6)


def test_solve_seed_env_fallback(tmp_path):
    env = dict(os.environ, INFOPOWER_SEED="11")
    cmd = [sys.executable, "-m", "infopower", "solve", "--example", "trine"]
    by_env = subprocess.run(cmd, capture_output=True, text=True, env=env)
    by_flag = subprocess.run(cmd + ["--seed", "11"], capture_output=True, text=True)
    assert by_env.returncode == 0 and by_flag.returncode == 0
    assert by_env.stdout == by_flag.stdout
    bad_env = dict(os.environ, INFOPOWER_SEED="not-a-number")
    res = subprocess.run(cmd, capture_output=True, text=True, env=bad_env)
    assert res.returncode == 2


@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_solve_rejects_a_negative_seed(capsys, monkeypatch, via_env):
    # projective2 takes the commuting path, which never draws from the seed
    argv = ["solve", "--example", "projective2"]
    if via_env:
        monkeypatch.setenv("INFOPOWER_SEED", "-1")
    else:
        argv += ["--seed", "-1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "seed" in err


def test_solve_hesse_example_prints_its_closed_form_and_repeats(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code1, out1, _ = run_cli(capsys, "solve", "--example", "hesse", "--out", str(a))
    code2, out2, _ = run_cli(capsys, "solve", "--example", "hesse", "--out", str(b))
    assert code1 == code2 == 0
    assert float(out1.strip()) == pytest.approx(HESSE_W_BITS, abs=1e-9)
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# duality


def test_duality_sic_to_ensemble_and_back(tmp_path, capsys):
    ens_path = tmp_path / "dual.json"
    code, out, _ = run_cli(
        capsys,
        "duality",
        "--example",
        "sic",
        "--direction",
        "to-ensemble",
        "--check",
        "--out",
        str(ens_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "ensemble"
    assert doc["dropped_outcomes"] == []
    assert doc["round_trip_passed"] is True
    assert doc["round_trip_residual"] <= 1e-8

    back_path = tmp_path / "back.json"
    code, out, _ = run_cli(
        capsys,
        "duality",
        str(ens_path),
        "--direction",
        "to-povm",
        "--out",
        str(back_path),
    )
    assert code == 0
    back = serialize.povm_from_document(serialize.load_document(str(back_path)))
    orig = tetrahedral_sic_povm()
    assert back.num_outcomes == 4
    worst = max(
        float(np.linalg.norm(a - b)) for a, b in zip(back.elements, orig.elements)
    )
    assert worst <= 1e-8


def test_duality_out_file_matches_stdout_bytes(tmp_path, capsys):
    ens_path = tmp_path / "dual.json"
    _, out, _ = run_cli(capsys, "duality", "--example", "sic", "--direction", "to-ensemble",
                        "--check", "--out", str(ens_path))
    assert ens_path.read_bytes() == out.encode("utf-8")
    povm_path = tmp_path / "back.json"
    _, out, _ = run_cli(capsys, "duality", str(ens_path), "--direction", "to-povm",
                        "--check", "--out", str(povm_path))
    assert povm_path.read_bytes() == out.encode("utf-8")


def test_duality_trivial_to_ensemble_is_reference_state(capsys):
    code, out, _ = run_cli(
        capsys, "duality", "--example", "trivial", "--direction", "to-ensemble"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["priors"] == pytest.approx([1.0], abs=1e-12)
    m = serialize.decode_matrix(doc["states"][0], 2, "state")
    assert np.allclose(m, np.eye(2) / 2, atol=1e-12)


def test_duality_with_sigma_file(tmp_path, capsys):
    sigma_path = tmp_path / "sigma.json"
    from infopower.objects import DensityOperator

    serialize.write_document(
        str(sigma_path),
        serialize.state_to_document(DensityOperator(np.diag([0.8, 0.2]))),
    )
    code, out, _ = run_cli(
        capsys,
        "duality",
        "--example",
        "projective2",
        "--direction",
        "to-ensemble",
        "--sigma",
        str(sigma_path),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["priors"] == pytest.approx([0.8, 0.2])


def test_duality_to_povm_requires_ensemble_file(capsys):
    code, _, err = run_cli(
        capsys, "duality", "--example", "sic", "--direction", "to-povm"
    )
    assert code != 0


# ---------------------------------------------------------------------------
# capacity


def write_channel(tmp_path, name, probs) -> str:
    from infopower.information import ClassicalChannel

    path = tmp_path / name
    serialize.write_document(
        str(path), serialize.channel_to_document(ClassicalChannel(np.asarray(probs)))
    )
    return str(path)


def test_capacity_identity(tmp_path, capsys):
    path = write_channel(tmp_path, "id.json", np.eye(2))
    code, out, _ = run_cli(capsys, "capacity", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["capacity"] == pytest.approx(1.0, abs=1e-9)
    assert doc["converged"] is True


def test_capacity_bsc(tmp_path, capsys):
    path = write_channel(tmp_path, "bsc.json", [[0.9, 0.1], [0.1, 0.9]])
    code, out, _ = run_cli(capsys, "capacity", path)
    assert code == 0
    assert json.loads(out)["capacity"] == pytest.approx(1.0 - h2(0.1), abs=1e-9)


def test_capacity_useless_channel(tmp_path, capsys):
    path = write_channel(tmp_path, "flat.json", [[0.5, 0.5], [0.5, 0.5]])
    code, out, _ = run_cli(capsys, "capacity", path)
    assert code == 0
    assert abs(json.loads(out)["capacity"]) <= 1e-12


def test_capacity_rejects_nonstochastic(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps({"kind": "channel", "probs": [[0.5, 0.6], [0.5, 0.5]]}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "capacity", str(path))
    assert code == 1


@pytest.mark.parametrize(
    "argv, doc, shown",
    [
        (["capacity"], {"kind": "channel", "probs": [[1.1, -0.1], [0.5, 0.5]]}, "-0.1"),
        (["duality", "--direction", "to-povm"],
         {"kind": "ensemble", "dim": 1, "priors": [0.45, 0.45], "states": [[[[1.0, 0.0]]]] * 2},
         "0.9"),
    ],
)
def test_rejected_values_print_as_plain_floats(tmp_path, capsys, argv, doc, shown):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(capsys, *argv, str(path))
    assert code == 1
    assert shown in err and "np." not in err


def test_capacity_nats(tmp_path, capsys):
    path = write_channel(tmp_path, "id.json", np.eye(2))
    code, out, _ = run_cli(capsys, "capacity", path, "--base", "nats")
    assert code == 0
    assert json.loads(out)["capacity"] == pytest.approx(np.log(2.0), abs=1e-9)


# ---------------------------------------------------------------------------
# unreadable input exits 2 whatever the subcommand and field


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["capacity"], ["duality", "--direction", "to-povm"]],
)
def test_non_utf8_input_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, _, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["validate"], '{"kind": "povm", "dim": 1, "elements": [[[[1e999, 0.0]]]]}'),
        (["capacity"], '{"kind": "channel", "probs": [[NaN, 0.5], [0.5, 0.5]]}'),
        (["capacity"], '{"kind": "channel", "probs": [[Infinity, 0.0], [0.5, 0.5]]}'),
        (
            ["duality", "--direction", "to-povm"],
            '{"kind": "ensemble", "dim": 1, "priors": [NaN], "states": [[[[1.0, 0.0]]]]}',
        ),
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, argv, text):
    path = tmp_path / "nonfinite.json"
    path.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert "non-finite" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", ["solve", "capacity", "validate"])
def test_non_finite_tol_exits_1(tmp_path, capsys, command, tol):
    if command == "capacity":
        argv = [command, write_channel(tmp_path, "ch.json", np.eye(2))]
    else:
        argv = [command, "--example", "sic"]
    code, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert code == 1
    assert out == ""
    assert err.startswith("error: tol ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# one parser serves every call in a process


def test_reused_parser_leaks_no_state(tmp_path, capsys):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    solve = ["solve", "--example", "trine", "--seed", "7"]
    assert main(solve + ["--out", str(first)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "x.json", "--base", "bogus"])
    assert exc.value.code == 2
    assert main(solve) == 0
    assert os.listdir(tmp_path) == ["a.json"]
    assert main(solve + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    capsys.readouterr()
    duality = ["duality", "--example", "sic", "--direction", "to-ensemble"]
    assert main(duality + ["--check"]) == 0
    assert "round_trip_residual" in json.loads(capsys.readouterr().out)
    assert main(duality) == 0
    assert not [k for k in json.loads(capsys.readouterr().out) if k.startswith("round_trip_")]


# ---------------------------------------------------------------------------
# module entry point


def test_python_dash_m_entry():
    res = subprocess.run(
        [sys.executable, "-m", "infopower", "solve", "--example", "projective3"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert float(res.stdout.strip()) == pytest.approx(np.log2(3.0), abs=1e-6)


@pytest.mark.parametrize(
    "doc, argv",
    [
        ({"kind": "povm", "dim": True, "elements": [[[[1.0, 0.0]]]]}, ["validate"]),
        ({"kind": "ensemble", "dim": True, "priors": [1.0], "states": [[[[1.0, 0.0]]]]},
         ["duality", "--direction", "to-povm"]),
        ({"kind": "state", "dim": True, "matrix": [[[1.0, 0.0]]]},
         ["duality", "--example", "trivial", "--direction", "to-ensemble", "--sigma"]),
    ],
    ids=["povm", "ensemble", "state"],
)
def test_boolean_dim_is_a_schema_error(tmp_path, capsys, doc, argv):
    """JSON true is a Python int; it must not pass as dimension 1."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert "dim" in err
