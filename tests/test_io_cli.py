import argparse
import dataclasses
import json

import numpy as np
import pytest

from qcombs import (
    OPERATOR_FORMAT_VERSION,
    TOL_VERIFY,
    BoundUnavailableError,
    LabeledOperator,
    OperatorFile,
    OperatorFileError,
    ResultRecord,
    SdpProblem,
    Wire,
    max_entangled,
)
from qcombs import cli
from qcombs.cli import main

W2 = (Wire("a", 2), Wire("b", 3))


def sample_file(seed=0, metadata=None):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return OperatorFile(W2, mat, dict(metadata or {"task": "demo", "n": 1}))


# ---------------------------------------------------------------------------
# Operator files


def test_roundtrip_is_bit_identical():
    f = sample_file(metadata={"task": "t", "flag": True, "x": 1 / 3, "note": None})
    text = f.dumps()
    g = OperatorFile.loads(text)
    assert g.dumps() == text
    assert g.wires == f.wires
    assert np.array_equal(g.matrix, f.matrix)
    assert g.metadata == f.metadata


def test_every_dumped_file_loads():
    # The format version is not a field: dumps always writes the one that
    # loads reads.
    assert "format_version" not in {f.name for f in dataclasses.fields(OperatorFile)}
    text = sample_file().dumps()
    assert json.loads(text)["format_version"] == OPERATOR_FORMAT_VERSION
    assert OperatorFile.loads(text).dumps() == text


def test_awkward_floats_survive_exactly():
    vals = [1 / 3, 0.1, -1e-300, 2**-52, 123456789.123456789]
    mat = np.diag(np.array(vals, dtype=np.complex128) * (1 + 1j))
    wires = (Wire("w", 5),)
    g = OperatorFile.loads(OperatorFile(wires, mat).dumps())
    assert np.array_equal(g.matrix, mat)


def test_scalar_file_roundtrip():
    # The operator on no wires, as LabeledOperator.scalar and a closed
    # network produce it, is written and read back like any other.
    text = OperatorFile.from_operator(LabeledOperator.scalar(2.5)).dumps()
    back = OperatorFile.loads(text)
    assert back.wires == ()
    assert back.matrix.tolist() == [[2.5]]
    assert back.dumps() == text


def test_to_operator_matches_source():
    rng = np.random.default_rng(3)
    op = LabeledOperator(W2, rng.standard_normal((6, 6)) + 0j)
    back = OperatorFile.from_operator(op, {"k": 1}).to_operator()
    assert back.wires == op.wires
    assert np.array_equal(back.matrix, op.matrix)


def test_to_operator_is_real_exactly_when_every_imaginary_part_is_zero():
    rng = np.random.default_rng(4)
    real = LabeledOperator(W2, rng.standard_normal((6, 6)))
    twin = LabeledOperator(W2, real.matrix + 0j)
    assert (real.matrix.dtype, twin.matrix.dtype) == (np.float64, np.complex128)
    text = OperatorFile.from_operator(real).dumps()
    assert OperatorFile.from_operator(twin).dumps() == text
    back = OperatorFile.loads(text).to_operator()
    assert back.matrix.dtype == np.float64
    assert np.array_equal(back.matrix, real.matrix)
    tiny = twin.matrix.copy()
    tiny[2, 3] += 1e-300j
    back = OperatorFile.loads(OperatorFile(W2, tiny).dumps()).to_operator()
    assert back.matrix.dtype == np.complex128
    assert np.array_equal(back.matrix, tiny)


def test_constructor_validation():
    with pytest.raises(OperatorFileError):
        OperatorFile(W2, np.eye(5))
    bad = np.eye(6, dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(OperatorFileError):
        OperatorFile(W2, bad)


GOLDEN_FILE = """\
{
  "format_version": 1,
  "wires": [
    {"label": "\\u03c8", "dim": 2}
  ],
  "entries": [
    [0.33333333333333331, 0],
    [-0, 1e-300],
    [0.10000000000000001, -2.2204460492503131e-16],
    [123456789.12345679, -0]
  ],
  "metadata": {
    "f": false,
    "i": -7,
    "n": null,
    "s": "say \\"hi\\"",
    "t": true,
    "x": 0.10000000000000001,
    "z": -0
  }
}
"""

GOLDEN_FILE_NO_METADATA = """\
{
  "format_version": 1,
  "wires": [
    {"label": "a", "dim": 1},
    {"label": "b", "dim": 1}
  ],
  "entries": [
    [1e+22, 0]
  ],
  "metadata": {
  }
}
"""


def test_operator_file_golden_bytes():
    mat = np.array(
        [
            [1 / 3, complex(-0.0, 1e-300)],
            [complex(0.1, -(2**-52)), complex(123456789.123456789, -0.0)],
        ]
    )
    meta = {"s": 'say "hi"', "t": True, "f": False, "i": -7, "x": 0.1, "z": -0.0, "n": None}
    assert OperatorFile((Wire("ψ", 2),), mat, meta).dumps() == GOLDEN_FILE
    wires = (Wire("a", 1), Wire("b", 1))
    assert OperatorFile(wires, np.array([[1e22]])).dumps() == GOLDEN_FILE_NO_METADATA


def test_metadata_rejects_non_scalars():
    f = sample_file(metadata={"bad": [1, 2]})
    with pytest.raises(OperatorFileError):
        f.dumps()


def test_metadata_scalar_types_are_preserved():
    meta = {"b": True, "i": 7, "f": 0.25, "s": "x", "n": None}
    g = OperatorFile.loads(sample_file(metadata=meta).dumps())
    assert g.metadata == meta
    assert isinstance(g.metadata["b"], bool)
    assert isinstance(g.metadata["i"], int)
    assert isinstance(g.metadata["f"], float)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: "{ truncated",
        lambda d: json.dumps([1, 2]),
        lambda d: _drop_key(d, "entries"),
        lambda d: _set_key(d, "format_version", 99),
        lambda d: _set_key(d, "wires", []),
        lambda d: _set_key(d, "wires", [{"label": 3, "dim": 2}]),
        lambda d: _set_key(d, "entries", [[0.0, 0.0]] * 7),
        lambda d: _set_entry(d, 0, [0.0, "x"]),
        lambda d: _set_key(d, "metadata", [1]),
        lambda d: _set_wire(d, 0, "dim", 0),
        lambda d: _set_wire(d, 0, "dim", -2),
        lambda d: _set_wire(d, 0, "dim", True),
        lambda d: _set_wire(d, 1, "label", ""),
    ],
)
def test_loads_rejects_malformed_documents(mangle):
    doc = json.loads(sample_file().dumps())
    with pytest.raises(OperatorFileError):
        OperatorFile.loads(mangle(doc))


@pytest.mark.parametrize(
    "index, value",
    [(0, 1.5), (3, [1.0, 2.0, 3.0]), (35, [0.0, "x"]), (17, [[1.0, 2.0], 0.0])],
)
def test_loads_names_the_malformed_entry(index, value):
    doc = json.loads(sample_file().dumps())
    with pytest.raises(OperatorFileError, match=rf"^entry {index} is not an \[re, im\] pair"):
        OperatorFile.loads(_set_entry(doc, index, value))


def test_loads_accepts_integer_and_boolean_components():
    doc = json.loads(sample_file().dumps())
    doc["entries"] = [[i, -i] for i in range(35)] + [[True, False]]
    g = OperatorFile.loads(json.dumps(doc))
    expected = np.array([i - 1j * i for i in range(35)] + [1], dtype=complex)
    assert np.array_equal(g.matrix.ravel(), expected)
    assert OperatorFile.loads(g.dumps()).dumps() == g.dumps()


def _drop_key(doc, key):
    doc.pop(key)
    return json.dumps(doc)


def _set_key(doc, key, value):
    doc[key] = value
    return json.dumps(doc)


def _set_wire(doc, i, key, value):
    doc["wires"][i][key] = value
    return json.dumps(doc)


def _set_entry(doc, i, value):
    doc["entries"][i] = value
    return json.dumps(doc)


def test_save_refuses_overwrite(tmp_path):
    f = sample_file()
    target = tmp_path / "op.json"
    f.save(target)
    with pytest.raises(FileExistsError):
        f.save(target)
    f.save(target, force=True)
    assert OperatorFile.load(target).dumps() == f.dumps()


def test_load_missing_file(tmp_path):
    with pytest.raises(OperatorFileError):
        OperatorFile.load(tmp_path / "absent.json")


# ---------------------------------------------------------------------------
# Result records


def make_record(**kw):
    base = dict(
        task="clone",
        parameters={"n": 1, "m": 2, "dim": 2},
        value=0.4665,
        reference_value=0.46650635094610965,
        reference_source="paper-closed-form",
        feas_residual=1e-12,
        gap_bound=1e-7,
        iterations=487,
        wall_time=0.41,
        backend="projection-splitting",
        converged=True,
    )
    base.update(kw)
    return ResultRecord(**base)


def test_record_roundtrip_is_canonical():
    rec = make_record()
    text = rec.to_json()
    again = ResultRecord.from_json(text)
    assert again.to_json() == text
    assert json.loads(text)["reference_source"] == "paper-closed-form"


def test_record_tag_validation():
    with pytest.raises(ValueError):
        make_record(reference_source="guess")
    with pytest.raises(ValueError):
        make_record(reference_source="none")  # reference_value still set
    with pytest.raises(ValueError):
        make_record(reference_value=None)  # tag still claims a source
    rec = make_record(reference_value=None, reference_source="none")
    assert ResultRecord.from_json(rec.to_json()).reference_value is None


GOLDEN_RECORD = """\
{
  "task": "clone",
  "parameters": {
    "file": "\\u00fc.json",
    "n": 1,
    "none": null,
    "ok": true,
    "seed": 0,
    "tol": 9.9999999999999995e-07
  },
  "value": 0.46650635094610965,
  "reference_value": -0,
  "reference_source": "stored-constant",
  "feas_residual": 1e-300,
  "gap_bound": 2.4999999999999999e-07,
  "iterations": 487,
  "wall_time": 0.40999999999999998,
  "backend": "projection-splitting",
  "converged": true
}
"""

GOLDEN_RECORD_NULLS = """\
{
  "task": "verify",
  "parameters": {
  },
  "value": null,
  "reference_value": null,
  "reference_source": "none",
  "feas_residual": null,
  "gap_bound": null,
  "iterations": null,
  "wall_time": 0.5,
  "backend": "verification",
  "converged": false
}
"""


def test_result_record_golden_bytes():
    params = {"tol": 1e-06, "n": 1, "seed": 0, "ok": True, "file": "ü.json", "none": None}
    rec = make_record(
        parameters=params,
        value=0.46650635094610965,
        reference_value=-0.0,
        reference_source="stored-constant",
        feas_residual=1e-300,
        gap_bound=2.5e-7,
    )
    assert rec.to_json() == GOLDEN_RECORD
    nulls = make_record(
        task="verify",
        parameters={},
        value=None,
        reference_value=None,
        reference_source="none",
        feas_residual=None,
        gap_bound=None,
        iterations=None,
        wall_time=0.5,
        backend="verification",
        converged=False,
    )
    assert nulls.to_json() == GOLDEN_RECORD_NULLS


@pytest.mark.parametrize(
    "kw",
    [
        {"value": float("nan")},
        {"gap_bound": float("inf")},
        {"parameters": {"tol": float("-inf")}},
        {"parameters": {"dims": [2, 2]}},
    ],
)
def test_record_rejects_non_finite_values(kw):
    with pytest.raises(OperatorFileError):
        make_record(**kw).to_json()


# ---------------------------------------------------------------------------
# Command line


def test_clone_writes_verified_file(tmp_path, capsys):
    out = tmp_path / "clone.json"
    code = main(
        ["clone", "--n", "1", "--m", "2", "--out", str(out), "--tol", "1e-7"]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "value" in captured.out
    assert "re-verified" in captured.out
    f = OperatorFile.load(out)
    assert f.metadata["task"] == "clone"
    assert f.metadata["converged"] is True
    assert f.metadata["value"] == pytest.approx((2 + np.sqrt(3)) / 8, abs=1e-4)


def test_clone_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["clone", "--n", "1", "--m", "2", "--out", str(a)]) == 0
    assert main(["clone", "--n", "1", "--m", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_clone_never_overwrites_without_force(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert main(["clone", "--n", "1", "--m", "1", "--out", str(out)]) == 0
    before = out.read_bytes()
    assert main(["clone", "--n", "1", "--m", "2", "--out", str(out)]) == 2
    assert out.read_bytes() == before
    assert (
        main(
            ["clone", "--n", "1", "--m", "2", "--out", str(out), "--force"]
        )
        == 0
    )
    capsys.readouterr()
    assert out.read_bytes() != before


def test_learn_json_record(capsys):
    code = main(["learn", "--uses", "1", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rec = ResultRecord.from_json(out)
    assert rec.task == "learn"
    assert rec.converged
    assert rec.reference_value == pytest.approx(0.5)
    assert rec.reference_source == "paper-closed-form"
    assert rec.value == pytest.approx(0.5, abs=1e-4)
    assert rec.backend == "projection-splitting"


def test_learn_record_holds_only_the_parameters_the_solve_reads(capsys):
    assert main(["learn", "--uses", "1", "--json"]) == 0
    rec = ResultRecord.from_json(capsys.readouterr().out)
    assert set(rec.parameters) == {"dim", "tol", "uses"}
    assert rec.parameters["tol"] == SdpProblem.tol_gap


def test_learn_quotes_the_true_qubit_constant(capsys):
    code = main(["learn", "--uses", "2", "--json"])
    rec = ResultRecord.from_json(capsys.readouterr().out)
    assert code == 0
    assert rec.reference_source == "stored-constant"
    assert rec.reference_value == pytest.approx(np.cos(np.pi / 5) ** 2, abs=1e-15)
    assert rec.value - 1e-12 <= rec.reference_value <= rec.value + rec.gap_bound + 1e-12


def test_learn_quotes_the_two_use_qudit_constant(capsys):
    code = main(["learn", "--uses", "2", "--dim", "3", "--json"])
    rec = ResultRecord.from_json(capsys.readouterr().out)
    assert code == 0
    assert rec.reference_source == "paper-closed-form"
    assert rec.reference_value == 1.0 / 3.0
    assert rec.value - 1e-12 <= rec.reference_value <= rec.value + rec.gap_bound + 1e-12


def test_unconverged_output_prints_the_certified_interval(capsys):
    assert main(["clone", "--n", "1", "--m", "2", "--max-iters", "5"]) == 3
    rows = dict(
        line.split(None, 1) for line in capsys.readouterr().out.splitlines()
    )
    low, high = (float(v) for v in rows["certified"].strip("[]").split(","))
    assert float(rows["value"]) == low
    assert low <= (2 + np.sqrt(3)) / 8 <= high


def test_certified_interval_comes_from_the_rechecked_bound(monkeypatch, capsys):
    real, bounds = cli.dual_bound, []

    def spy(problem, sol):
        bounds.append(real(problem, sol))
        return bounds[-1]

    monkeypatch.setattr(cli, "dual_bound", spy)
    assert main(["learn", "--uses", "2", "--json"]) == 0
    rec = ResultRecord.from_json(capsys.readouterr().out)
    assert len(bounds) == 1
    assert rec.gap_bound == max(bounds[0] - rec.value, 0.0)


def test_failed_bound_recheck_exits_1_without_a_file(monkeypatch, tmp_path, capsys):
    def refuse(problem, sol):
        raise BoundUnavailableError("the dual certificate is not Hermitian")

    monkeypatch.setattr(cli, "dual_bound", refuse)
    out = tmp_path / "clone.json"
    assert main(["clone", "--n", "1", "--m", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "not Hermitian" in err
    assert not out.exists()


def test_invalid_parameters_exit_2(capsys):
    assert main(["clone", "--n", "0", "--m", "2"]) == 2
    assert main(["clone", "--n", "1", "--m", "2", "--dim", "1"]) == 2
    assert main(["learn", "--uses", "0"]) == 2
    assert main(["learn", "--uses", "6"]) == 2  # D = 16384, over MAX_DIM
    assert main(["clone", "--n", "1", "--m", "2", "--tol", "-1"]) == 2
    assert main(["clone", "--n", "1", "--m", "2", "--max-iters", "0"]) == 2
    assert main(["learn", "--uses", "1", "--tol", "0"]) == 2
    assert main(["learn", "--uses", "1", "--max-iters", "0"]) == 2
    assert main(["random-comb", "--dims", "2,2,2"]) == 2  # odd count
    capsys.readouterr()


COMMAND_OPTIONS = {
    "clone": {"--n", "--m", "--dim", "--tol", "--max-iters", "--json", "--out", "--force"},
    "learn": {"--uses", "--dim", "--tol", "--max-iters", "--json", "--out", "--force"},
    "verify": {"file", "--teeth", "--tol", "--json"},
    "random-comb": {"--dims", "--memory", "--seed", "--json", "--out", "--force"},
}


def _subparsers():
    (action,) = [
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def test_each_command_takes_exactly_the_options_it_reads():
    subs = _subparsers()
    assert set(subs) == set(COMMAND_OPTIONS)
    for name, sub in subs.items():
        opts = {
            a.option_strings[-1] if a.option_strings else a.dest: a
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert set(opts) == COMMAND_OPTIONS[name], name
        if "--max-iters" in opts:
            assert opts["--tol"].default == SdpProblem.tol_gap
            assert opts["--max-iters"].default == SdpProblem.max_iters
    assert subs["verify"]._option_string_actions["--tol"].default == TOL_VERIFY
    assert sum(map(len, COMMAND_OPTIONS.values())) == 25


@pytest.mark.parametrize(
    "argv, removed",
    [
        (["clone", "--n", "1", "--m", "2"], [["--seed", "1"]]),
        (["learn", "--uses", "1", "--json"], [["--seed", "123"]]),
        (
            ["verify", "f.json", "--teeth", "0:1"],
            [["--out", "x.json"], ["--force"], ["--max-iters", "0"], ["--seed", "9"]],
        ),
        (
            ["random-comb", "--dims", "2,2", "--out", "c.json"],
            [["--tol", "1e-3"], ["--max-iters", "5"]],
        ),
    ],
    ids=["clone", "learn", "verify", "random-comb"],
)
def test_removed_options_are_input_errors(tmp_path, monkeypatch, capsys, argv, removed):
    monkeypatch.chdir(tmp_path)
    for extra in removed:
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exhausted_budget_exits_3(capsys):
    code = main(["clone", "--n", "1", "--m", "2", "--max-iters", "5"])
    out = capsys.readouterr().out
    assert code == 3
    assert "NOT converged" in out


def test_random_comb_verify_chain(tmp_path, capsys):
    out = tmp_path / "comb.json"
    assert (
        main(
            [
                "random-comb",
                "--dims",
                "2,2,3,2",
                "--memory",
                "3",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert main(["verify", str(out), "--teeth", "0:1,2:3"]) == 0
    report = capsys.readouterr().out
    assert "ok" in report
    assert "FAIL" not in report


def test_random_comb_requires_out(capsys):
    assert main(["random-comb", "--dims", "2,2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "dims, memory",
    [("2,2,2,2", "1,1"), ("4,2,2,2", "1")],  # wrong count; no isometry
)
def test_random_comb_argument_errors_exit_2(tmp_path, capsys, dims, memory):
    out = tmp_path / "comb.json"
    args = ["random-comb", "--dims", dims, "--memory", memory, "--out", str(out)]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_verify_rejects_scaled_comb(tmp_path, capsys):
    out = tmp_path / "comb.json"
    main(["random-comb", "--dims", "2,2", "--seed", "4", "--out", str(out)])
    f = OperatorFile.load(out)
    OperatorFile(f.wires, f.matrix * 0.5, f.metadata).save(out, force=True)
    code = main(["verify", str(out), "--teeth", "0:1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out


def test_verify_flags_backwards_signaling(tmp_path, capsys):
    # maximally entangled pairs wired output->input: information runs
    # against the declared causal order, so verification must fail
    v1 = max_entangled((Wire("1", 2), Wire("2", 2)))
    v2 = max_entangled((Wire("3", 2), Wire("0", 2)))
    op = v1.outer().tensor(v2.outer())
    path = tmp_path / "acausal.json"
    OperatorFile.from_operator(op.permuted(("0", "1", "2", "3"))).save(path)
    assert main(["verify", str(path), "--teeth", "0:1,2:3"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_input_errors(tmp_path, capsys):
    path = tmp_path / "op.json"
    main(["random-comb", "--dims", "2,2", "--seed", "1", "--out", str(path)])
    assert main(["verify", str(path), "--teeth", "0:9"]) == 2
    assert main(["verify", str(path), "--teeth", "garbage"]) == 2
    truncated = tmp_path / "bad.json"
    truncated.write_text(path.read_text()[: 40])
    assert main(["verify", str(truncated), "--teeth", "0:1"]) == 2
    assert main(["verify", str(tmp_path / "missing.json"), "--teeth", "0:1"]) == 2
    zero_dim = tmp_path / "zero.json"
    zero_dim.write_text(_set_wire(json.loads(path.read_text()), 0, "dim", 0))
    capsys.readouterr()
    assert main(["verify", str(zero_dim), "--teeth", "0:1"]) == 2
    assert "error: each wire needs" in capsys.readouterr().err


def test_verify_json_record(tmp_path, capsys):
    path = tmp_path / "op.json"
    main(["random-comb", "--dims", "2,2,2,2", "--memory", "2", "--out", str(path)])
    capsys.readouterr()
    assert main(["verify", str(path), "--teeth", "0:1,2:3", "--json"]) == 0
    rec = ResultRecord.from_json(capsys.readouterr().out)
    assert rec.task == "verify"
    assert rec.backend == "verification"
    assert rec.converged
    assert rec.reference_source == "none"
