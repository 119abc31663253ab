"""Command line contract: outputs, exit codes, JSON determinism."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twinspace
from twinspace import NullSubspace, TwoStateVector
from twinspace.cli import build_parser, main
from twinspace.workspace import QUTRIT_FAMILY, builtin_workspace


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# abl / story / find-story / nullspace
# ---------------------------------------------------------------------------

def test_abl_golden_output(capsys):
    code, out, _ = run(["abl", "ket0_bra1", "diagonal"], capsys)
    assert code == 0
    assert out.count("0.500000000000") == 2


def test_abl_json_is_byte_stable(capsys):
    code, first, _ = run(["abl", "ket0_bra1", "diagonal", "--json"], capsys)
    assert code == 0
    code, second, _ = run(["abl", "ket0_bra1", "diagonal", "--json"], capsys)
    assert code == 0
    assert first == second
    assert '"command": "abl"' in first


def test_abl_without_story_exits_2(capsys):
    code, _, err = run(["abl", "ket0_bra1", "computational"], capsys)
    assert code == 2
    assert "no story" in err


def test_builtin_workspace_edits_do_not_leak(capsys):
    builtin_workspace().vectors["ket0_bra1"] = TwoStateVector(np.eye(2))
    code, _, err = run(["abl", "ket0_bra1", "computational"], capsys)
    assert code == 2
    assert "no story" in err


def test_abl_and_story_agree_near_threshold(tmp_path, capsys):
    """max |A_i| = 8e-11 < tol * ||v||, while the l2 norm of the amplitudes
    exceeds it: no story, for both commands."""
    ws = builtin_workspace()
    ws.vectors["near"] = TwoStateVector(np.array([[8e-11, 1.0],
                                                  [0.0, 8e-11]]))
    path = tmp_path / "ws.json"
    ws.dump(path)
    code, _, err = run(["abl", "near", "computational",
                        "--workspace", str(path)], capsys)
    assert code == 2
    assert "no story" in err
    code, out, _ = run(["story", "near", "computational",
                        "--workspace", str(path)], capsys)
    assert code == 0
    assert out == "forms story: false\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_abl_and_story_at_scale_1e200(tmp_path, capsys):
    """qubit_identity scaled by 1e200, whose squared entries would
    overflow, prints what it prints at unit scale, with no warning."""
    ws = builtin_workspace()
    ws.vectors["huge"] = TwoStateVector(
        1e200 * ws.vector("qubit_identity").matrix)
    path = tmp_path / "ws.json"
    ws.dump(path)
    for command in ("abl", "story"):
        code, at_scale, _ = run([command, "huge", "computational",
                                 "--workspace", str(path)], capsys)
        assert code == 0
        _, at_unit, _ = run([command, "qubit_identity", "computational"],
                            capsys)
        assert at_scale == at_unit


def test_unknown_name_exits_1(capsys):
    code, _, err = run(["abl", "nonsense", "diagonal"], capsys)
    assert code == 1
    assert "unknown vector" in err


def test_story_command(capsys):
    code, out, _ = run(["story", "ket0_bra1", "diagonal"], capsys)
    assert code == 0
    assert "true" in out
    code, out, _ = run(["story", "ket0_bra1", "computational"], capsys)
    assert code == 0
    assert "false" in out


def test_find_story_command(capsys):
    code, out, _ = run(["find-story", "qutrit_signed"], capsys)
    assert code == 0
    assert "case: DIAGONAL" in out


#: SHA-256 of ``find-story <vector> --json`` for each bundled vector; the
#: certificate, its lazily built measurement included, is byte-stable.
FIND_STORY_SHA256 = {
    "ket0_bra0":
        "6b90d14ed4545b42f8d8273c2783ea00e95b2d8c3276d6b733383441521b9b4d",
    "ket1_bra1":
        "9b8c994d4c97bd993cb1055b9159a7c783cb9ef8c28e10b7a6b50957bfecd6b0",
    "ket0_bra1":
        "9a83006113cf92784e173c75d5eb7a30b79de3cb468dd19f3124b994067483fa",
    "qubit_identity":
        "d5f6494720988a8faee5c2f1104a8d975cbfeb1e2d936bbbedaf5e29a609b3fb",
    "qutrit_signed":
        "f437da61e9f28a48ad1638a3636d7c1fb6eb519f5945d6230cc43d5dbae0acb7",
}


@pytest.mark.parametrize("vector", sorted(FIND_STORY_SHA256))
def test_find_story_json_is_pinned(vector, capsys):
    code, out, _ = run(["find-story", vector, "--json"], capsys)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == FIND_STORY_SHA256[vector]


def test_nullspace_command(capsys):
    code, out, _ = run(["nullspace", "computational"], capsys)
    assert code == 0
    assert "4 - 2 = 2" in out


#: SHA-256 of ``nullspace diagonal --json``.
NULLSPACE_DIAGONAL_SHA256 = (
    "cc9febf40bf5ee916cfa4214d2fc01e8d43b335fa0ac87d36548c644429d83bc")


def test_plain_nullspace_computes_no_basis(capsys, monkeypatch):
    """The dimension is d^2 - k by law; only --json reads the basis."""
    code, out, _ = run(["nullspace", "diagonal", "--json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == NULLSPACE_DIAGONAL_SHA256

    def no_basis(self):
        raise AssertionError("null-space basis built")

    monkeypatch.setattr(NullSubspace, "basis", property(no_basis))
    code, out, _ = run(["nullspace", "diagonal"], capsys)
    assert code == 0
    assert out == ("dim^2 - outcomes = 4 - 2 = 2\n"
                   "basis: 2 orthonormal two-state vectors "
                   "(use --json for entries)\n")


# ---------------------------------------------------------------------------
# distinguish / feasibility
# ---------------------------------------------------------------------------

def test_distinguish_finds_gap(capsys):
    code, out, _ = run(
        ["distinguish", "ket0_bra0", "ket1_bra1", "--trials", "20"], capsys
    )
    assert code == 0
    assert "found at trial" in out


def test_distinguish_replicating_pair(capsys):
    code, out, _ = run(
        ["distinguish", "qubit_identity", "classical_qubit",
         "--trials", "50"], capsys
    )
    assert code == 0
    assert "indistinguishable" in out


def test_feasibility_not_certified_for_qubit(capsys):
    code, out, _ = run(
        ["feasibility", "qubit_identity",
         "computational", "diagonal", "circular", "--starts", "8"], capsys
    )
    assert code == 0
    assert "NOT_CERTIFIED" in out


def test_feasibility_qutrit_family(capsys):
    code, out, _ = run(
        ["feasibility", "qutrit_signed", "qutrit_family_1", "qutrit_family_2",
         "qutrit_family_3", "qutrit_family_4", "--starts", "16"], capsys
    )
    assert code == 0
    assert "STRICTLY_NONSEPARABLE_EVIDENCE" in out
    assert "zero constraints: 4" in out
    assert "status" not in out and "median" not in out  # --json only


def test_feasibility_separable_target_exits_1(capsys):
    code, _, err = run(
        ["feasibility", "ket0_bra0", "computational"], capsys
    )
    assert code == 1
    assert "separable" in err


# ---------------------------------------------------------------------------
# montecarlo / validate
# ---------------------------------------------------------------------------

def test_montecarlo_pass(capsys):
    code, out, _ = run(
        ["montecarlo", "ket0", "ket1", "diagonal", "--trials", "20000"],
        capsys,
    )
    assert code == 0
    assert "pass" in out.splitlines()[-1]


def test_montecarlo_no_story_exits_2(capsys):
    code, _, err = run(
        ["montecarlo", "ket0", "ket1", "computational"], capsys
    )
    assert code == 2
    assert "no story" in err


def test_montecarlo_insufficient_trials_exits_1(capsys):
    code, _, err = run(
        ["montecarlo", "ket0", "ket1", "diagonal", "--trials", "100"], capsys
    )
    assert code == 1
    assert "100" in err


@pytest.mark.parametrize("bound", ["inf", "nan", "0", "-1"])
def test_montecarlo_meaningless_sigma_bound_exits_1(bound, capsys):
    code, out, err = run(["montecarlo", "ket0", "ket1", "diagonal",
                          "--trials", "2000", "--sigma-bound", bound], capsys)
    assert code == 1
    assert out == ""
    assert "sigma bound" in err


def test_montecarlo_json_booleans(capsys):
    code, out, _ = run(["montecarlo", "ket0", "ket1", "diagonal",
                        "--trials", "200000", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert type(report["passed"]) is bool
    assert all(type(row["ok"]) is bool for row in report["rows"])


def test_montecarlo_check_failure_still_prints_its_report(capsys):
    argv = ["montecarlo", "ket0", "ket1", "diagonal", "--sigma-bound", "1e-9"]
    code, out, _ = run(argv, capsys)
    assert code == 3
    assert "FAIL" in out and out.splitlines()[-1].endswith("FAIL")
    code, out, _ = run(argv + ["--json"], capsys)
    assert code == 3
    assert json.loads(out)["passed"] is False


def test_validate_non_utf8_file_is_a_report_row(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(["validate", "--workspace", str(path)], capsys)
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        f"workspace/{path}: FAIL: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte",
        "workspace INVALID"]
    code, out, _ = run(["validate", "--workspace", str(path), "--json"],
                       capsys)
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_validate_builtin(capsys):
    code, out, _ = run(["validate"], capsys)
    assert code == 0
    assert "workspace valid" in out


#: SHA-256 of ``validate`` and ``validate --json`` on the bundled inventory.
VALIDATE_SHA256 = {
    False: "3e56070b07fc88901a922a3b78b0a1f8c9e24751c79f9532e47d13a244afc340",
    True: "de045523669fea8ead013c0d5e4bc4640f84f1f52edb38ced18db2927a749af9",
}


@pytest.mark.parametrize("as_json", [False, True])
def test_validate_builtin_parses_every_entry(as_json, capsys, monkeypatch):
    """Without --workspace, validate parses the bundled inventory's
    document through the entry parser, with unchanged output."""
    from twinspace import workspace
    ws = builtin_workspace()
    calls = []
    for section, parse in list(workspace._PARSERS.items()):
        def counting(entry, parse=parse, section=section):
            calls.append(section)
            return parse(entry)
        monkeypatch.setitem(workspace._PARSERS, section, counting)
    code, out, _ = run(["validate"] + ["--json"] * as_json, capsys)
    assert code == 0
    assert sorted(calls) == sorted(
        ["states"] * len(ws.states) + ["vectors"] * len(ws.vectors)
        + ["measurements"] * len(ws.measurements))
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_SHA256[as_json]


def test_validate_refuses_zero_projector(tmp_path, capsys):
    doc = builtin_workspace().to_json_dict()
    doc["measurements"]["z"] = {
        "dim": 2, "projectors": [[[[0.0, 0.0], [0.0, 0.0]]] * 2,
                                 [[[1.0, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [1.0, 0.0]]]]}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["validate", "--workspace", str(path)], capsys)
    assert code == 1
    assert ("measurements/z: FAIL: MeasurementValidationError: projector 0 "
            "is the zero projector (rank 0)") in out
    code, _, err = run(["nullspace", "z", "--workspace", str(path)], capsys)
    assert code == 1
    assert "zero projector" in err


def workspace_with_measurement(tmp_path, name, obj):
    doc = builtin_workspace().to_json_dict()
    doc["measurements"][name] = obj
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return path


def test_nan_projector_is_refused(tmp_path, capsys):
    """Python's json reads the bare NaN token; a NaN projector used to pass
    validate, make story say false for a vector with nonzero trace, and
    make abl exit 2."""
    path = workspace_with_measurement(tmp_path, "nanm", {
        "dim": 2, "projectors": [[[[1.0, 0.0], [float("nan"), 0.0]],
                                  [[float("nan"), 0.0], [0.0, 0.0]]],
                                 [[[0.0, 0.0], [0.0, 0.0]],
                                  [[0.0, 0.0], [1.0, 0.0]]]]})
    code, out, _ = run(["validate", "--workspace", str(path)], capsys)
    assert code == 1
    assert ("measurements/nanm: FAIL: NotHermitianError: projector is not "
            "Hermitian") in out
    for argv in (["story", "qubit_identity", "nanm"],
                 ["abl", "qubit_identity", "nanm"]):
        code, out, err = run(argv + ["--workspace", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert "measurement 'nanm': projector is not Hermitian" in err


@pytest.mark.parametrize("dim", [0, 65])
def test_measurement_dimension_outside_cap_is_refused(dim, tmp_path, capsys,
                                                     monkeypatch):
    """Refused on load, before the null-space SVD (d^2 x d^2) could run."""
    path = workspace_with_measurement(tmp_path, "big", {
        "dim": dim, "projectors": [
            [[[1.0 if r == c else 0.0, 0.0] for c in range(dim)]
             for r in range(dim)]]})
    code, out, _ = run(["validate", "--workspace", str(path)], capsys)
    assert code == 1
    assert "measurements/big: FAIL: ShapeMismatchError" in out

    def no_svd(*args, **kwargs):
        raise AssertionError("null-space SVD reached")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    code, _, err = run(["nullspace", "big", "--workspace", str(path)], capsys)
    assert code == 1
    assert "error: measurement 'big'" in err


def nan_mixture_workspace(tmp_path):
    """The bundled inventory plus a mixture whose first weight is NaN
    (Python's json reads and writes the bare NaN token)."""
    doc = builtin_workspace().to_json_dict()
    doc["mixtures"]["nanmix"] = {"components": [
        {"weight": float("nan"), "vector": "ket0_bra0"},
        {"weight": 1.0, "vector": "ket1_bra1"}]}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_refuses_nan_mixture_weight(tmp_path, capsys):
    path = nan_mixture_workspace(tmp_path)
    code, out, _ = run(["validate", "--workspace", str(path)], capsys)
    assert code == 1
    assert "mixtures/nanmix: FAIL" in out


def test_distinguish_refuses_nan_mixture_weight(tmp_path, capsys):
    path = nan_mixture_workspace(tmp_path)
    code, out, err = run(["distinguish", "nanmix", "qubit_identity",
                          "--workspace", str(path)], capsys)
    assert code == 1
    assert "indistinguishable" not in out
    assert "mixture weight nan" in err


def test_validate_broken_file(tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(
        '{"states": {"zero": {"dim": 1, "amplitudes": [[0.0, 0.0]]}}}'
    )
    code, out, _ = run(["validate", "--workspace", str(path)], capsys)
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("argv", [["validate"], ["abl", "x", "y"]])
def test_workspace_section_not_an_object_exits_1(tmp_path, capsys, argv):
    path = tmp_path / "ws.json"
    path.write_text('{"states": []}')
    code, out, err = run(argv + ["--workspace", str(path)], capsys)
    assert code == 1
    if argv == ["validate"]:
        assert "states/: FAIL" in out
    else:
        assert "error: states: must be a JSON object" in err


# ---------------------------------------------------------------------------
# workspace plumbing and reproduce
# ---------------------------------------------------------------------------

def test_workspace_file_matches_builtin(tmp_path, capsys):
    path = tmp_path / "ws.json"
    builtin_workspace().dump(path)
    _, from_file, _ = run(
        ["abl", "ket0_bra1", "diagonal", "--workspace", str(path), "--json"],
        capsys,
    )
    _, from_builtin, _ = run(["abl", "ket0_bra1", "diagonal", "--json"],
                             capsys)
    assert from_file == from_builtin


def test_reproduce_takes_no_workspace(capsys):
    """reproduce always runs on the bundled inventory, so it refuses
    --workspace rather than ignoring it."""
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "1", "--workspace", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workspace" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["abl", "ket0_bra1", "diagonal", "--seed", "1"],
    ["nullspace", "computational", "--tol", "1e-9"],
    ["montecarlo", "ket0", "ket1", "diagonal", "--tol", "1e-9"],
    ["validate", "--seed", "1"],
    # Every rule compares at the constant DEFAULT_TOL; no command takes one.
    ["abl", "ket0_bra1", "diagonal", "--tol", "1e-9"],
    ["story", "ket0_bra1", "diagonal", "--tol", "1e-9"],
    ["find-story", "ket0_bra1", "--tol", "1e-9"],
    ["distinguish", "ket0_bra1", "classical_qubit", "--tol", "1e-9"],
    ["feasibility", "qubit_identity", "computational", "--tol", "1e-9"],
    ["reproduce", "1", "--tol", "1e-9"],
    ["validate", "--tol", "1e-9"],
])
def test_commands_refuse_flags_they_ignore(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["distinguish", "ket0_bra1", "classical_qubit", "--trials", "5"],
    ["montecarlo", "ket0", "plus", "diagonal", "--trials", "1000"],
    ["feasibility", "qutrit_signed", *QUTRIT_FAMILY, "--starts", "2"],
    ["reproduce", "1"],
])
def test_negative_seed_is_an_input_error(argv, capsys):
    code, out, err = run(argv + ["--seed", "-1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: seed must be a non-negative integer")
    assert "-1" in err


@pytest.mark.parametrize("example", [1, 2, 3])
def test_reproduce_passes(example, capsys):
    code, out, _ = run(["reproduce", str(example)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "PASS"
    assert "[FAIL]" not in out


#: One cheap invocation of every subcommand.
EVERY_COMMAND = {
    "abl": ["ket0_bra1", "diagonal"],
    "story": ["ket0_bra1", "diagonal"],
    "find-story": ["ket0_bra1"],
    "nullspace": ["computational"],
    "distinguish": ["ket0_bra1", "classical_qubit", "--trials", "5"],
    "feasibility": ["qubit_identity", "computational", "diagonal",
                    "--starts", "2"],
    "reproduce": ["1"],
    "montecarlo": ["ket0", "ket1", "diagonal", "--trials", "2000"],
    "validate": [],
}


def test_every_command_is_covered():
    parser = build_parser()
    [sub] = [a for a in parser._actions if a.dest == "command"]
    assert sorted(sub.choices) == sorted(EVERY_COMMAND)


@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
def test_json_report_is_named_by_its_command(command, capsys):
    code, out, _ = run([command, *EVERY_COMMAND[command], "--json"], capsys)
    assert code == 0
    assert json.loads(out)["command"] == command


@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
def test_handlers_return_their_report_and_print_nothing(command, capsys):
    """main is the one writer of stdout: a handler returns (exit code,
    JSON payload, text lines), and main prints one of the two forms."""
    args = build_parser().parse_args([command, *EVERY_COMMAND[command]])
    code, payload, text = args.handler(args)
    assert capsys.readouterr().out == ""
    assert code == 0 and "command" not in payload
    assert all(isinstance(line, str) for line in text)
    assert run([command, *EVERY_COMMAND[command]], capsys)[1] == (
        "\n".join(text) + "\n")


@pytest.mark.parametrize("command", sorted(EVERY_COMMAND))
def test_json_report_is_json_dumps_of_the_handlers_payload(command, capsys):
    """--json prints the handler's payload under its command name exactly
    as json.dumps(indent=2, sort_keys=True) renders it."""
    argv = [command, *EVERY_COMMAND[command], "--json"]
    args = build_parser().parse_args(argv)
    _, payload, _ = args.handler(args)
    assert run(argv, capsys)[1] == json.dumps(
        {"command": command, **payload}, indent=2, sort_keys=True) + "\n"


#: Runs reproduce 3 and a feasibility search with scipy unimportable; the
#: tier-1 workflow runs the same line.
NUMPY_ONLY = (
    'import sys; sys.modules["scipy"] = None; from twinspace.cli import main; '
    'sys.exit(main(["reproduce", "3"]) or main(["feasibility", '
    '"qutrit_signed", "qutrit_family_1", "qutrit_family_2", '
    '"qutrit_family_3", "--json"]))')


def test_library_runs_without_scipy():
    """The library needs numpy alone: with scipy made unimportable,
    reproduce 3 and a feasibility search both exit 0."""
    src = str(Path(twinspace.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout and '"verdict": "NOT_CERTIFIED"' in proc.stdout


def test_console_script_smoke():
    exe = shutil.which("twinspace")
    assert exe is not None, "console script not installed"
    proc = subprocess.run([exe, "abl", "ket0_bra1", "diagonal"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "0.500000000000" in proc.stdout
