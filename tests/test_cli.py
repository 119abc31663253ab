"""Command line contract: outputs, exit codes, JSON determinism."""

import json
import shutil
import subprocess

import numpy as np
import pytest

from twinspace import TwoStateVector
from twinspace.cli import main
from twinspace.workspace import builtin_workspace


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


def test_nullspace_command(capsys):
    code, out, _ = run(["nullspace", "computational"], capsys)
    assert code == 0
    assert "4 - 2 = 2" in out


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


def test_montecarlo_json_booleans(capsys):
    code, out, _ = run(["montecarlo", "ket0", "ket1", "diagonal",
                        "--trials", "200000", "--json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert type(report["passed"]) is bool
    assert all(type(row["ok"]) is bool for row in report["rows"])


def test_validate_builtin(capsys):
    code, out, _ = run(["validate"], capsys)
    assert code == 0
    assert "workspace valid" in out


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


@pytest.mark.parametrize("example", [1, 2, 3])
def test_reproduce_passes(example, capsys):
    code, out, _ = run(["reproduce", str(example)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "PASS"
    assert "[FAIL]" not in out


def test_console_script_smoke():
    exe = shutil.which("twinspace")
    assert exe is not None, "console script not installed"
    proc = subprocess.run([exe, "abl", "ket0_bra1", "diagonal"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "0.500000000000" in proc.stdout
