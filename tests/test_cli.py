import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import affstr
from affstr import build_fan, build_folded_fans, cli, string_table, weyl
from affstr import fan as fan_module
from affstr.cli import main
from affstr.strings import module_class
from affstr.verify import fixture_dir

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fan_cutoff0_json(capsys, a2):
    code, out, _ = run(capsys, "fan", "--cutoff", "0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    assert {"root": [0, 1], "grade": 0, "mult": 1} in data
    assert data == build_fan(a2, 0).to_json()


def test_fan_cutoff2_matches_table(capsys):
    code, out, _ = run(capsys, "fan", "--cutoff", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0 and len(data) == 23


def test_fan_check_flag(capsys):
    code, out, _ = run(capsys, "fan", "--cutoff", "4", "--check")
    assert code == 0


def test_invalid_algebra_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, out, err = run(capsys, "fan", "--algebra", str(bad), "--cutoff", "1")
    assert code == 2
    assert "error" in err
    # a non-integral Cartan entry is refused, not truncated to A2
    bad.write_text(json.dumps({"label": "X", "cartan": [[2, -1.5], [-1, 2]]}))
    code, out, err = run(capsys, "fan", "--algebra", str(bad), "--cutoff", "0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "-1.5" in err


def test_config_naming_a_symmetrizer_exits_2(capsys, tmp_path):
    # the symmetrizer is derived from the Cartan matrix; the key is refused,
    # never ignored
    b2 = tmp_path / "b2.json"
    b2.write_text(json.dumps({"label": "B2", "cartan": [[2, -2], [-1, 2]], "symmetrizer": [1, 2]}))
    code, out, err = run(capsys, "fan", "--algebra", str(b2), "--cutoff", "0")
    assert code == 2 and out == ""
    assert "'symmetrizer'" in err and "derived" in err


def test_inconsistent_mu_level(capsys):
    code, _, err = run(capsys, "strings", "--level", "1", "--mu", "2,0", "--cutoff", "4")
    assert code == 2 and "zeroth label" in err
    # folded-fan runs the same check and prints the same message
    assert run(capsys, "folded-fan", "--level", "1", "--mu", "2,0", "--cutoff", "4") == (
        code, "", err
    )


def test_strings_level1(capsys, a2):
    code, out, _ = run(
        capsys, "strings", "--level", "1", "--mu", "0,0", "--cutoff", "20",
        "--format", "json",
    )
    assert code == 0
    table = string_table(a2, (0, 0), 1, -20)
    assert json.loads(out) == table.to_json()
    assert table.coefficients[0][:5] == (1, 2, 5, 10, 20)
    assert table.coefficients[0][20] == 24842


def test_strings_level2_and_4(capsys):
    code, out, _ = run(
        capsys, "strings", "--level", "2", "--mu", "0,0", "--cutoff", "10",
        "--format", "json",
    )
    data = json.loads(out)
    assert code == 0
    assert len(data["strings"]) == 2
    assert data["strings"][0]["coeffs"][-1] == 3736
    code, out, _ = run(
        capsys, "strings", "--level", "4", "--mu", "1,1", "--cutoff", "9",
        "--format", "json", "--verify",
    )
    data = json.loads(out)
    assert code == 0
    assert len(data["strings"]) == 5
    assert data["strings"][0]["coeffs"][0] == 2


def test_strings_verify_checks_every_depth(capsys, monkeypatch):
    solve = cli.string_table

    def off_by_one_at_depth_8(*args):
        table = solve(*args)
        rows = [list(r) for r in table.coefficients]
        rows[2][8] += 1
        return table._replace(coefficients=tuple(map(tuple, rows)))

    monkeypatch.setattr(cli, "string_table", off_by_one_at_depth_8)
    code, _, err = run(
        capsys, "strings", "--level", "4", "--mu", "1,1", "--cutoff", "9", "--verify",
    )
    assert code == 3
    assert "string 2 depth 8" in err


def test_strings_verify_gates_the_fan_both_paths_read(
    tmp_path, capsys, fresh_algebras, drop_fan_vectors
):
    # Without the A2 vectors of grade >= 2 and root[0] > 2 the fold gives a
    # wrong table that the unfolded recursion, on the same fan, confirms:
    # only the denominator identity finds the fault.  The config is the
    # registered A2, so the test runs on an empty registry, emptied again
    # after the true table: no true fold is held, and no wrong one is kept
    # for later tests.
    config = tmp_path / "A2.json"
    config.write_text(json.dumps({"label": "A2", "cartan": [[2, -1], [-1, 2]]}))
    argv = ("strings", "--algebra", str(config), "--level", "2", "--mu", "1,0", "--cutoff", "10")
    _, true_table, _ = run(capsys, *argv)
    fresh_algebras.clear()
    drop_fan_vectors(None)
    code, wrong_table, _ = run(capsys, *argv)
    assert code == 0 and wrong_table != true_table
    code, out, err = run(capsys, *argv, "--verify")
    assert code == 3 and out == ""
    assert err.startswith("consistency failure: denominator identity fails")


def test_strings_csv(capsys):
    code, out, _ = run(
        capsys, "strings", "--level", "2", "--mu", "0,0", "--cutoff", "3",
        "--format", "csv",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "string,xi,n,coefficient"
    assert len(lines) == 1 + 2 * 4


def test_folded_fan_json(capsys, a2):
    code, out, _ = run(
        capsys, "folded-fan", "--level", "2", "--mu", "0,0", "--cutoff", "6",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 2
    base, _ = module_class(a2, (0, 0), 2)
    folded, _ = build_folded_fans(a2, base, 6)
    assert data == [ff.to_json() for ff in folded]
    assert folded[0].eta(0, 0) == -1
    entries = data[0]["entries"]
    assert entries == sorted(entries, key=lambda e: (e["target"], e["grade"]))


def test_mult_command(capsys):
    code, out, _ = run(
        capsys, "mult", "--level", "1", "--mu", "0,0", "--cutoff", "6",
        "--weight", "0,0", "--grade", "-3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["multiplicity"] == 10


def test_mult_negative_first_label(capsys):
    # argparse takes "-1,1,0,1" for an option, so it is written --weight=...
    code, out, _ = run(
        capsys, "mult", "--algebra", str(CONFIGS / "A4.json"), "--level", "2",
        "--mu", "1,0,0,1", "--cutoff", "3", "--weight=-1,1,0,1", "--grade", "-1",
    )
    assert code == 0 and out.endswith(": 10\n")


def test_mult_reduction_beyond_the_step_budget(capsys, monkeypatch):
    # A weight far above the module reads 0; a weight of the module whose
    # reduction outruns the budget is still a failure.
    cmd = ("mult", "--algebra", "A2", "--level", "1", "--mu", "0,0", "--cutoff", "4")
    code, out, _ = run(capsys, *cmd, "--weight", "0,-15", "--grade", "-79")
    assert code == 0 and out.endswith(": 20\n")
    monkeypatch.setattr(weyl, "DEFAULT_STEP_LIMIT", 20)
    code, out, _ = run(capsys, *cmd, "--weight", "40,0", "--grade", "-1")
    assert code == 0 and out.endswith(": 0\n")
    code, out, err = run(capsys, *cmd, "--weight", "0,-15", "--grade", "-79")
    assert code == 3 and out == ""
    assert err.startswith("consistency failure: reduction exceeded 20 steps")


@pytest.mark.parametrize("level", ["1000000", "99999999999999999999"])
def test_huge_level_exits_3_at_once(capsys, level):
    # The dominant weights of the level outnumber the node budget; the
    # command used to walk all of them before it picked the class.
    code, out, err = run(capsys, "strings", "--level", level, "--mu", "0,0", "--cutoff", "0")
    assert code == 3 and out == ""
    assert err == (
        f"consistency failure: level {level} has more than "
        f"{fan_module.DEFAULT_NODE_LIMIT} dominant weights\n"
    )


def test_character_past_the_node_budget_exits_3(capsys, monkeypatch):
    args = ("character", "--level", "2", "--mu", "0,0", "--cutoff", "3")
    code, out, _ = run(capsys, *args)
    assert code == 0 and out
    monkeypatch.setattr(fan_module, "DEFAULT_NODE_LIMIT", 5)
    code, out, err = run(capsys, *args)
    assert code == 3 and out == ""
    assert err == "consistency failure: character orbit walk exceeded 5 points\n"


def test_mult_beyond_window_is_a_request_error(capsys):
    code, out, err = run(
        capsys, "mult", "--level", "1", "--mu", "0,0", "--cutoff", "6",
        "--weight", "0,0", "--grade", "-7",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "cutoff -6" in err


def test_mult_rejects_malformed_weight_before_solving(capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return string_table(*args)

    monkeypatch.setattr(cli, "string_table", counting)
    for weight in ("x", "0,0,0"):
        code, out, err = run(
            capsys, "mult", "--level", "10", "--mu", "4,1", "--cutoff", "40",
            "--weight", weight, "--grade", "0",
        )
        assert code == 2 and out == "" and err.startswith("error:")
    assert calls == []
    code, out, _ = run(
        capsys, "mult", "--level", "1", "--mu", "0,0", "--cutoff", "6",
        "--weight", "0,0", "--grade", "-3", "--format", "csv",
    )
    assert code == 0 and out == "weight,grade,multiplicity\n0 0,-3,10\n"
    assert len(calls) == 1


def test_character_command(capsys):
    code, out, _ = run(
        capsys, "character", "--level", "1", "--mu", "0,0", "--cutoff", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert {"labels": [0, 0], "grade": 0, "mult": 1} in data
    total_at_minus1 = sum(e["mult"] for e in data if e["grade"] == -1)
    assert total_at_minus1 == 8


def test_character_text_output(capsys):
    code, out, _ = run(
        capsys, "character", "--level", "2", "--mu", "1,0", "--cutoff", "1",
    )
    assert code == 0
    assert out.splitlines() == [
        "character of L^[1, 0], A2 level 2, grades 0..-1",
        " grade 0 (total multiplicity 3):",
        "   [-1,1] (root basis -1/3,1/3; level 2; grade 0)  x1",
        "   [0,-1] (root basis -1/3,-2/3; level 2; grade 0)  x1",
        "   [1,0] (root basis 2/3,1/3; level 2; grade 0)  x1",
        " grade -1 (total multiplicity 24):",
        "   [-3,2] (root basis -4/3,1/3; level 2; grade -1)  x1",
        "   [-2,0] (root basis -4/3,-2/3; level 2; grade -1)  x2",
        "   [-2,3] (root basis -1/3,4/3; level 2; grade -1)  x1",
        "   [-1,-2] (root basis -4/3,-5/3; level 2; grade -1)  x1",
        "   [-1,1] (root basis -1/3,1/3; level 2; grade -1)  x4",
        "   [0,-1] (root basis -1/3,-2/3; level 2; grade -1)  x4",
        "   [0,2] (root basis 2/3,4/3; level 2; grade -1)  x2",
        "   [1,-3] (root basis -1/3,-5/3; level 2; grade -1)  x1",
        "   [1,0] (root basis 2/3,1/3; level 2; grade -1)  x4",
        "   [2,-2] (root basis 2/3,-2/3; level 2; grade -1)  x2",
        "   [2,1] (root basis 5/3,4/3; level 2; grade -1)  x1",
        "   [3,-1] (root basis 5/3,1/3; level 2; grade -1)  x1",
    ]


def test_output_determinism(capsys):
    _, one, _ = run(capsys, "strings", "--level", "2", "--mu", "1,0",
                    "--cutoff", "8", "--format", "json")
    _, two, _ = run(capsys, "strings", "--level", "2", "--mu", "1,0",
                    "--cutoff", "8", "--format", "json")
    assert one == two


def test_out_file(tmp_path, capsys):
    target = tmp_path / "fan.json"
    code, out, _ = run(capsys, "fan", "--cutoff", "1", "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert len(json.loads(target.read_text())) == 11


def test_out_to_unwritable_path_is_a_request_error(tmp_path, capsys, monkeypatch):
    # the target is checked before the handler runs, so no work is wasted
    calls = []
    monkeypatch.setattr(cli, "cmd_fan", lambda args: calls.append(args) or "")
    for target in (tmp_path / "missing" / "fan.json", tmp_path):
        code, out, err = run(capsys, "fan", "--cutoff", "3", "--out", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(target) in err
    assert calls == []


def test_failed_run_leaves_out_target_as_it_was(tmp_path, capsys):
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    fresh = tmp_path / "fresh.txt"
    for target in (kept, fresh):
        code, out, err = run(capsys, "strings", "--level", "1", "--mu", "2,0",
                             "--cutoff", "4", "--out", str(target))
        assert code == 2 and out == "" and err.startswith("error:")
    assert kept.read_text() == "earlier output\n"
    assert not fresh.exists()


def test_rank_zero_config_is_refused(capsys, tmp_path):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"cartan": []}))
    code, out, err = run(capsys, "fan", "--algebra", str(point), "--cutoff", "2", "--check")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "empty" in err


def test_verify_default_fixtures(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_empty_fixture_dir(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--fixtures", str(tmp_path))
    assert code == 0
    assert "warning" in out


def test_verify_missing_fixture_dir(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--fixtures", str(tmp_path / "nope"))
    assert code == 2


def _level4_without_eta():
    fixture = json.loads((fixture_dir() / "level4_a2_classI.json").read_text())
    del fixture["eta"]
    return fixture


@pytest.mark.parametrize(
    "fixture,named",
    [
        ([{"kind": "fan", "algebra": "A2", "cutoff": 2}], "not a JSON object"),
        ({"kind": "fan", "algebra": "A2"}, "'cutoff'"),
        (_level4_without_eta(), "'eta'"),
    ],
)
def test_verify_refuses_a_malformed_fixture(tmp_path, capsys, fixture, named):
    # a file that is not an object, or a known kind without one of its
    # keys, exits 2 with an error naming the file and the key
    (tmp_path / "bad.json").write_text(json.dumps(fixture))
    code, out, err = run(capsys, "verify", "--fixtures", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "bad.json" in err and named in err


def test_verify_reports_an_unknown_kind_as_a_failed_check(tmp_path, capsys):
    # an unknown kind, even one without an algebra, is one FAIL line
    (tmp_path / "odd.json").write_text(json.dumps({"kind": "level3"}))
    code, out, _ = run(capsys, "verify", "--fixtures", str(tmp_path))
    assert code == 3
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        f"FAIL  fixture {tmp_path / 'odd.json'}  unknown kind 'level3'"
    ]


def test_verify_locates_injected_fault(tmp_path, capsys):
    for path in fixture_dir().glob("*.json"):
        shutil.copy(path, tmp_path / path.name)
    target = tmp_path / "level2_a2.json"
    data = json.loads(target.read_text())
    data["classes"][0]["sigma"][0][4] += 1
    target.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--fixtures", str(tmp_path))
    assert code == 3
    assert any(
        line.startswith("FAIL") and "class I" in line for line in out.splitlines()
    )


def test_cold_start_imports_neither_dataclasses_nor_verify():
    # One fresh interpreter: pytest itself has imported dataclasses here.
    # A command other than `verify` must not pay for either module.
    src = pathlib.Path(affstr.__file__).resolve().parents[1]
    program = (
        "import sys, affstr, affstr.cli\n"
        "code = affstr.cli.main(['mult', '--algebra', 'A2', '--level', '1', '--mu', '0,0',\n"
        "                        '--cutoff', '4', '--weight', '1,0', '--grade', '-1'])\n"
        "print(sorted({'dataclasses', 'affstr.verify'} & set(sys.modules)), code)\n"
    )
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    answer, loaded = proc.stdout.splitlines()
    assert answer.endswith("in L^[0, 0] at level 1: 0")
    assert loaded == "[] 0"


def test_the_oracle_is_imported_on_first_use():
    # Only the two-path checks need the unfolded recursion: a fresh
    # interpreter that runs `mult` has not imported it, and the package
    # serves its names on first access.
    src = pathlib.Path(affstr.__file__).resolve().parents[1]
    program = (
        "import sys, affstr, affstr.cli\n"
        "code = affstr.cli.main(['mult', '--algebra', 'A2', '--level', '1', '--mu', '0,0',\n"
        "                        '--cutoff', '4', '--weight', '1,0', '--grade', '-1'])\n"
        "print('affstr.oracle' in sys.modules, code)\n"
        "names = ['RacahOracle', 'certify', 'euler_square_series', 'level1_eta_series']\n"
        "served = [getattr(affstr, n) is getattr(sys.modules['affstr.oracle'], n) for n in names]\n"
        "print(all(served), hasattr(affstr, 'no_such_name'))\n"
    )
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:] == ["False 0", "True False"]
