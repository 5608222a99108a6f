"""The CI workflow and scripts/check.py stay in step, checked without running a step."""

import importlib.util
import pathlib
import re
import subprocess

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_workflow_runs_the_check_script_and_nothing_else():
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    runs = re.findall(r"^\s*(?:-\s+)?run:(.*)$", text, re.M)
    assert [run.strip() for run in runs] == [
        "python -m pip install pytest hypothesis",
        "python scripts/check.py",
    ]


def test_check_steps_have_unique_names(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("loading the check script started a process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    spec = importlib.util.spec_from_file_location("check", ROOT / "scripts" / "check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    names = [name for name, _ in check.STEPS]
    assert len(names) == len(set(names)) > 0
