"""The scripts under scripts/ print the transcripts in golden/scripts.json.

Each script runs in-process with its own argv, as ``python scripts/NAME.py``
would run it.
"""

import json
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUNS = json.loads((ROOT / "tests" / "golden" / "scripts.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("run", RUNS, ids=[" ".join([r["script"], *r["args"]]) for r in RUNS])
def test_script_prints_its_transcript(run, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [run["script"], *run["args"]])
    runpy.run_path(str(ROOT / "scripts" / run["script"]), run_name="__main__")
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (run["stdout"], "")


def test_every_script_has_a_transcript():
    assert {r["script"] for r in RUNS} == {p.name for p in (ROOT / "scripts").glob("*.py")}
