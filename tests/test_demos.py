"""Every demo script runs to completion."""

import os
import runpy
import tempfile
from pathlib import Path

import pytest

import matsig

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path, capsys, monkeypatch):
    # demo 05 writes under tempfile's directory and runs `python -m matsig` children
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    src = str(Path(matsig.__file__).resolve().parent.parent)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
    assert not list(tmp_path.iterdir())  # nothing left behind in the temp directory
