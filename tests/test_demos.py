"""Smoke test: every narrative demo runs to the end without raising."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_are_collected():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    runpy.run_path(str(path), run_name="__main__")
