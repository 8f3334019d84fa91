"""Checks on the source tree itself."""

import importlib
import pkgutil
import shutil
import subprocess
from pathlib import Path

import pytest

import jpbib

ROOT = Path(__file__).resolve().parents[1]


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    result = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        pytest.skip(f"git ls-files failed: {result.stderr.strip()}")
    assert result.stdout == ""


def test_all_exports_exist():
    modules = [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(jpbib.__path__, "jpbib.")
    ]
    checked = [module for module in modules if hasattr(module, "__all__")]
    assert {"jpbib.oai", "jpbib.oai_mock", "jpbib.similarity"} <= {
        module.__name__ for module in checked
    }
    for module in checked:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
