"""The stdlib static check (``scripts/check_static.py``) passes on CI's lint paths and tests."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_static.py"


def test_no_unused_imports_or_compile_warnings_on_the_lint_paths():
    spec = importlib.util.spec_from_file_location("check_static", SCRIPT)
    check_static = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_static)
    paths = check_static.ruff_paths()
    assert "src/repro/api" in paths
    assert check_static.scan([*paths, "tests"]) == []
