"""The stdlib static check (``scripts/check_static.py``) passes on CI's lint paths and tests."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_static.py"
_SPEC = importlib.util.spec_from_file_location("check_static", SCRIPT)
check_static = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_static)


def test_no_unused_imports_or_compile_warnings_on_the_lint_paths():
    paths = check_static.ruff_paths()
    assert "src/repro/api" in paths
    assert check_static.scan([*paths, "tests"]) == []


def test_a_function_local_import_of_a_missing_name_is_reported(tmp_path):
    source = tmp_path / "stale.py"
    source.write_text(
        "def f():\n"
        "    from repro.serving import ExecutionEngine, execute_task\n"
        "    from repro.serving.stages import drive_async\n"
        "    return ExecutionEngine, execute_task, drive_async\n"
    )
    findings = check_static.scan([str(source)])
    assert [finding.split(": ", 1)[1] for finding in findings] == [
        "'execute_task' not found in 'repro.serving'",
        "cannot import 'repro.serving.stages': "
        "ModuleNotFoundError: No module named 'repro.serving.stages'",
    ]
