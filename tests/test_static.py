"""The stdlib static check (``scripts/check_static.py``) passes on CI's lint paths and tests."""

import ast
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_static.py"
_SPEC = importlib.util.spec_from_file_location("check_static", SCRIPT)
check_static = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_static)


def test_no_unused_imports_or_compile_warnings_on_the_lint_paths():
    paths = check_static.ruff_paths()
    assert "src/repro/api" in paths
    # All of src/repro, not only the lint paths: a salted hash() is a fault
    # in any module (the baselines' embeddings had one).
    roots = ["src/repro", "scripts", "tests", "bench", "benchmarks"]
    assert all(any(path.startswith(root) for root in roots) for path in paths)
    assert check_static.scan(roots) == []


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


def test_a_redefinition_and_an_unused_local_are_reported(tmp_path):
    source = tmp_path / "stale.py"
    source.write_text(
        "import os\n"
        "\n"
        "\n"
        "def test_a():\n"
        "    store = os.getcwd()\n"
        "    kept = 1\n"
        "    try:\n"
        "        pass\n"
        "    except OSError as error:\n"
        "        pass\n"
        "    return kept\n"
        "\n"
        "\n"
        "def test_a():\n"
        "    _ignored = 1\n"
        "\n"
        "\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "\n"
        "    @size.setter\n"
        "    def size(self, value):\n"
        "        pass\n"
    )
    findings = check_static.scan([str(source)])
    assert [finding.split(": ", 1)[1] for finding in findings] == [
        "F811 redefinition of unused 'test_a' from line 4",
        "F841 local variable 'store' is assigned to but never used",
        "F841 local variable 'error' is assigned to but never used",
    ]


def test_an_undefined_name_is_reported_in_the_scope_that_reads_it(tmp_path):
    source = tmp_path / "stale.py"
    source.write_text(
        "from __future__ import annotations\n"
        "\n"
        "\n"
        "def run(spec: NotEvaluated) -> list:\n"
        "    local = [spec for _ in range(2)]\n"
        "    return local + [gone(item) for item in local]\n"
        "\n"
        "\n"
        "class Box:\n"
        "    size = 1\n"
        "\n"
        "    def area(self):\n"
        "        return size * len(__class__.__name__)\n"
        "\n"
        "\n"
        "def outer():\n"
        "    captured = run\n"
        "    return lambda: captured(missing)\n"
        "\n"
        "\n"
        "printed = print(__file__, silenced)  # noqa\n"
    )
    findings = check_static.scan([str(source)])
    assert [finding.split(": ", 1)[1] for finding in findings] == [
        "F821 undefined name 'gone'",
        "F821 undefined name 'size'",
        "F821 undefined name 'missing'",
    ]


def test_each_statement_style_rule_is_reported(tmp_path):
    source = tmp_path / "stale.py"
    source.write_text(
        "def f(x, y):\n"
        "    if x == None:\n"
        "        pass\n"
        "    if y != False:\n"
        "        pass\n"
        "    if not x in y:\n"
        "        pass\n"
        "    if not x is y:\n"
        "        pass\n"
        "    if type(x) == type(y):\n"
        "        pass\n"
        "    try:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
        "    double = lambda v: 2 * v\n"
        "    l = double(x)\n"
        "    kept = lambda v: v  # noqa\n"
        "    return l, kept, x not in y, x is not y, type(x) is type(y)\n"
    )
    findings = check_static.scan([str(source)])
    assert [finding.split(": ", 1)[1] for finding in findings] == [
        "E711 comparison to None",
        "E712 comparison to False",
        "E713 test for membership should be 'not in'",
        "E714 test for object identity should be 'is not'",
        "E721 type comparison with == or !=",
        "E722 bare 'except'",
        "E731 lambda assigned to a name: use a def",
        "E741 ambiguous variable name 'l'",
    ]


def test_a_salted_hash_call_is_reported(tmp_path):
    source = tmp_path / "stale.py"
    source.write_text(
        "class Key:\n"
        "    def __hash__(self):\n"
        "        return hash(self.parts)\n"
        "\n"
        "\n"
        "def bucket(gram, size):\n"
        "    return hash(gram) % size\n"
        "\n"
        "\n"
        "def route(specs):\n"
        "    ordered = sorted(specs, key=lambda spec: hash(spec))\n"
        "    return ordered, hash(\"x\")  # noqa\n"
    )
    text = source.read_text()
    findings = check_static.salted_hashes(source, text, ast.parse(text))
    message = "salted hash() outside __hash__: it differs between processes, use a stable digest"
    assert findings == [f"{source}:7: {message}", f"{source}:11: {message}"]
    # The check runs on src/repro only: tests may hash to test __hash__.
    assert check_static.scan([str(source)]) == []


def test_a_long_line_is_reported(tmp_path):
    source = tmp_path / "stale.py"
    long = "x = " + " + ".join(["1"] * 33)  # 4 + 33 + 32 * 3 = 133 characters
    edge = "y = " + "2" * 96  # exactly 100: allowed
    source.write_text(f"{long}\n{edge}\n{long}  # noqa\n")
    findings = check_static.long_lines(source, source.read_text())
    assert findings == [f"{source}:1: E501 line too long (133 > 100)"]
    # The check runs on src/repro only, as the salted-hash one does.
    assert check_static.scan([str(source)]) == []
