#!/usr/bin/env python
"""Stdlib-only static check: unused imports, unresolved imports, compile warnings.

CI's lint job runs ruff; this script runs the checks that catch what a
deletion most often leaves behind, with nothing but the standard library,
so the tier-1 suite (``tests/test_static.py``) runs them too:

* **F401** — an import whose bound name is never used in its scope.  A name
  counts as used when it is read anywhere in the scope that imports it,
  listed in ``__all__``, named in a string annotation, re-exported as
  ``import x as x``, imported under ``if TYPE_CHECKING:``, or when the
  import's line carries ``# noqa``.  Scopes are module and function bodies;
  a name read only in a sibling function does not count.
* **compile under** ``-W error`` — every file must compile without a
  warning (invalid escape sequences, ``is`` against a literal, ...).  A
  syntax error is reported too (ruff's E9).
* **unresolved imports** — for every ``from repro... import name`` (absolute,
  or relative inside ``src/repro``), at module level, under
  ``TYPE_CHECKING`` or inside a function, the target module is imported and
  must exist and define ``name`` (an attribute or a submodule).  Neither
  ruff nor ``compile`` resolves names across modules, so a function-local
  import of a deleted name would otherwise fail only when its branch runs.
  ``import repro.x`` must name an importable module.

Not covered — ruff still owns these: the rest of the ``F`` rules (F811
redefinitions, F841 unused locals, F821 undefined names, F541 placeholder-
less f-strings, ...), ``E4`` (import placement), ``E7`` (statement style:
E711/E712 comparisons, E722 bare ``except``, E731 lambda assignment, ...)
and the ``W`` whitespace rules other than W605 (which compile catches).

Usage::

    python scripts/check_static.py            # the ruff path list in ci.yml
    python scripts/check_static.py PATH ...   # explicit files or directories

Exits 1 listing every ``file:line: message``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
import warnings
from pathlib import Path
from types import ModuleType

REPO_ROOT = Path(__file__).resolve().parent.parent
CI_FILE = REPO_ROOT / ".github" / "workflows" / "ci.yml"
SRC = REPO_ROOT / "src"
PACKAGE = "repro"


def ruff_paths() -> list[str]:
    """The paths CI's ``ruff check`` step lints, read from ``ci.yml``."""
    for line in CI_FILE.read_text(encoding="utf-8").splitlines():
        _, found, rest = line.partition("run: ruff check ")
        if found:
            return rest.split()
    raise SystemExit(f"no 'ruff check' step in {CI_FILE}")


def _annotation_names(node: ast.AST | None) -> set[str]:
    """Names read by an annotation, string annotations included."""
    names: set[str] = set()
    for sub in ast.walk(node) if node is not None else ():
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _used_names(scope: ast.AST) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, (ast.Assign, ast.AugAssign)) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in getattr(node, "targets", [getattr(node, "target", None)])
        ):
            used |= {
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return used


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(scope: ast.AST):
    """``(import node, scope)`` for every import, skipping TYPE_CHECKING blocks."""
    stack = [(child, scope) for child in ast.iter_child_nodes(scope)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node):
            stack.extend((child, owner) for child in node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, owner
            continue
        inner = node if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def unused_imports(path: Path, source: str, tree: ast.AST) -> list[str]:
    lines = source.splitlines()
    used_in: dict[int, set[str]] = {}
    findings = []
    for node, scope in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in lines[n - 1] for n in range(node.lineno, node.end_lineno + 1)):
            continue
        used = used_in.setdefault(id(scope), _used_names(scope))
        for alias in node.names:
            if alias.name == "*" or alias.asname == alias.name:
                continue  # star import, or an explicit ``import x as x`` re-export
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in used:
                findings.append(f"{path}:{node.lineno}: F401 '{alias.name}' imported but unused")
    return findings


def _target_module(file_path: Path, node: ast.ImportFrom) -> str | None:
    """The absolute module a ``from ... import`` names, if it is in the package."""
    if node.level == 0:
        module = node.module or ""
        return module if module.partition(".")[0] == PACKAGE else None
    if not file_path.is_relative_to(SRC / PACKAGE):
        return None
    parts = list(file_path.relative_to(SRC).parent.parts)
    base = parts[: len(parts) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def _load(module: str) -> ModuleType | str:
    """The imported module, or the error text."""
    try:
        return importlib.import_module(module)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _has(module: ModuleType, name: str) -> bool:
    if hasattr(module, name):
        return True
    try:
        return importlib.util.find_spec(f"{module.__name__}.{name}") is not None
    except ImportError:
        return False


def unresolved_imports(path: Path, file_path: Path, tree: ast.AST) -> list[str]:
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [
                (alias.name, None)
                for alias in node.names
                if alias.name.partition(".")[0] == PACKAGE
            ]
        elif isinstance(node, ast.ImportFrom):
            module = _target_module(file_path, node)
            targets = [(module, node.names)] if module is not None else []
        else:
            continue
        for module, names in targets:
            found = _load(module)
            if isinstance(found, str):
                findings.append(f"{path}:{node.lineno}: cannot import '{module}': {found}")
                continue
            for alias in names or ():
                if alias.name != "*" and not _has(found, alias.name):
                    findings.append(
                        f"{path}:{node.lineno}: '{alias.name}' not found in '{module}'"
                    )
    return findings


def check_file(file_path: Path) -> list[str]:
    source = file_path.read_text(encoding="utf-8")
    path = file_path.relative_to(REPO_ROOT) if file_path.is_relative_to(REPO_ROOT) else file_path
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(source, str(path), "exec", dont_inherit=True)
    except SyntaxError as exc:  # a warning-as-error surfaces as one too
        return [f"{path}:{exc.lineno}: compile: {exc.msg}"]
    except Warning as exc:
        return [f"{path}: compile: {exc}"]
    tree = ast.parse(source, str(path))
    return unused_imports(path, source, tree) + unresolved_imports(path, file_path, tree)


def scan(paths: list[str]) -> list[str]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    findings: list[str] = []
    for root in paths:
        root_path = REPO_ROOT / root
        files = [root_path] if root_path.is_file() else sorted(root_path.rglob("*.py"))
        for file_path in files:
            findings.extend(check_file(file_path))
    return findings


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    findings = scan(args or ruff_paths())
    for finding in findings:
        print(finding)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
