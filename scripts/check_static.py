#!/usr/bin/env python
"""Stdlib-only static check: unused imports and locals, redefinitions,
undefined names, unresolved imports, compile warnings.

CI's lint job runs ruff; this script runs the checks that catch what a
deletion most often leaves behind, with nothing but the standard library,
so the tier-1 suite (``tests/test_static.py``) runs them too:

* **F401** — an import whose bound name is never used in its scope.  A name
  counts as used when it is read anywhere in the scope that imports it,
  listed in ``__all__``, named in a string annotation, re-exported as
  ``import x as x``, imported under ``if TYPE_CHECKING:``, or when the
  import's line carries ``# noqa``.  Scopes are module and function bodies;
  a name read only in a sibling function does not count.
* **F811** — a ``def`` or ``class`` that rebinds a name its scope bound
  before (a ``def``, ``class`` or import) with no read of the name in
  between, so the first binding can never be used: a test redefined under
  its own name silently never runs.  Only bindings directly in one body are
  compared (not across ``if``/``try`` branches); a read in the new
  definition's decorators (``@x.setter``) counts, and ``@overload`` stubs
  are skipped.
* **F841** — a local of a function that is assigned (``x = ...``,
  ``x: T = ...``, ``(x := ...)`` or ``except E as x``) but never read in
  the function or a scope nested in it.  Names starting with ``_``, names
  declared ``global``/``nonlocal`` and functions that call ``locals()`` are
  skipped; unpacking targets are not checked.
* **F821** — a name read (or deleted) in a scope where it resolves to a
  module global, that the module never binds (assignment, import, ``def``,
  ``class``, or ``global`` in a function) and that is not a builtin.  Scopes
  are resolved by :mod:`symtable`, the compiler's own; annotations that are
  not evaluated (``from __future__ import annotations``, string ones) are
  not checked, a module with a star import is skipped, and a line carrying
  ``# noqa`` is too.
* **compile under** ``-W error`` — every file must compile without a
  warning (invalid escape sequences, ``is`` against a literal, ...).  A
  syntax error is reported too (ruff's E9).
* **E7** (statement style) — E711/E712 ``==``/``!=`` against ``None`` or
  ``True``/``False``; E713/E714 ``not x in y`` / ``not x is y``; E721
  ``==``/``!=`` on a ``type(x)`` call; E722 a bare ``except:``; E731 a
  lambda assigned to a name; E741 a variable, argument or ``as`` target
  named ``l``, ``O`` or ``I``.  A line carrying ``# noqa`` is skipped.
* **unresolved imports** — for every ``from repro... import name`` (absolute,
  or relative inside ``src/repro``), at module level, under
  ``TYPE_CHECKING`` or inside a function, the target module is imported and
  must exist and define ``name`` (an attribute or a submodule).  Neither
  ruff nor ``compile`` resolves names across modules, so a function-local
  import of a deleted name would otherwise fail only when its branch runs.
  ``import repro.x`` must name an importable module.
* **salted hash** (``src/repro`` only) — a call of the builtin ``hash()``
  outside a ``__hash__`` method.  ``hash()`` of a ``str`` or ``bytes`` is salted per process
  (``PYTHONHASHSEED``), so an answer, a bucket or a route computed from it
  differs from one process to the next; a stable digest (``zlib.crc32``,
  ``hashlib``) does not.  Inside ``__hash__`` it only keys in-process
  dicts and sets.  A line carrying ``# noqa`` is skipped.
* **line length** (``src/repro`` only, E501) — a line longer than
  :data:`MAX_LINE` characters, ``pyproject.toml``'s ruff ``line-length``.
  A line carrying ``# noqa`` is skipped.

Not covered — ruff still owns these: the rest of the ``F`` rules (F541
placeholder-less f-strings, ...), ``E4`` (import placement), line length
outside ``src/repro`` and the ``W`` whitespace rules other than W605
(which compile catches).

Usage::

    python scripts/check_static.py            # the ruff path list in ci.yml
    python scripts/check_static.py PATH ...   # explicit files or directories

Exits 1 listing every ``file:line: message``.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import importlib.util
import symtable
import sys
import warnings
from pathlib import Path
from types import ModuleType

REPO_ROOT = Path(__file__).resolve().parent.parent
CI_FILE = REPO_ROOT / ".github" / "workflows" / "ci.yml"
SRC = REPO_ROOT / "src"
PACKAGE = "repro"
#: Characters a line of ``src/repro`` may hold (ruff's ``line-length``).
MAX_LINE = 100


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


_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(nodes) -> set[str]:
    return {
        sub.id
        for node in nodes
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
    }


def _bound_names(statement: ast.stmt) -> list[str]:
    if isinstance(statement, _DEFINITIONS):
        return [statement.name]
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return [
            alias.asname or alias.name.partition(".")[0]
            for alias in statement.names
            if alias.name != "*"
        ]
    return []


def redefinitions(path: Path, tree: ast.AST) -> list[str]:
    findings = []
    for scope in ast.walk(tree):
        if not isinstance(scope, _SCOPES):
            continue
        body = scope.body
        bound_at: dict[str, int] = {}  # name -> index of its latest binding
        for index, statement in enumerate(body):
            if isinstance(statement, _DEFINITIONS) and statement.name in bound_at:
                first = bound_at[statement.name]
                decorators = getattr(statement, "decorator_list", [])
                between = body[first + 1 : index] + decorators
                if statement.name not in _reads(between) and "overload" not in _reads(decorators):
                    findings.append(
                        f"{path}:{statement.lineno}: F811 redefinition of unused "
                        f"'{statement.name}' from line {body[first].lineno}"
                    )
            for name in _bound_names(statement):
                bound_at[name] = index
    return findings


def _own_nodes(function: ast.AST):
    """The nodes of ``function``'s own scope: nested functions, lambdas and
    classes are skipped (their names and defaults are not)."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (*_DEFINITIONS, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(path: Path, tree: ast.AST) -> list[str]:
    findings = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned: dict[str, int] = {}
        declared: set[str] = set()
        for node in _own_nodes(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            elif isinstance(node, ast.Assign):
                targets = [t for t in node.targets if isinstance(t, ast.Name)]
                for target in targets:
                    assigned.setdefault(target.id, target.lineno)
            elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and isinstance(
                node.target, ast.Name
            ):
                if not isinstance(node, ast.AnnAssign) or node.value is not None:
                    assigned.setdefault(node.target.id, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                assigned.setdefault(node.name, node.lineno)
        # A nested scope's ``nonlocal x`` reaches this function's ``x``.
        reads = _reads(function.body) | {
            name
            for node in ast.walk(function)
            if isinstance(node, ast.Nonlocal)
            for name in node.names
        }
        if "locals" in reads:
            continue
        for name, lineno in sorted(assigned.items(), key=lambda item: item[1]):
            if name not in reads and name not in declared and not name.startswith("_"):
                findings.append(
                    f"{path}:{lineno}: F841 local variable '{name}' is assigned to but never used"
                )
    return findings


#: Names every module or class body can read without binding them.
_IMPLICIT = set(dir(builtins)) | {
    "__file__", "__path__", "__builtins__", "__cached__", "__module__", "__qualname__", "__class__",
}


def _scope_parts(node: ast.AST) -> tuple[list, list]:
    """A scope node's parts evaluated in the enclosing scope, and its own."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        outer = [*args.defaults, *(d for d in args.kw_defaults if d is not None)]
        if isinstance(node, ast.Lambda):
            return outer, [node.body]
        arguments = (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg)
        annotations = [a.annotation for a in arguments if a is not None and a.annotation]
        return [*node.decorator_list, *outer, *annotations, node.returns], node.body
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords], node.body
    first, *rest = node.generators
    own = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
    return [first.iter], [*own, first.target, *first.ifs, *rest]


_SCOPE_NAMES = {
    ast.Lambda: "lambda",
    ast.ListComp: "listcomp",
    ast.SetComp: "setcomp",
    ast.DictComp: "dictcomp",
    ast.GeneratorExp: "genexpr",
}


def _scoped_reads(nodes: list, table: symtable.SymbolTable):
    """``(table, Name)`` for every name read or deleted in ``nodes``, paired
    with the symbol table of the scope it is resolved in."""
    children: dict[tuple[str, int], list] = {}
    for child in table.get_children():
        children.setdefault((child.get_name(), child.get_lineno()), []).append(child)
    stack = list(reversed(nodes))
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, (*_DEFINITIONS, *_SCOPE_NAMES)):
            outer, own = _scope_parts(node)
            name = getattr(node, "name", None) or _SCOPE_NAMES[type(node)]
            matches = children.get((name, node.lineno))
            if matches:
                yield from _scoped_reads(own, matches.pop(0))
            stack.extend(reversed(outer))
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield table, node
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _tables(table: symtable.SymbolTable):
    yield table
    for child in table.get_children():
        yield from _tables(child)


def undefined_names(path: Path, source: str, tree: ast.Module) -> list[str]:
    if any(
        isinstance(node, ast.ImportFrom) and node.names[0].name == "*" for node in tree.body
    ):
        return []
    module = symtable.symtable(source, str(path), "exec")
    bound = {
        symbol.get_name()
        for table in _tables(module)
        for symbol in table.get_symbols()
        if (table is module or symbol.is_declared_global())
        and (symbol.is_assigned() or symbol.is_imported())
    }
    lines = source.splitlines()
    findings = []
    for table, node in _scoped_reads(tree.body, module):
        name = node.id
        if name in bound or name in _IMPLICIT or "# noqa" in lines[node.lineno - 1]:
            continue
        try:
            symbol = table.lookup(name)
        except KeyError:  # an annotation that is never evaluated
            continue
        if symbol.is_global():
            findings.append(f"{path}:{node.lineno}: F821 undefined name '{name}'")
    return findings


_AMBIGUOUS = {"l", "O", "I"}


def _is_type_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "type"
        and len(node.args) == 1
    )


def _style(node: ast.AST) -> list[tuple[int, str]]:
    """The E7 findings ``(line, message)`` of one node."""
    if isinstance(node, ast.Compare):
        found = []
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if isinstance(side, ast.Constant) and side.value is None:
                    found.append((node.lineno, "E711 comparison to None"))
                elif isinstance(side, ast.Constant) and isinstance(side.value, bool):
                    found.append((node.lineno, f"E712 comparison to {side.value}"))
            if _is_type_call(left) or _is_type_call(right):
                found.append((node.lineno, "E721 type comparison with == or !="))
        return found
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.Not)
        and isinstance(node.operand, ast.Compare)
        and len(node.operand.ops) == 1
    ):
        test = node.operand.ops[0]
        if isinstance(test, ast.In):
            return [(node.lineno, "E713 test for membership should be 'not in'")]
        if isinstance(test, ast.Is):
            return [(node.lineno, "E714 test for object identity should be 'is not'")]
    if isinstance(node, ast.ExceptHandler):
        found = [] if node.type is not None else [(node.lineno, "E722 bare 'except'")]
        if node.name in _AMBIGUOUS:
            found.append((node.lineno, f"E741 ambiguous variable name '{node.name}'"))
        return found
    if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Lambda):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            return [(node.lineno, "E731 lambda assigned to a name: use a def")]
    name = (
        node.id
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        else node.arg if isinstance(node, ast.arg) else None
    )
    if name in _AMBIGUOUS:
        return [(node.lineno, f"E741 ambiguous variable name '{name}'")]
    return []


def statement_style(path: Path, source: str, tree: ast.AST) -> list[str]:
    lines = source.splitlines()
    found = sorted(finding for node in ast.walk(tree) for finding in _style(node))
    return [
        f"{path}:{lineno}: {message}"
        for lineno, message in found
        if "# noqa" not in lines[lineno - 1]
    ]


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


def salted_hashes(path: Path, source: str, tree: ast.AST) -> list[str]:
    lines = source.splitlines()
    found = []
    stack = [(tree, False)]  # (node, inside a __hash__ method)
    while stack:
        node, in_hash = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                stack.append((child, getattr(child, "name", None) == "__hash__"))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "hash"
                and not in_hash
                and "# noqa" not in lines[child.lineno - 1]
            ):
                found.append(child.lineno)
            stack.append((child, in_hash))
    return [
        f"{path}:{lineno}: salted hash() outside __hash__: "
        "it differs between processes, use a stable digest"
        for lineno in sorted(found)
    ]


def long_lines(path: Path, source: str) -> list[str]:
    return [
        f"{path}:{lineno}: E501 line too long ({len(line)} > {MAX_LINE})"
        for lineno, line in enumerate(source.splitlines(), 1)
        if len(line) > MAX_LINE and "# noqa" not in line
    ]


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
    findings = (
        unused_imports(path, source, tree)
        + redefinitions(path, tree)
        + unused_locals(path, tree)
        + undefined_names(path, source, tree)
        + statement_style(path, source, tree)
        + unresolved_imports(path, file_path, tree)
    )
    if file_path.is_relative_to(SRC / PACKAGE):
        findings += salted_hashes(path, source, tree) + long_lines(path, source)
    return findings


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
