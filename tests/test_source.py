"""Checks on the package's source text: each input rule has one home, and no line is packed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sumeter"

# The functions that may test a count or a text by hand, each with the reason. Everywhere else a
# text or a built value goes through `core._require` and a count through `core._count`.
HAND_CHECKS = {
    ("core", "_count"): "the count rule itself",
    ("core", "NodeUsage.__post_init__"): (
        "runs once per usage a caller or `iter_jobs` builds, and checks both counts in one comparison"
    ),
    ("config", "_text"): "collects the error under its config path, where a helper would raise it",
}


def _calls(node: ast.AST, function: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == function


def _names(node: ast.AST, *names: str) -> bool:
    return isinstance(node, ast.Name) and node.id in names


def _is_hand_check(node: ast.AST) -> bool:
    """Whether `node` is `type(<x>) is not int|str` or `not isinstance(<x>, str)`."""
    if isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(node.ops[0], ast.IsNot):
        return _calls(node.left, "type") and _names(node.comparators[0], "int", "str")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and _calls(node.operand, "isinstance"):
        return len(node.operand.args) == 2 and _names(node.operand.args[1], "str")
    return False


def _hand_checks(tree: ast.AST, scope: str = "") -> list[tuple[str, int]]:
    """(qualified name of the enclosing function or class, line) of each hand check under `tree`."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif _is_hand_check(node):
            found.append((scope, node.lineno))
        found += _hand_checks(node, inner)
    return found


def test_a_count_or_a_text_is_checked_by_hand_only_where_listed():
    found: dict[tuple[str, str], list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, line in _hand_checks(ast.parse(path.read_text(encoding="utf-8"))):
            found.setdefault((path.stem, scope), []).append(line)
    stray = [
        f"{module}.py:{line} in {scope or 'the module'}"
        for (module, scope), lines in sorted(found.items())
        if (module, scope) not in HAND_CHECKS
        for line in lines
    ]
    assert not stray, "checked by hand, not through core._require or core._count: " + ", ".join(stray)
    unused = sorted(set(HAND_CHECKS) - set(found))
    assert not unused, f"listed in HAND_CHECKS but no longer checking by hand: {unused}"


def _catches_type_error(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(_names(kind, "TypeError") for kind in kinds)


def _sequence_checks(tree: ast.AST, scope: str = "") -> list[tuple[str, int, str]]:
    """(enclosing function or class, line, what) of each check that a sequence is one: a `_require` or
    `isinstance` of kind `Sequence`, or a `tuple(...)` call tried under `except TypeError`."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif (_calls(node, "_require") or _calls(node, "isinstance")) and len(node.args) >= 2:
            if _names(node.args[1], "Sequence"):
                found.append((scope, node.lineno, f"{node.func.id}(..., Sequence)"))
        elif isinstance(node, ast.Try) and any(_catches_type_error(handler) for handler in node.handlers):
            for statement in node.body:
                found += [
                    (scope, call.lineno, "tuple(...) under except TypeError")
                    for call in ast.walk(statement)
                    if _calls(call, "tuple")
                ]
        found += _sequence_checks(node, inner)
    return found


def test_a_sequence_of_values_is_read_only_by_core_sequence():
    """Every many-valued argument goes through `core._sequence`, which reads it once into a tuple."""
    stray = [
        f"{path.name}:{line} in {scope or 'the module'}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, line, what in _sequence_checks(ast.parse(path.read_text(encoding="utf-8")))
        if (path.stem, scope) != ("core", "_sequence")
    ]
    assert not stray, "a sequence read by hand, not through core._sequence: " + ", ".join(stray)


def test_no_source_line_is_longer_than_120_characters():
    """So a shorter file is not a packed one."""
    long = [
        f"src/sumeter/{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 120
    ]
    assert not long, "lines over 120 characters: " + ", ".join(long)


def test_only_the_package_loader_defers_a_module():
    """`sumeter.__getattr__` is the one lazy loader: no other module builds a module from its spec."""
    stray = [
        f"src/sumeter/{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if any(name in line for name in ("LazyLoader", "find_spec", "module_from_spec"))
    ]
    assert not stray, "a module loaded outside the package's __getattr__: " + ", ".join(stray)
