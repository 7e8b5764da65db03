"""Layering of the serving tier, checked on the syntax tree.

``src/repro/service`` keeps three properties that are cheap to lose one
line at a time: no object reaches into another's underscore fields, the
authorization decisions are called from one place (``server.admit``), and
the replication stream never picks its cipher by looking at a scheme's
flavour (it is sealed by ``make_file_crypto`` for the scheme in force).
"""

import ast
import pathlib

SERVICE = pathlib.Path(__file__).parent.parent / "src" / "repro" / "service"
TREES = {
    path.name: ast.parse(path.read_text()) for path in sorted(SERVICE.glob("*.py"))
}


def _calls(tree, name):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
    ]


def _enclosing_functions(tree, nodes):
    owners = []
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            inside = set(map(id, ast.walk(function)))
            owners += [function.name for node in nodes if id(node) in inside]
    return owners


def _imported_modules(tree):
    return {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }


def test_nothing_reaches_into_another_objects_underscore_fields():
    assert len(TREES) >= 6
    reaches = []
    for name, tree in TREES.items():
        own = {"self", "cls"} | _imported_modules(tree)  # os._exit is no field
        reaches += [
            f"{name}:{node.lineno} {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and not (isinstance(node.value, ast.Name) and node.value.id in own)
        ]
    assert reaches == []


def test_the_authorization_decisions_have_one_caller():
    for decision in ("authenticate", "require_authenticated"):
        callers = [
            (name, owner)
            for name, tree in TREES.items()
            for owner in _enclosing_functions(tree, _calls(tree, decision))
        ]
        assert callers == [("server.py", "admit")], decision


def test_the_replication_stream_does_not_branch_on_the_scheme_flavour():
    tree = TREES["replica.py"]
    assert _calls(tree, "make_file_crypto")
    assert [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "aead"
    ] == []
