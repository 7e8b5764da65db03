"""Layering of the engine and the serving tier, checked on the syntax tree.

``src/repro/lsm``, ``src/repro/dist`` and ``src/repro/service`` keep one
property that is cheap to lose one line at a time: no object reaches into
another's underscore fields.  ``src/repro/service`` keeps three more: the
authorization decisions are called from one place (``server.admit``), one
executor loop answers every request (``server.answer`` has one caller), and
the replication stream never picks its cipher by looking at a scheme's
flavour (it is one more file of the engine's provider).  And a DEK has one
lifecycle: outside ``keys/``, only ``shield/provider.py`` provisions,
resolves or retires one.
"""

import ast
import pathlib

REPRO = pathlib.Path(__file__).parent.parent / "src" / "repro"
LAYERED = {
    f"{package}/{path.name}": ast.parse(path.read_text())
    for package in ("lsm", "dist", "service")
    for path in sorted((REPRO / package).glob("*.py"))
}
TREES = {  # the serving tier's modules, by file name
    name.removeprefix("service/"): tree
    for name, tree in LAYERED.items() if name.startswith("service/")
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
    assert len(TREES) >= 6 and len(LAYERED) >= 30
    reaches = []
    for name, tree in LAYERED.items():
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


def test_answer_has_one_caller_the_executor_loop():
    """One executor: every request any server answers goes through the one
    loop's ``_answer`` -- no second dispatcher calls ``server.answer``."""
    callers = [
        (name, owner)
        for name, tree in TREES.items()
        for owner in _enclosing_functions(tree, _calls(tree, "answer"))
    ]
    assert callers == [("server.py", "_answer")]


def test_the_replication_stream_does_not_branch_on_the_scheme_flavour():
    tree = TREES["replica.py"]
    for seam in ("for_new_file", "for_existing_file", "on_file_deleted"):
        assert _calls(tree, seam), seam
    assert not _calls(tree, "make_file_crypto")
    assert [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "aead"
    ] == []


#: The KeyClient calls of a DEK's lifecycle: provision, resolve, retire.
DEK_LIFECYCLE = ("new_dek", "get_dek", "retire_dek")


def _dek_lifecycle_calls(trees):
    return sorted(
        f"{name}:{node.lineno} {ast.unparse(node.func)}"
        for name, tree in trees.items()
        for lifecycle_call in DEK_LIFECYCLE
        for node in _calls(tree, lifecycle_call)
    )


def test_only_the_provider_drives_a_deks_lifecycle():
    trees = {
        str(path.relative_to(REPRO)): ast.parse(path.read_text())
        for path in sorted(REPRO.rglob("*.py"))
        if path.relative_to(REPRO).parts[0] != "keys"
    }
    assert len(trees) >= 80 and "shield/provider.py" in trees
    calls = _dek_lifecycle_calls(trees)
    assert [call.split(":")[0] for call in calls] == ["shield/provider.py"] * 3
    # A stray call anywhere else is caught.
    trees["service/replica.py"] = ast.parse(
        "def stream():\n    return key_client.new_dek()\n"
    )
    assert "service/replica.py:2 key_client.new_dek" in _dek_lifecycle_calls(trees)
