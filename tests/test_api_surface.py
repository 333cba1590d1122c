"""Every public top-level function and class in ``src/`` is used or documented.

A public name (no leading underscore) defined at the top level of a
``coalgpath`` module must be referenced somewhere in ``src/`` outside its
own definition, or be named in the "API no verb calls" column of that
module's row in the README's library-layout table, before the colon
that starts the reason it stays.  Code that only the tests call belongs
in ``tests/`` (``oracles.py``, ``conftest.py``).  The sources and the
README are read as text, never imported.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coalgpath"
README = ROOT / "README.md"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _names_in(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _public_definitions(trees) -> list[tuple[str, ast.stmt]]:
    return [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _readme_api() -> dict[str, set[str]]:
    """Per module, the backticked names before the first colon of the
    table's API column, whose cells read "names: why they stay"."""
    api = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = re.match(r"\| `coalgpath\.(\w+)` \|[^|]*\|([^|]*)\|\s*$", line)
        if m:
            api[m.group(1)] = set(re.findall(r"`(\w+)`", m.group(2).split(":", 1)[0]))
    return api


TREES = _trees()
DEFINITIONS = _public_definitions(TREES)
README_API = _readme_api()
# the names each top-level statement of src/ uses
USES = [(stmt, _names_in(stmt)) for tree in TREES.values() for stmt in tree.body]


def test_readme_table_has_a_row_per_module():
    assert set(README_API) == set(TREES) - {"__init__"}


@pytest.mark.parametrize("module, node", DEFINITIONS, ids=[f"{m}.{n.name}" for m, n in DEFINITIONS])
def test_referenced_in_src_or_listed_as_api(module, node):
    used = any(node.name in names for stmt, names in USES if stmt is not node)
    assert used or node.name in README_API.get(module, set()), (
        f"{module}.{node.name} is called from nowhere in src/ and not listed as API in README.md; "
        "move it beside the tests or document it"
    )


def test_listed_api_exists():
    defined = {(module, node.name) for module, node in DEFINITIONS}
    stale = sorted(f"{module}.{name}" for module, names in README_API.items() for name in names
                   if (module, name) not in defined)
    assert not stale
