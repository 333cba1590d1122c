"""Every top-level function, class and method in ``src/`` is run by a verb or documented.

A top-level definition is reached when ``cli.main`` names it, or names a
definition whose body names it, and so on; the names in the "API no
verb calls" column of the README's library-layout table (before the
colon that starts the reason they stay) are followed the same way.
Only bare names are followed, across modules by name as the package
imports them, so a method call ``x.support()`` reaches no top-level
``support``.  A module-level assignment is reached with a name it binds;
any other module-level statement runs at import and is followed from
the start.  A public name that is not reached and not listed, or a
private name that is not reached, fails: code that only the tests call
belongs in ``tests/`` (``oracles.py``, ``conftest.py``,
``model_writers.py``), beside its callers.

A method of a top-level class, other than a dunder, must be named in
reached code outside its own body, as an attribute or a name, or be
named in its module's API column.

A defaulted parameter of a top-level function or of a method written in
a top-level class must be passed, by keyword or by position, at some
call site in ``src/`` of a function or attribute of that name (a class's
name for ``__init__``); a knob no caller turns is a constant.  Functions
and classes in the README's API column are exempt.  The sources and the
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


def _definitions(trees, private: bool) -> list[tuple[str, ast.stmt]]:
    return [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_") == private
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


def _reached(trees, api: dict[str, set[str]]) -> list[ast.stmt]:
    """The top-level statements of ``src/`` that ``cli.main``, the listed
    API names and the statements run at import reach by bare name."""
    bound: dict[str, list[ast.stmt]] = {}
    todo: list[ast.stmt] = []
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                bound.setdefault(stmt.name, []).append(stmt)
                if (module, stmt.name) == ("cli", "main") or stmt.name in api.get(module, set()):
                    todo.append(stmt)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            bound.setdefault(name.id, []).append(stmt)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                todo.append(stmt)
    reached: dict[int, ast.stmt] = {}
    while todo:
        stmt = todo.pop()
        if id(stmt) not in reached:
            reached[id(stmt)] = stmt
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    todo.extend(bound.get(sub.id, []))
    return list(reached.values())


TREES = _trees()
DEFINITIONS = _definitions(TREES, private=False)
PRIVATE_DEFINITIONS = _definitions(TREES, private=True)
README_API = _readme_api()
REACHED = _reached(TREES, README_API)
# the names each reached top-level statement of src/ uses
USES = [(stmt, _names_in(stmt)) for stmt in REACHED]


def test_readme_table_has_a_row_per_module():
    assert set(README_API) == set(TREES) - {"__init__"}


@pytest.mark.parametrize("module, node", DEFINITIONS, ids=[f"{m}.{n.name}" for m, n in DEFINITIONS])
def test_referenced_in_src_or_listed_as_api(module, node):
    assert any(stmt is node for stmt in REACHED), (
        f"{module}.{node.name} is reached from no verb (cli.main) and no name listed as API in README.md; "
        "move it beside the tests or document it"
    )


@pytest.mark.parametrize("module, node", PRIVATE_DEFINITIONS, ids=[f"{m}.{n.name}" for m, n in PRIVATE_DEFINITIONS])
def test_private_referenced_in_src(module, node):
    assert any(stmt is node for stmt in REACHED), (
        f"{module}.{node.name} is reached from no verb (cli.main) and no name listed as API in README.md; "
        "delete it or move it beside the tests"
    )


def _methods(trees) -> list[tuple[str, ast.ClassDef, ast.FunctionDef]]:
    """Every method of a top-level class that is not a dunder."""
    return [
        (module, cls, fn)
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and not (fn.name.startswith("__") and fn.name.endswith("__"))
    ]


METHODS = _methods(TREES)


@pytest.mark.parametrize(
    "module, cls, fn", METHODS, ids=[f"{m}.{c.name}.{f.name}" for m, c, f in METHODS]
)
def test_method_referenced_in_src_or_listed_as_api(module, cls, fn):
    used = any(fn.name in names for stmt, names in USES if stmt is not cls) or any(
        fn.name in _names_in(member) for member in [*cls.decorator_list, *cls.bases, *cls.body] if member is not fn
    )
    assert used or fn.name in README_API.get(module, set()), (
        f"{module}.{cls.name}.{fn.name} is named in no reached code outside its own body and not listed as "
        "API in README.md; move it beside the tests or document it"
    )


def test_listed_api_exists():
    defined = {(module, node.name) for module, node in DEFINITIONS}
    stale = sorted(f"{module}.{name}" for module, names in README_API.items() for name in names
                   if (module, name) not in defined)
    assert not stale


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _defaulted_parameters() -> list[tuple[str, str, int | None, str]]:
    """(qualified name, parameter, positional index at a call site or
    None for keyword-only, name called) per defaulted parameter of a
    function or method not listed as API."""
    api = set().union(*README_API.values())
    out = []
    for module, tree in TREES.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                owned = [(None, top)]
            elif isinstance(top, ast.ClassDef) and top.name not in api:
                owned = [(top, fn) for fn in top.body if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for cls, fn in owned:
                if fn.name in api:
                    continue
                args = fn.args
                positional = args.posonlyargs + args.args
                # a call site passes neither self nor cls
                shift = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
                )
                callee = cls.name if cls is not None and fn.name == "__init__" else fn.name
                qual = ".".join(n for n in (module, cls.name if cls else None, fn.name) if n)
                first = len(positional) - len(args.defaults)
                out += [(qual, a.arg, i - shift, callee) for i, a in enumerate(positional) if i >= first]
                out += [(qual, a.arg, None, callee)
                        for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _calls_by_callee() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node):
                calls.setdefault(_callee(node), []).append(node)
    return calls


CALLS = _calls_by_callee()
DEFAULTED = _defaulted_parameters()


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):  # None: **kwargs
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )


@pytest.mark.parametrize("qual, param, index, callee", DEFAULTED, ids=[f"{q}.{p}" for q, p, _i, _c in DEFAULTED])
def test_defaulted_parameter_passed_in_src(qual, param, index, callee):
    assert any(_passes(call, param, index) for call in CALLS.get(callee, [])), (
        f"no call in src/ passes {qual}'s parameter {param!r}; make it a constant or drop it"
    )
