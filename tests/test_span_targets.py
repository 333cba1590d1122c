"""Every function the per-layer benchmark spans or counts still exists.

``perfbench/spans.py`` names its targets as (module, attribute path)
pairs and patches them at run time; a target that a refactor moved or
renamed would silently drop out of the per-layer figures.  The file is
read as text, never imported.
"""

import ast
import importlib
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets() -> dict[str, tuple]:
    found = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("SPAN_TARGETS", "COUNT_TARGETS"):
                found[node.targets[0].id] = ast.literal_eval(node.value)
    return found


TARGETS = _targets()
SPAN_NAMES = {f"{module}.{attr.removesuffix('.__init__')}" for module, attr in TARGETS["SPAN_TARGETS"]}


@pytest.mark.parametrize(
    "module, attr",
    [*TARGETS["SPAN_TARGETS"], *((module, attr) for module, attr, _key, _inside in TARGETS["COUNT_TARGETS"])],
    ids=lambda value: value,
)
def test_target_resolves(module, attr):
    obj = importlib.import_module(f"coalgpath.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("inside", [inside for *_rest, inside in TARGETS["COUNT_TARGETS"] if inside is not None])
def test_count_is_split_by_a_spanned_function(inside):
    assert inside in SPAN_NAMES
