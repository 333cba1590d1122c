"""Line tracing of the library, without a coverage package.

An opt-in pytest plugin, loaded by name with ``tests`` and ``src`` on the
path::

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It traces the lines the tests run in ``src/coalgpath`` through
``sys.settrace`` and, after the run, prints per module its statements,
those no test runs, and those inside a function that run only outside
``cli.run_command``: code the tests reach and no verb does, each count
followed by its line numbers.  A statement counts as run when a line
event fires on its first line; a statement that compiles to no code (a
docstring, a bare annotation in a function) is not counted.  Tracing
makes the run several times slower.

It is also a ratchet: ``tests/probe_counts.json`` holds two totals, the
statements no test runs (``unrun``) and those no verb runs (``no_verb``:
the unrun ones and those run only outside the verbs), and a run over the
whole suite (no paths on the command line) fails when either total rises
above its entry.  A library test of a statement no test ran moves it from
one kind to the other and so lowers ``unrun`` without raising
``no_verb``.  A change that lowers a total lowers the entry with it.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coalgpath"
COUNTS = Path(__file__).resolve().parent / "probe_counts.json"


def _code_lines(code: types.CodeType) -> set[int]:
    """The lines of ``code`` and of the code nested in it that start an
    instruction: the lines a line event can fire on."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(path: Path) -> tuple[set[int], set[int]]:
    """The first lines of the statements of ``path`` that compile to code,
    and those among them inside a function body."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    code = _code_lines(compile(text, str(path), "exec"))
    every: set[int] = set()
    in_function: set[int] = set()

    def visit(node: ast.AST, in_def: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child.lineno in code:
                every.add(child.lineno)
                if in_def:
                    in_function.add(child.lineno)
            visit(child, in_def or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(tree, False)
    return every, in_function


class LineTracer:
    """Per module, the lines run while ``cli.run_command`` is on the stack
    and the lines run while it is not."""

    def __init__(self) -> None:
        self.paths = {os.path.realpath(p): p for p in sorted(SRC.glob("*.py"))}
        self.inside: dict[Path, set[int]] = {p: set() for p in self.paths.values()}
        self.outside: dict[Path, set[int]] = {p: set() for p in self.paths.values()}
        self.verbs = 0  # run_command frames on the stack
        self._known: dict[str, Path | None] = {}

    def trace(self, frame: types.FrameType, event: str, arg):
        filename = frame.f_code.co_filename
        if filename not in self._known:
            self._known[filename] = self.paths.get(os.path.realpath(filename))
        path = self._known[filename]
        if path is None:
            return None
        inside, outside = self.inside[path], self.outside[path]
        verb = path.stem == "cli" and frame.f_code.co_name == "run_command"
        if verb:
            self.verbs += 1

        def local(frame: types.FrameType, event: str, arg):
            if event == "line":
                (inside if self.verbs else outside).add(frame.f_lineno)
            elif event == "return" and verb:
                self.verbs -= 1
            return local

        return local

    def report(self) -> tuple[list[str], dict[str, int]]:
        """The report's lines, and its unrun and no-verb totals."""
        rows = []
        totals = [0, 0, 0]
        for path in self.paths.values():
            every, in_function = _statements(path)
            run = self.inside[path] | self.outside[path]
            unrun = sorted(every - run)
            outside_only = sorted(in_function & (self.outside[path] - self.inside[path]))
            counts = (len(every), len(unrun), len(outside_only))
            totals = [t + c for t, c in zip(totals, counts)]
            rows.append(f"{path.stem:<12}{counts[0]:>11}{counts[1]:>7}{counts[2]:>14}")
            rows.append(f"  unrun: {' '.join(map(str, unrun)) or '-'}")
            rows.append(f"  outside verbs only: {' '.join(map(str, outside_only)) or '-'}")
        header = f"{'module':<12}{'statements':>11}{'unrun':>7}{'outside verbs':>14}"
        lines = [header, *rows, f"{'total':<12}{totals[0]:>11}{totals[1]:>7}{totals[2]:>14}"]
        return lines, {"unrun": totals[1], "no_verb": totals[1] + totals[2]}


TRACER = LineTracer()
RESULT: list[str] = []


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args) -> None:
    # before the conftest files import the library, so its module-level
    # statements are traced too
    sys.settrace(TRACER.trace)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus) -> None:
    sys.settrace(None)
    lines, totals = TRACER.report()
    RESULT.extend(lines)
    if session.config.args_source is not pytest.Config.ArgsSource.TESTPATHS:
        RESULT.append(f"a run over part of the suite: {COUNTS.name} not checked")
        return
    kept = json.loads(COUNTS.read_text(encoding="utf-8"))
    for key, total in totals.items():
        if total > kept[key]:
            RESULT.append(f"{key} rose from {kept[key]} to {total}: the run fails")
            session.exitstatus = pytest.ExitCode.TESTS_FAILED
        elif total < kept[key]:
            RESULT.append(f"{key} fell from {kept[key]} to {total}: lower it in {COUNTS.name}")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    terminalreporter.section("statements of src/coalgpath the tests do not run")
    for line in RESULT:
        terminalreporter.write_line(line)
