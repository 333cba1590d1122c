"""Hand mutants of the library, each of which its tests must kill.

Each mutant names a module of ``src/coalgpath``, a text that occurs in it
exactly once, the text that replaces it, and the test files that should
fail on the result.  The runner applies each mutant to a fresh copy of
``src/`` in a temporary directory and runs its test files there with
``PYTHONPATH=<copy>/src:tests``.  A mutant whose tests pass survives.
Run it from the root of the repository::

    python tests/mutants.py

It exits 1 when a mutant survives that ``EQUIVALENT`` does not name with
the reason no test can tell it from the library, when an old text does
not occur exactly once, or when the tests cannot run; 0 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # a run that breaks the transition condition still counts as a run
    Mutant("is-run-always-true", "paths.py",
           "    p, c = r.path, r.target\n", "    return True\n", ("tests/test_paths.py",)),
    # an ill-formed path validates
    Mutant("validate-path-always-empty", "paths.py",
           "    problems: list[str] = []\n    if len(p.levels)", "    return []\n    if len(p.levels)",
           ("tests/test_paths.py",)),
    # the harness never compares the traces of an open map's ends
    Mutant("harness-traces-clause-off", "openmap.py",
           "    if check_traces and report.is_open", "    if False and report.is_open", ("tests/test_openmap.py",)),
    # the lasota check never compares paths with sequences
    Mutant("bijection-paths-vs-sequences-off", "lasota.py",
           "        if paths != seqs:", "        if False:", ("tests/test_lasota.py",)),
    # the lasota check ignores where precise and characteristic differ
    Mutant("bijection-precise-mismatches-ignored", "lasota.py",
           "    mismatches = _precise_iff_characteristic(f)", "    mismatches = []",
           ("tests/test_lasota.py",)),
    # a shape without leaves passes the precise-iff-characteristic criterion
    Mutant("leafless-shapes-pass-the-criterion", "lasota.py",
           "            if n != 1:", "            if n > 1:", ("tests/test_lasota.py",)),
    # the harness report passes whatever its trials' clauses say
    Mutant("all-passed-ignores-clauses", "openmap.py",
           "        return not any(r.clauses for r in self.results)", "        return True",
           ("tests/test_openmap.py",)),
    # a failed trial prints as passed
    Mutant("failed-trial-prints-pass", "openmap.py",
           "f\"trial {index}: FAIL {'; '.join(r.clauses)}\" if r.clauses else ", "",
           ("tests/test_openmap.py",)),
    # the trial count is read from somewhere other than the results
    Mutant("trial-count-off-by-one", "openmap.py",
           "({len(self.results)} trials)", "({len(self.results) + 1} trials)", ("tests/test_cli.py",)),
    # the lasota verb prints the bijection ok despite mismatches
    Mutant("bijection-ok-despite-mismatches", "cli.py",
           'yield "bijection: FAIL" if report.mismatches else "bijection: ok"', 'yield "bijection: ok"',
           ("tests/test_lasota.py",)),
    # the lasota verb exits 0 despite mismatches
    Mutant("lasota-exits-zero-despite-mismatches", "cli.py",
           "    return 1 if report.mismatches else 0", "    return 0", ("tests/test_lasota.py",)),
    # a witness is replayed against its extension where its path belongs
    Mutant("replay-reads-the-extension-as-the-path", "openmap.py",
           "    path = w.run.path\n", "    path = w.extension\n", ("tests/test_openmap.py",)),
    # precise-factor prints the given codomain, not the factorization's
    Mutant("factor-prints-the-given-codomain", "cli.py",
           "    codomain = fac.precise.cod\n", "    codomain = f.cod\n", ("tests/test_compose_golden.py",)),
    # a composite value is interned under its step term alone, not the
    # values at its leaves, so two paths sharing a step term share a value
    Mutant("comp-interns-without-the-leaves", "paths.py",
           "            ids = tuple([id(current[leaf]) for leaf in kept[0]])\n", "            ids = ()\n",
           ("tests/test_paths.py",)),
    # a name whose text before its first dot is a sort prints bare
    Mutant("dotted-name-rule-off", "precise.py",
           ' or "." in e and e.partition(".")[0] in prefixes', "",
           ("tests/test_precise.py", "tests/test_compose_golden.py")),
    # a name that is a sort, with no dot, is qualified too
    Mutant("dotted-name-rule-without-its-dot", "precise.py",
           ' "." in e and e.partition(".")[0] in prefixes', " e.partition(\".\")[0] in prefixes",
           ("tests/test_precise.py", "tests/test_compose_golden.py")),
    # associativity is checked past an ill-typed composite
    Mutant("associativity-past-ill-typed-composites", "lasota.py",
           '    if any(v.kind == "typing" for v in problems):', "    if False:", ("tests/test_cli.py",)),
    # the flat [trans] route reads a slot's name without its alias
    Mutant("flat-route-skips-aliases", "modelio.py",
           "if self.carrier.has(slot, name := _elem([tok], 0, None)):",
           "if self.carrier.has(slot, name := _name([tok], 0, None)):", ("tests/test_caches.py",)),
    # the flat [trans] route takes any name for a state
    Mutant("flat-route-skips-the-carrier", "modelio.py",
           "if self.carrier.has(slot, name := _elem([tok], 0, None)):", "if (name := _elem([tok], 0, None)):",
           ("tests/test_caches.py",)),
    # the flat [trans] route keeps a symbol's arguments in the order written
    Mutant("flat-route-skips-canonical-order", "modelio.py",
           "ansym(sym.group, sym.name, args)", "AnSym(sym.name, tuple(args))", ("tests/test_caches.py",)),
    # the flat [trans] route reads a line of the wrong length
    Mutant("flat-route-skips-the-length", "modelio.py",
           "if len(tokens) == size and tokens[at - 1::2] == marks:", "if tokens[at - 1::2] == marks:",
           ("tests/test_caches.py",)),
    # a set lists its (sort, element) pairs with the sorts in another order
    Mutant("pairs-in-another-sort-order", "sets.py",
           "for sort, elems in zip(sorts, data) for e in elems]",
           "for sort, elems in zip(sorts[::-1], data[::-1]) for e in elems]", ("tests/test_caches.py",)),
    # the not-open reason writes the shape before the state
    Mutant("reason-shape-before-state", "openmap.py",
           'return f"no lift at state {_state_names(self.witness.run.target.carrier)[s, v]} for shape {shape!r}"',
           'return f"no lift for shape {shape!r} at state {_state_names(self.witness.run.target.carrier)[s, v]}"',
           ("tests/test_openmap.py",)),
    # a witness whose extension changes an earlier step of its path replays
    Mutant("replay-skips-the-path-steps", "openmap.py",
           "        or w.extension.steps[:n] != path.steps\n", "", ("tests/test_openmap.py",)),
    # a system takes a sorted list of terms where a tuple belongs
    Mutant("term-order-check-takes-a-list", "coalgebra.py",
           "not isinstance(terms, tuple) or ", "", ("tests/test_caches.py",)),
    # two files share a signature on their [functor] lines alone
    Mutant("signature-key-without-the-sorts", "modelio.py",
           "@functools.lru_cache(maxsize=32)\ndef _signature(",
           "def _signature(sort_lines, section, _kept={}):\n"
           "    if section not in _kept:\n"
           "        _kept[section] = _signature_of(sort_lines, section)\n"
           "    return _kept[section]\n\n\ndef _signature_of(",
           ("tests/test_caches.py",)),
    # the flat [trans] table fills in a state named by an alias word
    Mutant("flat-fill-ignores-aliases", "modelio.py",
           "if key[1] not in ALIASES and NAME_RE.fullmatch(key[1]):", "if NAME_RE.fullmatch(key[1]):",
           ("tests/test_caches.py",)),
    # a model file that is not UTF-8 ends in a traceback
    Mutant("read-lets-decode-errors-through", "cli.py",
           "    except UnicodeDecodeError as exc:\n", "    except UnicodeDecodeError as exc:\n        raise\n",
           ("tests/test_cli.py",)),
    # a [states] line that names an element twice is read
    Mutant("states-duplicate-set-never-filled", "modelio.py",
           "            seen.add((sort, name))\n", "", ("tests/test_modelio.py",)),
    # a [sorts] line that names a sort twice is read
    Mutant("sorts-duplicate-check-off", "modelio.py",
           "            if _sort_name(sort, lineno) in known:\n", "            if not _sort_name(sort, lineno):\n",
           ("tests/test_modelio.py",)),
    # a set's one-pass order check lets a duplicate element through
    Mutant("set-order-check-takes-duplicates", "sets.py",
           "all(map(operator.lt, elems, elems[1:]))", "all(map(operator.le, elems, elems[1:]))",
           ("tests/test_caches.py",)),
    # a harness map handed to the trusted constructor misses a state
    Mutant("random-map-misses-a-state", "openmap.py",
           "    for (s, x) in src.carrier.pairs():\n        pool = dst.carrier.elems(s)\n",
           "    for (s, x) in src.carrier.pairs()[1:]:\n        pool = dst.carrier.elems(s)\n",
           ("tests/test_caches.py",)),
    # a system takes point entries outside its pointing
    Mutant("point-table-extra-keys-taken", "coalgebra.py",
           "        if len(self.point) != self.pointing.size():\n", "        if False:\n", ("tests/test_caches.py",)),
    # a system takes xi entries outside its carrier
    Mutant("xi-table-extra-keys-taken", "coalgebra.py",
           "        if len(self.xi) != self.carrier.size():\n", "        if False:\n", ("tests/test_caches.py",)),
    # the word walk counts a depth at which some pointed element has no word
    Mutant("word-walk-counts-dead-depths", "trace.py",
           "        if not all(nxt or done or x in marked for x, (done, nxt) in level.items()):\n            break\n",
           "", ("tests/test_trace.py",)),
    # the word walk forgets that a marker word counts at every deeper depth
    Mutant("word-walk-drops-marker-liveness", "trace.py",
           "if not all(nxt or done or x in marked for", "if not all(nxt or done for", ("tests/test_trace.py",)),
    # the trace table joins its orbit runs without testing that they meet
    # nowhere and follow term order
    Mutant("table-joins-runs-untested", "trace.py",
           "if seen is None and (not run or not joined or joined[-1] < run[0]):",
           "if seen is None:", ("tests/test_trace.py",)),
    # the word routes read the default sort alone, not the pointed sorts
    Mutant("word-route-skips-pointed-sorts", "functors.py",
           "    return isinstance(node, Prod) and letter_labelled(f, [DEFAULT_SORT, *sorts])\n",
           "    return isinstance(node, Prod) and letter_labelled(f, [DEFAULT_SORT])\n", ("tests/test_trace.py",)),
    # a functor takes a sort leaf that names no sort of it
    Mutant("functor-takes-unknown-sort-leaves", "functors.py",
           "            if isinstance(node, SortRef) and node.sort not in self.sorts:\n"
           "                raise TermError(f\"expression refers to unknown sort {node.sort!r}\")\n",
           "", ("tests/test_functors.py",)),
]

# mutants no test can kill, by name, with the reason
EQUIVALENT: dict[str, str] = {}


def run(mutant: Mutant) -> str:
    """``"killed"`` or ``"survived"``, or why the mutant could not run."""
    source = ROOT / "src" / "coalgpath" / mutant.module
    text = source.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return f"error: the old text occurs {text.count(mutant.old)} times in {mutant.module}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        (copy / "coalgpath" / mutant.module).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": f"{copy}{os.pathsep}{ROOT / 'tests'}", "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run(
            [sys.executable, "-c", "import coalgpath; print(coalgpath.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip()
        if not Path(where).resolve().is_relative_to(copy.resolve()):
            return f"error: the tests import coalgpath from {where or 'nowhere'}, not from the copy"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            env=env, cwd=ROOT, capture_output=True, text=True,
        )
    # pytest exits 0 when every test passed and 1 when some test failed
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    return f"error: pytest exited {done.returncode}: {(done.stdout + done.stderr).strip().splitlines()[-1:]}"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        outcome = run(mutant)
        if outcome == "survived" and mutant.name in EQUIVALENT:
            outcome = f"equivalent: {EQUIVALENT[mutant.name]}"
        elif outcome != "killed":
            bad += 1
        print(f"{mutant.name}: {outcome}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} survived or failed to run")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
