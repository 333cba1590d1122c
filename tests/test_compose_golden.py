"""Golden CLI output for systems over composed functors.

Each case runs one verb on a model under ``fixtures/compose`` and
compares the exact stdout with ``fixtures/compose/<case>.out``.  A
composite is the functor it normalizes to, so these bytes pin what the
verbs print for it.
"""

import pathlib

import pytest

from coalgpath.cli import run_command

COMPOSE = pathlib.Path(__file__).parent / "fixtures" / "compose"

# case name, verb arguments (fixture names are resolved in COMPOSE), exit code
CASES = [
    ("tree-runs", ["runs", "tree.model", "--depth", "2"], 0),
    ("tree-paths", ["paths", "tree.model", "--depth", "1"], 0),
    ("tree-trace", ["trace", "tree.model", "--depth", "3"], 0),
    ("tree-factor", ["precise-factor", "tree.factor"], 0),
    ("tree-open", ["open", "tree_src.model", "tree_dst.model", "tree.map"], 1),
    ("pair-runs", ["runs", "pair.model", "--depth", "2"], 0),
    ("pair-paths", ["paths", "pair.model", "--depth", "1"], 0),
    ("pair-trace", ["trace", "pair.model", "--depth", "3"], 0),
    ("pair-factor", ["precise-factor", "pair.factor"], 0),
    ("pair-open", ["open", "pair_src.model", "pair_dst.model", "pair.map"], 1),
    # compose(prod(const(a b), id), id) is the word functor A x Id
    ("word-runs", ["runs", "word.model", "--depth", "2"], 0),
    ("word-trace", ["trace", "word.model", "--depth", "3"], 0),
    # coprod(prod(const(a b), id), const(ok)) is the word functor A x Id + check
    ("check-runs", ["runs", "check.model", "--depth", "2"], 0),
    ("check-trace", ["trace", "check.model", "--depth", "3"], 0),
    ("tree-runs-ascii", ["--ascii", "runs", "tree.model", "--depth", "2"], 0),
    # the trace-enum benchmark's pair/leaf tree automaton (general trace path)
    ("enum-tree-trace", ["trace", "trace_enum_tree.model", "--depth", "4"], 0),
    # ... and its paths: 138 chains over 94 distinct steps, each step
    # printed in every chain that shares it
    ("enum-tree-paths", ["paths", "trace_enum_tree.model", "--depth", "3"], 0),
    # ... and its runs, the benchmark's own op: 138 composites that share
    # most of their subterms
    ("enum-tree-runs", ["runs", "trace_enum_tree.model", "--depth", "3"], 0),
    # a ternary symmetric symbol: one state's arguments share a pool, whose
    # multisets give its traces; another's come from three distinct states
    ("bag-trace", ["trace", "bag.model", "--depth", "3"], 0),
    # substituting a run's next level into a symmetric symbol reorders
    # its arguments
    ("bag-runs", ["runs", "bag.model", "--depth", "2"], 0),
    # a constant named "p(x, y)" beside the term p(x, y): the two depth-2
    # traces print apart, the constant quoted as the model files write it
    ("quoted-trace", ["trace", "quoted.model", "--depth", "2"], 0),
    # two pointed word systems, one stuck from depth 4 on (word trace path)
    ("twopoint-trace", ["trace", "twopoint.model", "--depth", "6"], 0),
    # level elements are numbered in the string order of their position
    # names: with eleven slots, slot 10 before slot 2
    ("wide-runs", ["runs", "wide.model", "--depth", "2"], 0),
    # ... and sort by sort, not in occurrence order
    ("twosorted-runs", ["runs", "twosorted.model", "--depth", "2"], 0),
    # ... at depth 3, where levels hold two or more elements
    ("twosorted-runs-deep", ["runs", "twosorted.model", "--depth", "3"], 0),
    # the trace-enum benchmark's a/b LTS: every level holds one element,
    # and each (level, state) recurs across runs
    ("enum-lts-runs", ["runs", "trace_enum_lts.model", "--depth", "4"], 0),
    # levels repeat with period 10 on 8 states: the level cap stops at
    # level 9, before the distinct level 10 (a1 b4)
    ("periodic-reach", ["reach", "periodic.model"], 0),
    # the trace-enum benchmark's register automaton (bar strings from words)
    ("enum-rnna", ["rnna", "auto.rnna", "--pool", "4", "--depth", "6"], 0),
    # an initial register: one pointed context per assignment of the pool
    ("context-rnna", ["rnna", "context.rnna", "--pool", "3", "--depth", "5"], 0),
    # a word functor over two sorts (word trace path)
    ("twosorted-word-trace", ["trace", "twosorted_word.model", "--depth", "3"], 0),
    ("twosorted-word-runs", ["runs", "twosorted_word.model", "--depth", "2"], 0),
    # a point in each sort, both named p: each trace line names its point
    # with its sort, so the two points' equal depth-0 lines stay apart
    ("twosorted-points-trace", ["trace", "twosorted_points.model", "--depth", "3"], 0),
    # sort * reads like a word functor, but the sort it leads to does not:
    # both verbs print terms
    ("mixed-runs", ["runs", "mixed.model", "--depth", "2"], 0),
    ("mixed-trace", ["trace", "mixed.model", "--depth", "3"], 0),
    # letters longer than one character: the words ab and a b print apart
    ("multiletter-trace", ["trace", "multiletter.model", "--depth", "2"], 0),
    ("multiletter-runs", ["runs", "multiletter.model", "--depth", "2"], 0),
    # a marker spelt in one glyph but two ASCII letters: under --ascii the
    # marker word ok and the word o k print apart
    ("okmarker-trace-ascii", ["--ascii", "trace", "okmarker.model", "--depth", "2"], 0),
    # the trace-enum benchmark's category, the 5-object chain
    ("lasota-chain", ["lasota", "../chain.cat", "--depth", "3"], 0),
    # an open-map witness over two sorts: path elements are named in
    # occurrence order (n001 is as1), extension elements in the sorted
    # order of the shape's variables (w001 is bs1)
    ("twosorted-open", ["open", "twosorted.model", "twosorted_open_dst.model", "twosorted.map"], 1),
    # ... and with eleven slots, n010 is the last slot, unlike in runs
    ("wide-open", ["open", "wide_open_src.model", "wide_open_dst.model", "wide.map"], 1),
    # a pointed element and states whose names hold spaces print quoted,
    # as the model files write them, in every verb; the one-letter word
    # "a b" prints apart from the two-letter word a b
    ("quotednames-trace", ["trace", "quotednames.model", "--depth", "2"], 0),
    ("quotednames-runs", ["runs", "quotednames.model", "--depth", "2"], 0),
    ("quotednames-paths", ["paths", "quotednames.model", "--depth", "1"], 0),
    ("quotednames-reach", ["reach", "quotednames.model"], 0),
    ("quotednames-open", ["open", "quotednames.model", "quotednames_dst.model", "quotednames.map"], 1),
    # states named p and q in both sorts: reach and runs write each as
    # sort.name, as [init] and [trans] do, in the order of name, then sort
    ("sharednames-reach", ["reach", "sharednames.model"], 0),
    ("sharednames-runs", ["runs", "sharednames.model", "--depth", "2"], 0),
    # points named p in both sorts whose terms put a variable of sort a
    # at one position: each position is named after its point's sort,
    # (a.p;0.1) beside (b.p;0.1), and runs, paths and precise-factor
    # write each point as sort.name
    ("sharedpoints-runs", ["runs", "sharedpoints.model", "--depth", "2"], 0),
    ("sharedpoints-paths", ["paths", "sharedpoints.model", "--depth", "1"], 0),
    ("sharedpoints-factor", ["precise-factor", "sharedpoints.factor"], 0),
    # a domain element named "a.p" beside p in two sorts: the labels
    # qualified by shared name alone would meet, so every element is
    # labelled sort.name
    ("sharedlabels-factor", ["precise-factor", "sharedlabels.factor"], 0),
    # open writes the failing state, the pointed elements and the target
    # run's states as reach and runs do, a.p and b.p
    ("sharednames-open", ["open", "sharednames.model", "sharednames_dst.model", "sharednames.map"], 1),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv, code):
    resolved = [str(COMPOSE / a) if (COMPOSE / a).is_file() else a for a in argv]
    text, got = run_command(resolved)
    assert got == code
    assert text == (COMPOSE / f"{name}.out").read_text(encoding="utf-8")
