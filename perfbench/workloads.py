"""Seeded inputs and expected answers for the three benchmark workloads.

Every workload is a fixed cycle of CLI invocations (ops) over model files
generated here from the benchmark seed.  Each op carries a check built
from what this module knows about its own inputs, never from the library
under test: open-check verdicts follow from how the maps are built, LTS
words come from a breadth-first search over the generated edges, run,
path and sequence counts come from closed-form recurrences.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

Check = Callable[[str, int], "str | None"]


@dataclass(frozen=True)
class Op:
    """One ``run_command(argv)`` call and the check its result must pass."""

    name: str
    argv: tuple[str, ...]
    check: Check

    @property
    def kind(self) -> str:
        """The op without its round: harness ops ``lts#0``, ``lts#1``, ...
        run the same verb on the same functor with other seeds."""
        return self.name.split("#")[0]


@dataclass(frozen=True)
class Workload:
    name: str
    files: dict[str, str]  # path relative to the work directory -> text
    ops: tuple[Op, ...]    # one cycle, in order
    warmup: str            # name of the op run once, untimed, before timing

    def op(self, name: str) -> Op:
        return next(op for op in self.ops if op.name == name)


def _expect(code: int, lines: list[str] | None = None, last: str | None = None,
            contains: tuple[str, ...] = (), line_count: int | None = None) -> Check:
    def check(out: str, got: int) -> str | None:
        if got != code:
            return f"exit {got}, expected {code}"
        if lines is not None and out.splitlines() != lines:
            return "output differs from the expected lines"
        if line_count is not None and len(out.splitlines()) != line_count:
            return f"{len(out.splitlines())} lines, expected {line_count}"
        if last is not None and (not out.splitlines() or out.splitlines()[-1] != last):
            return f"last line is not {last!r}"
        for needle in contains:
            if needle not in out:
                return f"output lacks {needle!r}"
        return None

    return check


def _model(functor: str, states: list[str], init: str, trans: list[tuple[str, str]]) -> str:
    lines = ["[functor]", functor, "", "[states]", " ".join(states), "", "[init]", f"* -> {init}", "", "[trans]"]
    lines.extend(f"{x} -> {t}" for x, t in trans)
    return "\n".join(lines) + "\n"


def _map_file(pairs: list[tuple[str, str]]) -> str:
    return "[map]\n" + "".join(f"{x} -> {y}\n" for x, y in pairs)


# ---------------------------------------------------------------------------
# open-check

# (label, functor text, state count, transition kinds as (symbol, arity)).
# Sizes are fixed so that the cost of a cycle does not depend on the seed:
# is_open's work grows with states x states^arity, whatever the edges.
# They also keep every op short (10-700 ms), so that each op repeats often
# in one run, and keep the op costs around the median apart: the median op
# is the tree identity, whose cost depends least on the seed, between the
# binary identity and the binary fold.
OPEN_SYSTEMS = (
    ("binary", "prod(id, id)", 22, ((None, 2),)),
    ("ternary", "prod(id, id, id)", 13, ((None, 3),)),
    ("tree", "analytic{ pair/2 [(1 2)] ; tri/3 [(1 2 3)] ; leaf/0 }", 9,
     (("pair", 2), ("tri", 3), ("leaf", 0))),
)


def _term_text(symbol: str | None, args: list[str]) -> str:
    if symbol is None:
        return "(" + ", ".join(args) + ")"
    return symbol if not args else f"{symbol}({', '.join(args)})"


def _base_system(rng: random.Random, n: int, kinds) -> list[list[tuple[str | None, tuple[int, ...]]]]:
    """Per state, three distinct transitions as (symbol, successor indices):
    one of each kind when there are three kinds, else three of the one kind.

    State i's first transition has i+1 among its successors, so every state
    is reachable from state 0.  Symmetric symbols are stored with sorted
    arguments (pair) or rotated to the least rotation (tri) so that two
    stored transitions never denote the same term.
    """
    def normal(symbol, args):
        if symbol == "pair":
            return tuple(sorted(args))
        if symbol == "tri":
            return min(args[k:] + args[:k] for k in range(3))
        return args

    shapes = kinds if len(kinds) == 3 else kinds * 3
    states = []
    for i in range(n):
        out: list = []
        for symbol, arity in shapes:
            while True:
                args = tuple(rng.randrange(n) for _ in range(arity))
                if not out:
                    args = ((i + 1) % n,) + args[1:]
                cand = (symbol, normal(symbol, args))
                if cand not in out:
                    break
            out.append(cand)
        states.append(out)
    return states


def open_check(seed: int) -> Workload:
    rng = random.Random(f"open-check/{seed}")
    files: dict[str, str] = {}
    ops: list[Op] = []
    for label, functor_text, n, kinds in OPEN_SYSTEMS:
        base = _base_system(rng, n, kinds)
        d_name = [f"s{i:02d}" for i in range(n)]
        d_trans = [(d_name[i], _term_text(sym, [d_name[j] for j in args]))
                   for i, ts in enumerate(base) for sym, args in ts]
        files[f"{label}-d.model"] = _model(functor_text, d_name, d_name[0], d_trans)
        files[f"{label}-id.map"] = _map_file([(x, x) for x in d_name])
        # two copies a/b of every state; each lifts each transition once,
        # picking a copy per successor, so the fold a_i, b_i -> s_i is strict
        copy = {c: [f"{c}{i:02d}" for i in range(n)] for c in "ab"}
        s_trans = []
        for c in "ab":
            for i, ts in enumerate(base):
                for sym, args in ts:
                    s_trans.append((copy[c][i], _term_text(sym, [copy["ab"[rng.randrange(2)]][j] for j in args])))
        s_states = copy["a"] + copy["b"]
        files[f"{label}-s.model"] = _model(functor_text, s_states, copy["a"][0], s_trans)
        files[f"{label}-fold.map"] = _map_file([(copy[c][i], d_name[i]) for c in "ab" for i in range(n)])
        # drop one transition of the pointed state: still lax, no longer strict
        pointed = [k for k, (x, _t) in enumerate(s_trans) if x == copy["a"][0]]
        dropped = pointed[rng.randrange(len(pointed))]
        files[f"{label}-s-drop.model"] = _model(
            functor_text, s_states, copy["a"][0], s_trans[:dropped] + s_trans[dropped + 1:])
        ops.append(Op(f"{label}/identity", ("open", f"{label}-d.model", f"{label}-d.model", f"{label}-id.map"),
                      _expect(0, lines=[f"verdict: open (bound {n + 1})"])))
        ops.append(Op(f"{label}/fold", ("open", f"{label}-s.model", f"{label}-d.model", f"{label}-fold.map"),
                      _expect(0, lines=[f"verdict: open (bound {2 * n + 1})"])))
        ops.append(Op(f"{label}/drop", ("open", f"{label}-s-drop.model", f"{label}-d.model", f"{label}-fold.map"),
                      _expect(1, contains=(f"verdict: not-open (bound {2 * n + 1})\n"
                                           f"reason: no lift at state {copy['a'][0]} for shape ",
                                           "witness square:"))))
    return Workload("open-check", files, tuple(ops), warmup="binary/drop")


# ---------------------------------------------------------------------------
# harness

# (label, functor text, whether verify also compares traces); traces only
# for the word-shaped functors, whose trace sets stay small at every seed
HARNESS_FUNCTORS = (
    ("lts", "prod(const(a b), id)", True),
    ("lts-ok", "coprod(prod(const(a b), id), const(ok))", True),
    ("binary", "prod(id, id)", False),
    ("pair-tree", "analytic{ pair/2 [(1 2)] ; leaf/0 }", False),
    ("const-or-binary", "coprod(const(c), prod(id, id))", False),
)


# verify's own random systems make one op's cost depend on its --seed
# (5-12% between seeds); a cycle of ten rounds averages that out, so a
# cycle, and each functor's share of it, costs about the same for every
# benchmark seed
HARNESS_ROUNDS = 10


def harness(seed: int) -> Workload:
    rng = random.Random(f"harness/{seed}")
    ops = []
    for round_index in range(HARNESS_ROUNDS):
        for label, functor_text, traces in HARNESS_FUNCTORS:
            argv = ["verify", "--functor", functor_text, "--trials", "100",
                    "--seed", str(rng.randrange(10**6)), "--states", "5"]
            if traces:
                argv.append("--traces")
            ops.append(Op(f"{label}#{round_index}", tuple(argv), _expect(0, last="all passed (100 trials)")))
    return Workload("harness", {}, tuple(ops), warmup="lts#0")


# ---------------------------------------------------------------------------
# trace-enum

def _lts_bfs_words(edges: dict[str, list[tuple[str, str]]], init: str, depth: int) -> list[str]:
    """Every label word of length <= depth along the edges from init."""
    words = {""}
    frontier = {"": {init}}
    for _ in range(depth):
        nxt: dict[str, set[str]] = {}
        for word, states in frontier.items():
            for x in states:
                for label, y in edges[x]:
                    nxt.setdefault(word + label, set()).add(y)
        words.update(nxt)
        frontier = nxt
    return sorted(words)


def _run_count(children: dict[str, list[list[str]]], init: str, depth: int) -> int:
    """Runs of length <= depth from a single pointed state.

    A level element either stops (the added point) or takes one of its
    transitions, whose successor occurrences form the next level; a level
    continues exactly when each of its elements does, so counts multiply.
    """
    per_state = {x: 1 for x in children}
    total = 1
    for _ in range(depth):
        per_state = {x: 1 + sum(math.prod(per_state[y] for y in succ) for succ in ts)
                     for x, ts in children.items()}
        total += per_state[init]
    return total


def _path_count(var_counts: list[int], depth: int) -> int:
    """Paths of length <= depth out of one element, for a step functor whose
    shapes (added point included) have the given numbers of fresh variables."""
    per_element = 1
    total = 1
    for _ in range(depth):
        per_element = sum(per_element ** k for k in var_counts)
        total += per_element
    return total


def trace_enum(seed: int) -> Workload:
    rng = random.Random(f"trace-enum/{seed}")
    files: dict[str, str] = {}
    ops: list[Op] = []

    # a complete a/b LTS on five states: an a-edge, a b-edge and one more
    # edge per state, so trace and run counts do not depend on the seed
    states = [f"q{i}" for i in range(5)]
    edges = {}
    for x in states:
        out = {("a", rng.choice(states)), ("b", rng.choice(states))}
        while len(out) < 3:
            out.add((rng.choice("ab"), rng.choice(states)))
        edges[x] = sorted(out)
    files["lts.model"] = _model("prod(const(a b), id)", states, "q0",
                                [(x, f"({a}, {y})") for x in states for a, y in edges[x]])
    depth = 9
    words = _lts_bfs_words(edges, "q0", depth)
    ops.append(Op("trace/lts", ("trace", "lts.model", "--depth", str(depth)),
                  _expect(0, lines=["ε" if w == "" else w for w in words])))
    run_depth = 6
    lts_children = {x: [[y] for _a, y in edges[x]] for x in states}
    ops.append(Op("runs/lts", ("runs", "lts.model", "--depth", str(run_depth)),
                  _expect(0, last=f"{_run_count(lts_children, 'q0', run_depth)} runs")))

    # a tree automaton over a symmetric pair and a leaf: one pair and one
    # leaf transition per state, so every state has the same traces, and
    # depth d has 1 + k(k+1)/2 of them for k at depth d-1 (leaf, or an
    # unordered pair of shallower traces)
    tstates = [f"t{i}" for i in range(4)]
    tree: dict[str, list[list[str]]] = {
        x: [[], sorted((tstates[(i + 1) % 4], rng.choice(tstates)))] for i, x in enumerate(tstates)
    }
    files["tree.model"] = _model(
        "analytic{ pair/2 [(1 2)] ; leaf/0 }", tstates, "t0",
        [(x, _term_text("pair" if args else "leaf", args)) for x in tstates for args in tree[x]])
    per_depth = [1]
    for _ in range(5):
        per_depth.append(1 + per_depth[-1] * (per_depth[-1] + 1) // 2)
    ops.append(Op("trace/tree", ("trace", "tree.model", "--depth", "5"), _expect(0, line_count=sum(per_depth))))
    ops.append(Op("runs/tree", ("runs", "tree.model", "--depth", "3"),
                  _expect(0, last=f"{_run_count(tree, 't0', 3)} runs")))
    # shapes of pair+leaf+1: pair (2 fresh), leaf and the added point (0 each)
    ops.append(Op("paths/tree", ("paths", "tree.model", "--depth", "3"),
                  _expect(0, last=f"{_path_count([2, 0, 0], 3)} paths")))

    # the category encoding of a chain poset
    chain = 5
    objects = [str(i) for i in range(chain)]
    mors = [(f"id{i}" if i == j else f"m{i}{j}", str(i), str(j)) for i in range(chain) for j in range(i, chain)]
    cat = ["[objects]", " ".join(objects), "", "[initial]", "0", "", "[morphisms]"]
    cat += [f"{m} : {d} -> {c}" for m, d, c in sorted(mors)]
    cat += ["", "[identities]"] + [f"{i} : id{i}" for i in objects] + ["", "[composition]"]
    comp = []
    for g, gd, gc in mors:
        for f, fd, fc in mors:
            if fc == gd:
                comp.append(f"{g} o {f} = " + (f"id{fd}" if fd == gc else f"m{fd}{gc}"))
    files["chain.cat"] = "\n".join(cat + sorted(comp)) + "\n"
    cat_depth = 3
    # composable sequences of length n from object 0: non-decreasing object walks
    counts = [math.comb(chain - 1 + n, n) for n in range(cat_depth + 1)]
    ops.append(Op("lasota/chain", ("lasota", "chain.cat", "--depth", str(cat_depth)),
                  _expect(0, last="bijection: ok",
                          contains=tuple(f"length {n}: paths {c} sequences {c}\n" for n, c in enumerate(counts)))))

    # a register automaton: bind, read back, optionally accept
    files["auto.rnna"] = (
        "[states]\nq0/0 q1/1 q2/2\n\n[init]\nq0\n\n[rules]\n"
        "q0 -> bar q1 [0]\nq1 -> reg(1) q1 [1]\nq1 -> bar q2 [1 0]\n"
        "q2 -> reg(2) q1 [2]\nq2 -> reg(1) q2 [1 2]\nq2 -> ok\n"
    )
    pool = 4
    # register tuples are injective: q0 has 1, q1 pool, q2 pool*(pool-1)
    n_states = 1 + pool + pool * (pool - 1)
    ops.append(Op("rnna/pool4", ("rnna", "auto.rnna", "--pool", str(pool), "--depth", "6"),
                  _expect(0, contains=(f"states: {n_states}\n",))))
    return Workload("trace-enum", files, tuple(ops), warmup="lasota/chain")


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "open-check": open_check,
    "harness": harness,
    "trace-enum": trace_enum,
}
