"""Command-line surface: deterministic, sorted output, exit codes
0 = success / verification passed, 1 = property failure, 2 = usage or
parse error."""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Callable, Generator

from .coalgebra import CoalgMorphism, GenSpec, PointedCoalgebra, is_lax_hom, is_strict_hom
from .functors import BOT, DEFAULT_SORT, functor, print_term, read_letter, word_route, word_separator
from .lasota import paths_bijection_check, validate_category
from .modelio import (
    GLYPH_ASCII,
    _key,
    _state_names,
    format_name,
    parse_category,
    parse_coalgebra,
    parse_factor_problem,
    parse_map,
    parse_functor_text,
    parse_rnna,
    print_term_for,
)
from .nominal import AtomPool, bar_trace, print_canonical, rnna_expand
from .openmap import is_open, is_reachable_no_proper_sub, reachable_bfs, verify_theorems, witness_ends, witness_steps
from .paths import comp, comps_are_words, enumerate_runs
from .precise import is_precise, precise_chains, precise_factorize
from .sets import CoalgError
from .trace import lts_language, trace


def _deglyph(text: str) -> str:
    """``text`` with the glyphs replaced by their ASCII aliases."""
    for glyph, alias in GLYPH_ASCII.items():
        text = text.replace(glyph, alias)
    return text


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing leaves it as it was.
    Each verb's ``run`` is the generator function that runs it."""
    parser = argparse.ArgumentParser(prog="coalgpath", add_help=True)
    parser.add_argument("--ascii", action="store_true", help="print ASCII aliases for glyphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(run: Callable[..., _Lines], name: str, text: str, *files: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(run=run)
        for file in files:
            p.add_argument(file)
        return p

    verb(_precise_factor, "precise-factor", "factorize a map through a precise one", "file")
    verb(_paths, "paths", "enumerate path objects for a system's functor", "file").add_argument(
        "--depth", type=int, required=True)
    verb(_runs, "runs", "enumerate runs of a system", "file").add_argument("--depth", type=int, required=True)
    verb(_trace, "trace", "bounded trace set of a system", "file").add_argument("--depth", type=int, required=True)
    verb(_reach, "reach", "reachability analysis of a system", "file")
    verb(_hom, "hom", "check a carrier map for (strict) homomorphism", "src", "dst", "mapfile")
    verb(_open, "open", "check a carrier map for openness", "src", "dst", "mapfile").add_argument(
        "--bound", type=int, default=0)

    p = verb(_verify, "verify", "randomized theorem harness")
    p.add_argument("--functor", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--traces", action="store_true")

    verb(_lasota, "lasota", "category encoding checks", "file").add_argument("--depth", type=int, default=3)

    p = verb(_rnna, "rnna", "expand a register automaton and trace it", "file")
    p.add_argument("--pool", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    return parser


def run_command(argv: list[str]) -> tuple[str, int]:
    """Execute one verb; returns (stdout text, exit code).  An error
    discards the lines the verb yielded before it: the text is then its
    one ``error:`` line."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return "", 2 if exc.code not in (0, None) else 0

    out: list[str] = []
    try:
        for option in ("depth", "bound"):
            if getattr(args, option, 0) < 0:
                raise CoalgError(f"{option} must be non-negative")
        lines = args.run(args)
        while True:
            out.append(next(lines))
    except StopIteration as stop:
        code = stop.value
    except CoalgError as exc:
        return f"error: {exc}\n", 2
    except RecursionError as exc:
        return f"error: terms nest too deeply: {exc}\n", 2
    text = "\n".join(out) + ("\n" if out else "")
    return (_deglyph(text) if args.ascii else text), code


def _read(path: str) -> str:
    """The text of the file at ``path``; ``splitlines`` in every reader
    breaks lines at ``\r\n`` and ``\r`` as universal newlines do."""
    try:
        with open(path, "rb") as file:
            return file.read().decode("utf-8")
    except OSError as exc:
        raise CoalgError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise CoalgError(f"{path!r} is not UTF-8 (byte {exc.start}: {exc.reason})") from None


# each verb below yields its output lines and returns its exit code
_Lines = Generator[str, None, int]


def _precise_factor(args: argparse.Namespace) -> _Lines:
    f = parse_factor_problem(_read(args.file))
    fac = precise_factorize(f)
    codomain = fac.precise.cod
    yield f"precise: {'yes' if is_precise(f) else 'no'}"
    yield "[codomain]"
    for s in codomain.sorts:
        elems = " ".join(map(format_name, codomain.elems(s)))
        yield f"{s} : {elems}" if len(codomain.sorts) > 1 else elems
    yield "[precise-map]"
    dom = _state_names(f.dom)
    for (s, x) in f.dom.pairs():
        yield f"{dom[s, x]} -> {print_term_for(f.functor, s, fac.precise(s, x))}"
    yield "[connecting]"
    cod = _state_names(f.cod)
    for (s, y) in codomain.pairs():
        yield f"{format_name(y)} -> {cod[s, fac.connect(s, y)]}"
    return 0


def _paths(args: argparse.Namespace) -> _Lines:
    system = parse_coalgebra(_read(args.file))
    fp1 = system.functor.plus1
    texts: dict = {}  # steps share their term objects: each prints once for the call
    # only level 0, the pointing, can hold a name in two sorts
    point = _state_names(system.pointing)
    # the first chain is the empty one, so count is always bound
    for count, chain in enumerate(precise_chains(fp1, system.pointing, args.depth)):
        yield f"path {count}: length {len(chain)}"
        for k, step in enumerate(chain):
            for s, e in step.dom.pairs():
                elem = point[s, e] if k == 0 else format_name(e)
                yield f"  {k} : {elem} -> {print_term_for(fp1, s, step(s, e), texts)}"
    yield f"{count + 1} paths"
    return 0


def _runs(args: argparse.Namespace) -> _Lines:
    system = parse_coalgebra(_read(args.file))
    if comps_are_words(system.functor, system.pointing):
        return (yield from _word_runs(system, args.depth, word_separator(
            system.functor, GLYPH_ASCII if args.ascii else None)))
    f = system.functor
    fp1 = f.plus1
    state = _state_names(system.carrier)
    # only level 0, the pointing, can hold a name in two sorts; the names
    # of every later level are bare
    point = _state_names(system.pointing)
    # the composite lists the pointed elements by (sort, name)
    pairs = system.pointing.pairs()
    heads = [(i, pairs[i][0]) for i in sorted(range(len(pairs)), key=pairs.__getitem__)]
    # runs come depth first, each extending the last run one level
    # shorter: states[k] holds the k:e->x states of levels 0..k of the
    # last run
    states: list[str] = []
    # a run's composite shares most subterms with the runs before it:
    # comp builds, and print_term_for prints, each once for the call
    values: dict = {}
    texts: dict = {}
    count = 0
    for run in enumerate_runs(system, args.depth):
        levels = run[0]
        n = len(levels) - 1
        del states[n:]
        if n:
            own = " ".join([f"{n}:{e}->{state[s, x]}" for s, e, x in levels[n]])
            head = states[-1]
            states.append(f"{head} {own}" if head and own else head or own)
        else:
            states.append(" ".join([f"0:{point[s, e]}->{state[s, x]}" for s, e, x in levels[0]]))
        top = comp(f, run, values)
        terms = " ".join([print_term_for(fp1, s, top[i], texts) for i, s in heads])
        yield f"run {count}: length {n} comp {terms} [{states[n]}]"
        count += 1
    yield f"{count} runs"
    return 0


def _word_runs(system: PointedCoalgebra, depth: int, sep: str) -> _Lines:
    """The ``runs`` verb on a system for which :func:`paths.comps_are_words`
    holds, its runs in the order of :func:`paths.enumerate_runs`, from one
    depth-first walk through the states that builds no path.

    A run of such a system is a word and the states it visits.  Each
    level holds one element, named ``n000`` past level 0, until a step
    takes the added point or a marker; every level after that is empty,
    and each further step takes the added point.  So a run's text is its
    parent's word with one more letter, apart by ``sep``, and its
    parent's states with at most one more level."""
    state = _state_names(system.carrier)
    ((s, i),) = system.pointing.pairs()
    x0 = (s, system.point[s, i])
    # the words of 0..depth added points, apart by sep
    bots = [sep.join([BOT] * j) for j in range(depth + 1)]
    # per state, its transitions in order, each as its letter, its
    # successor (None for a marker) and the successor's name
    moves: dict[tuple[str, str], list[tuple[str, tuple[str, str] | None, str]]] = {}
    # the runs not yet printed, the next on top, each as its length, word
    # and states, and the state its last level sits at, None when empty
    stack = [(0, "", f"0:{_state_names(system.pointing)[s, i]}->{state[x0]}", x0)]
    count = 0
    while stack:
        n, word, states, x = stack.pop()
        yield f"run {count}: length {n} comp {word or 'ε'} [{states}]"
        count += 1
        if n == depth:
            continue
        lead = f"{word}{sep}" if word else ""
        # its first child takes the added point, and so does each step of
        # that child's one line of descendants
        for j in range(1, depth - n + 1):
            yield f"run {count}: length {n + j} comp {lead}{bots[j]} [{states}]"
            count += 1
        if x is None:
            continue
        out = moves.get(x)
        if out is None:
            out = moves[x] = []
            for t in system.xi[x]:
                (_index, name), succ = read_letter(t)
                y = None if succ is None else (succ.sort, succ.name)
                out.append((format_name(name), y, "" if y is None else state[y]))
        m = n + 1
        if m < depth:
            stack.extend([
                (m, f"{lead}{letter}", states if y is None else f"{states} {m}:n000->{name}", y)
                for letter, y, name in reversed(out)
            ])
            continue
        # the children at full depth are printed here, never stacked
        for letter, y, name in out:
            yield (f"run {count}: length {m} comp {lead}{letter} [{states}]" if y is None
                   else f"run {count}: length {m} comp {lead}{letter} [{states} {m}:n000->{name}]")
            count += 1
    yield f"{count} runs"
    return 0


def _trace(args: argparse.Namespace) -> _Lines:
    system = parse_coalgebra(_read(args.file))
    if word_route(system.functor, [s for s, _i in system.pointing.pairs()]):
        yield from (w or "ε" for w in sorted(lts_language(system, args.depth, GLYPH_ASCII if args.ascii else None)))
        return 0
    # the orbit route's entries come spelt from the table, each term's text
    # made from its arguments' as it was built; the others print here
    texts: dict = {}
    ts = trace(system, args.depth, texts)
    lines = []
    memo: dict = {}
    named = system.pointing.size() > 1
    for d, items in ts.per_depth:
        for (s, i), terms in items:
            prefix = f"{_key(system.pointing, s, i)} : {d} : " if named else f"{d} : "
            spelt = texts.get((d, (s, i))) or [print_term(t, memo) for t in terms]
            lines.extend([prefix + text for text in spelt])
    # the table keeps its terms in input order, mostly term order: the
    # lines come nearly sorted, where a set would shuffle them
    yield from sorted(dict.fromkeys(lines))
    return 0


def _reach(args: argparse.Namespace) -> _Lines:
    system = parse_coalgebra(_read(args.file))
    levels, union = reachable_bfs(system)
    state = _state_names(system.carrier)
    for k, level in enumerate(levels):
        yield f"level {k}: {' '.join(state[s, e] for e, s in sorted((e, s) for s, e in level))}"
    yield f"union: {' '.join(state[s, e] for e, s in sorted((e, s) for s, e in union))}"
    pr = union == set(system.carrier.pairs())
    nps = is_reachable_no_proper_sub(system)
    yield f"path-reachable: {'yes' if pr else 'no'}"
    yield f"no-proper-subcoalgebra: {'yes' if nps else 'no'}"
    return 0 if pr == nps else 1


def _morphism(args: argparse.Namespace) -> CoalgMorphism:
    """The map ``mapfile`` from ``src`` to ``dst``; a file named as both is read once."""
    src = parse_coalgebra(_read(args.src))
    dst = src if args.dst == args.src else parse_coalgebra(_read(args.dst))
    return CoalgMorphism(src, dst, parse_map(_read(args.mapfile), src.carrier, dst.carrier))


def _hom(args: argparse.Namespace) -> _Lines:
    m = _morphism(args)
    strict = is_strict_hom(m)
    yield f"lax: {'yes' if is_lax_hom(m) else 'no'}"
    yield f"strict: {'yes' if strict else 'no'}"
    return 0 if strict else 1


def _open(args: argparse.Namespace) -> _Lines:
    m = _morphism(args)
    report = is_open(m, args.bound if args.bound > 0 else m.src.carrier.size() + 1)
    yield f"verdict: {report.verdict} (bound {report.bound})"
    if report.reason:
        yield f"reason: {report.reason}"
    if (w := report.witness) is not None:
        yield "witness square:"
        yield f"  path length {len(w.steps) - 1}, extension length {len(w.steps)}"
        yield from (f"  {k} : {elem} -> {term}" for k, _, elem, term in witness_steps(w))
        yield from (f"  target run sends {elem} to {target}" for elem, target in witness_ends(w))
    return 0 if report.is_open else 1


def _verify(args: argparse.Namespace) -> _Lines:
    node = parse_functor_text(args.functor)
    spec = GenSpec(functor(node), {DEFAULT_SORT: args.states}, args.density, args.seed)
    report = verify_theorems(spec, args.trials, check_traces=args.traces)
    yield from report.lines()
    return 0 if report.all_passed else 1


def _lasota(args: argparse.Namespace) -> _Lines:
    cat = parse_category(_read(args.file))
    problems = validate_category(cat)
    if problems:
        yield from (f"invalid category: {v.kind}: {v.detail}" for v in problems)
        return 1
    yield "category: ok"
    report = paths_bijection_check(cat, args.depth)
    yield from (f"length {n}: paths {paths} sequences {seqs}" for n, paths, seqs in report.per_length)
    yield f"precise-iff-characteristic: {'ok' if report.precise_ok else 'FAIL'}"
    yield from (f"mismatch: {mismatch}" for mismatch in report.mismatches)
    yield "bijection: FAIL" if report.mismatches else "bijection: ok"
    return 1 if report.mismatches else 0


def _rnna(args: argparse.Namespace) -> _Lines:
    system = rnna_expand(parse_rnna(_read(args.file)), AtomPool(args.pool))
    yield f"states: {system.carrier.size()}"
    yield f"transitions: {sum(len(v) for v in system.xi.values())}"
    yield from map(print_canonical, sorted(bar_trace(system, args.depth)))
    return 0


def main() -> None:
    text, code = run_command(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
