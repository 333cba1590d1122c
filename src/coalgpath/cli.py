"""Command-line surface: deterministic, sorted output, exit codes
0 = success / verification passed, 1 = property failure, 2 = usage or
parse error."""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .coalgebra import CoalgMorphism, GenSpec, is_lax_hom, is_strict_hom
from .functors import DEFAULT_SORT, functor, plus1, print_term, word_separator, word_shape
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
from .openmap import (
    is_open, is_path_reachable, is_reachable_no_proper_sub, reachable_bfs, verify_theorems, witness_ends, witness_steps,
)
from .paths import comp, comps_are_words, enumerate_runs, step_letter
from .precise import TermMap, is_precise, precise_chains, precise_factorize
from .sets import CoalgError, SortedFun, SortedSet
from .trace import lts_language, trace


def _deglyph(text: str) -> str:
    """``text`` with the glyphs replaced by their ASCII aliases."""
    for glyph, alias in GLYPH_ASCII.items():
        text = text.replace(glyph, alias)
    return text


def _aliases(args: argparse.Namespace) -> dict[str, str] | None:
    """What prints for a glyph: its ASCII alias under ``--ascii``."""
    return GLYPH_ASCII if args.ascii else None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; parsing leaves it as it was."""
    parser = argparse.ArgumentParser(prog="coalgpath", add_help=True)
    parser.add_argument("--ascii", action="store_true", help="print ASCII aliases for glyphs")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("precise-factor", help="factorize a map through a precise one")
    p.add_argument("file")

    p = sub.add_parser("paths", help="enumerate path objects for a system's functor")
    p.add_argument("file")
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("runs", help="enumerate runs of a system")
    p.add_argument("file")
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("trace", help="bounded trace set of a system")
    p.add_argument("file")
    p.add_argument("--depth", type=int, required=True)

    p = sub.add_parser("reach", help="reachability analysis of a system")
    p.add_argument("file")

    p = sub.add_parser("hom", help="check a carrier map for (strict) homomorphism")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("mapfile")

    p = sub.add_parser("open", help="check a carrier map for openness")
    p.add_argument("src")
    p.add_argument("dst")
    p.add_argument("mapfile")
    p.add_argument("--bound", type=int, default=0)

    p = sub.add_parser("verify", help="randomized theorem harness")
    p.add_argument("--functor", required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--states", type=int, default=5)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--traces", action="store_true")

    p = sub.add_parser("lasota", help="category encoding checks")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=3)

    p = sub.add_parser("rnna", help="expand a register automaton and trace it")
    p.add_argument("file")
    p.add_argument("--pool", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    return parser


def run_command(argv: list[str]) -> tuple[str, int]:
    """Execute one verb; returns (stdout text, exit code)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return "", 2 if exc.code not in (0, None) else 0

    out: list[str] = []
    try:
        code = _dispatch(args, out)
    except (CoalgError, FileNotFoundError) as exc:
        return f"error: {exc}\n", 2
    except RecursionError as exc:
        return f"error: terms nest too deeply: {exc}\n", 2
    text = "\n".join(out) + ("\n" if out else "")
    return (_deglyph(text) if args.ascii else text), code


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _dispatch(args: argparse.Namespace, out: list[str]) -> int:
    for option in ("depth", "bound"):
        if getattr(args, option, 0) < 0:
            raise CoalgError(f"{option} must be non-negative")
    # every element, state, letter and marker prints as the model files
    # write it, each distinct name formatted once
    name = functools.cache(format_name)

    if args.verb == "precise-factor":
        f = parse_factor_problem(_read(args.file))
        fac = precise_factorize(f)
        codomain = fac.precise.cod
        out.append(f"precise: {'yes' if is_precise(f) else 'no'}")
        out.append("[codomain]")
        for s in codomain.sorts:
            elems = " ".join(map(name, codomain.elems(s)))
            out.append(f"{s} : {elems}" if len(codomain.sorts) > 1 else elems)
        out.append("[precise-map]")
        dom = _state_names(f.dom)
        for (s, x) in f.dom.pairs():
            out.append(f"{dom[s, x]} -> {print_term_for(f.functor, s, fac.precise(s, x))}")
        out.append("[connecting]")
        cod = _state_names(f.cod)
        for (s, y) in codomain.pairs():
            out.append(f"{name(y)} -> {cod[s, fac.connect(s, y)]}")
        return 0

    if args.verb == "paths":
        system = parse_coalgebra(_read(args.file))
        fp1 = plus1(system.functor)
        texts: dict = {}  # steps share their term objects: each prints once for the call
        # only level 0, the pointing, can hold a name in two sorts
        point = _state_names(system.pointing)
        # the first chain is the empty one, so count is always bound
        for count, chain in enumerate(precise_chains(fp1, system.pointing, args.depth)):
            out.append(f"path {count}: length {len(chain)}")
            for k, step in enumerate(chain):
                for s, e in step.dom.pairs():
                    elem = point[s, e] if k == 0 else name(e)
                    out.append(f"  {k} : {elem} -> {print_term_for(fp1, s, step(s, e), texts)}")
        out.append(f"{count + 1} paths")
        return 0

    if args.verb == "runs":
        system = parse_coalgebra(_read(args.file))
        fp1 = plus1(system.functor)
        as_words = comps_are_words(system.functor, system.pointing)
        state = _state_names(system.carrier)
        # only level 0, the pointing, can hold a name in two sorts
        point = _state_names(system.pointing)
        sep = word_separator(system.functor, _aliases(args))
        # runs come depth first, each extending the last run one level
        # shorter: states[k] holds the k:e->x states of levels 0..k of the
        # last run, words[k] the word of its first k steps
        states: list[str] = []
        words: list[str] = [""]
        # enumerate_runs builds the children of a level of at most one
        # element once: the text of such a child's run component, when its
        # own level is that narrow too, and the letter of the step to it
        # are kept by id, each value keeping its object alive, so a hit is
        # that object.  A child of a wider level is built anew on each
        # visit, so keeping it would only hold it alive
        own_text: dict[tuple[int, int], tuple[SortedFun, str]] = {}
        letters: dict[int, tuple[TermMap, str]] = {}
        # a run's composite shares most subterms with the runs before it:
        # comp builds, and print_term_for prints, each once for the call
        values: dict = {}
        texts: dict = {}
        count = 0
        for path, run in enumerate_runs(system, args.depth):
            n = path.length
            del states[n:]
            x_n = run.components[n]
            kept = own_text.get((n, id(x_n)))
            if kept is None:
                level = path.levels[n]
                kept = x_n, " ".join(
                    f"{n}:{point[s, e] if n == 0 else name(e)}->{state[s, x_n(s, e)]}" for s, e in level.pairs()
                )
                if n and path.levels[n - 1].size() <= 1 and level.size() <= 1:
                    own_text[(n, id(x_n))] = kept
            own = kept[1]
            head = states[-1] if states else ""
            states.append(f"{head} {own}" if head and own else head or own)
            if as_words:
                if n:
                    del words[n:]
                    step = path.steps[n - 1]
                    letter = letters.get(id(step))
                    if letter is None:
                        letter = step, name(step_letter(path, n - 1))
                        if path.levels[n - 1].size() <= 1:
                            letters[id(step)] = letter
                    words.append(f"{words[-1]}{sep if n > 1 else ''}{letter[1]}")
                terms = words[n] or "ε"
            else:
                terms = " ".join(print_term_for(fp1, s, t, texts) for (s, _i), t in comp(path, values).values)
            out.append(f"run {count}: length {n} comp {terms} [{states[n]}]")
            count += 1
        out.append(f"{count} runs")
        return 0

    if args.verb == "trace":
        system = parse_coalgebra(_read(args.file))
        if word_shape(system.functor) is not None:
            out.extend(w or "ε" for w in sorted(lts_language(system, args.depth, _aliases(args))))
            return 0
        ts = trace(system, args.depth)
        lines = []
        memo: dict = {}
        named = system.pointing.size() > 1
        for d, items in ts.per_depth:
            for (s, i), terms in items:
                prefix = f"{_key(system.pointing, s, i)} : {d} : " if named else f"{d} : "
                lines.extend([prefix + print_term(t, memo) for t in terms])
        out.extend(sorted(set(lines)))
        return 0

    if args.verb == "reach":
        system = parse_coalgebra(_read(args.file))
        levels, union = reachable_bfs(system)
        state = _state_names(system.carrier)
        for k, level in enumerate(levels):
            out.append(f"level {k}: {' '.join(state[s, e] for e, s in sorted((e, s) for s, e in level))}")
        out.append(f"union: {' '.join(state[s, e] for e, s in sorted((e, s) for s, e in union))}")
        pr = is_path_reachable(system)
        nps = is_reachable_no_proper_sub(system)
        out.append(f"path-reachable: {'yes' if pr else 'no'}")
        out.append(f"no-proper-subcoalgebra: {'yes' if nps else 'no'}")
        return 0 if pr == nps else 1

    if args.verb in ("hom", "open"):
        src = parse_coalgebra(_read(args.src))
        dst = src if args.dst == args.src else parse_coalgebra(_read(args.dst))
        fun = parse_map(_read(args.mapfile), src.carrier, dst.carrier)
        m = CoalgMorphism(src, dst, fun)
        if args.verb == "hom":
            strict = is_strict_hom(m)
            out.append(f"lax: {'yes' if is_lax_hom(m) else 'no'}")
            out.append(f"strict: {'yes' if strict else 'no'}")
            return 0 if strict else 1
        bound = args.bound if args.bound > 0 else src.carrier.size() + 1
        report = is_open(m, bound)
        out.append(f"verdict: {report.verdict} (bound {report.bound})")
        if report.reason:
            out.append(f"reason: {report.reason}")
        if report.witness is not None:
            w = report.witness
            out.append("witness square:")
            out.append(f"  path length {w.run.path.length}, extension length {w.extension.length}")
            for k, _, elem, term in witness_steps(w):
                out.append(f"  {k} : {elem} -> {term}")
            for elem, target in witness_ends(w):
                out.append(f"  target run sends {elem} to {target}")
        return 0 if report.is_open else 1

    if args.verb == "verify":
        node = parse_functor_text(args.functor)
        spec = GenSpec(functor(node), {DEFAULT_SORT: args.states}, args.density, args.seed)
        report = verify_theorems(spec, args.trials, check_traces=args.traces)
        for line in report.lines():
            out.append(line)
        return 0 if report.all_passed else 1

    if args.verb == "lasota":
        cat = parse_category(_read(args.file))
        problems = validate_category(cat)
        if problems:
            for v in problems:
                out.append(f"invalid category: {v.kind}: {v.detail}")
            return 1
        out.append("category: ok")
        report = paths_bijection_check(cat, args.depth)
        for (n, paths, seqs) in report.per_length:
            out.append(f"length {n}: paths {paths} sequences {seqs}")
        out.append(f"precise-iff-characteristic: {'ok' if report.precise_ok else 'FAIL'}")
        for mismatch in report.mismatches:
            out.append(f"mismatch: {mismatch}")
        out.append("bijection: FAIL" if report.mismatches else "bijection: ok")
        return 1 if report.mismatches else 0

    if args.verb == "rnna":
        system = rnna_expand(parse_rnna(_read(args.file)), AtomPool(args.pool))
        out.append(f"states: {system.carrier.size()}")
        transitions = sum(len(v) for v in system.xi.values())
        out.append(f"transitions: {transitions}")
        for form in sorted(bar_trace(system, args.depth)):
            out.append(print_canonical(form))
        return 0

    raise CoalgError(f"unknown verb {args.verb!r}")


def main() -> None:
    text, code = run_command(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
