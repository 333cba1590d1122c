"""Command-line surface: deterministic, sorted output, exit codes
0 = success / verification passed, 1 = property failure, 2 = usage or
parse error."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .coalgebra import CoalgMorphism, GenSpec, is_lax_hom, is_strict_hom
from .functors import DEFAULT_SORT, functor, plus1, print_term, word_shape
from .lasota import paths_bijection_check, validate_category
from .modelio import (
    GLYPH_ASCII,
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
from .openmap import is_open, is_path_reachable, is_reachable_no_proper_sub, reachable_bfs, verify_theorems
from .paths import comp, comp_as_word, enumerate_runs
from .precise import enumerate_precise_maps, is_precise, precise_factorize
from .sets import CoalgError
from .trace import lts_language, trace


def _deglyph(text: str) -> str:
    """``text`` with the glyphs replaced by their ASCII aliases."""
    for glyph, alias in GLYPH_ASCII.items():
        text = text.replace(glyph, alias)
    return text


def _emit(out: list[str], text: str) -> None:
    out.append(text)


def run_command(argv: list[str]) -> tuple[str, int]:
    """Execute one verb; returns (stdout text, exit code)."""
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

    try:
        args = parser.parse_args(argv)
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
    if getattr(args, "depth", 0) < 0:
        raise CoalgError("depth must be non-negative")

    if args.verb == "precise-factor":
        problem = parse_factor_problem(_read(args.file))
        fac = precise_factorize(problem.term_map)
        _emit(out, f"precise: {'yes' if is_precise(problem.term_map) else 'no'}")
        _emit(out, "[codomain]")
        for s in fac.codomain.sorts:
            elems = " ".join(format_name(e) for e in fac.codomain.elems(s))
            _emit(out, f"{s} : {elems}" if len(fac.codomain.sorts) > 1 else elems)
        _emit(out, "[precise-map]")
        for (s, x) in problem.domain.pairs():
            _emit(out, f"{format_name(x)} -> {print_term_for(problem.functor, s, fac.precise(s, x))}")
        _emit(out, "[connecting]")
        for (s, y) in fac.codomain.pairs():
            _emit(out, f"{format_name(y)} -> {format_name(fac.connect(s, y))}")
        return 0

    if args.verb == "paths":
        system = parse_coalgebra(_read(args.file))
        fp1 = plus1(system.functor)
        frontier = [(system.pointing, [])]
        count = 0
        for length in range(args.depth + 1):
            new_frontier = []
            for level, prefix in frontier:
                _emit(out, f"path {count}: length {length}")
                for k, (lv, step) in enumerate(prefix):
                    for (s, e) in lv.pairs():
                        _emit(out, f"  {k} : {e} -> {print_term_for(fp1, s, step[(s, e)])}")
                count += 1
                if length < args.depth:
                    for codomain, term_map in enumerate_precise_maps(level, fp1):
                        new_frontier.append((codomain, prefix + [(level, term_map.table)]))
            frontier = new_frontier
        _emit(out, f"{count} paths")
        return 0

    if args.verb == "runs":
        system = parse_coalgebra(_read(args.file))
        count = 0
        for path, run in enumerate_runs(system, args.depth):
            states = []
            for k, comp_k in enumerate(run.components):
                for (s, e) in path.levels[k].pairs():
                    states.append(f"{k}:{e}->{comp_k(s, e)}")
            value = comp(path)
            word = comp_as_word(value)
            if word is not None:
                terms = word if word else "ε"
            else:
                terms = " ".join(print_term_for(plus1(value.functor), s, t) for (s, _i), t in value.values)
            _emit(out, f"run {count}: length {path.length} comp {terms} [{' '.join(states)}]")
            count += 1
        _emit(out, f"{count} runs")
        return 0

    if args.verb == "trace":
        system = parse_coalgebra(_read(args.file))
        if word_shape(system.functor) is not None:
            for w in sorted(lts_language(system, args.depth)):
                _emit(out, "ε" if w == "" else w)
            return 0
        ts = trace(system, args.depth)
        lines = []
        for d, items in ts.per_depth:
            for (s, i), terms in items:
                for t in sorted(terms):
                    prefix = f"{i} : " if system.pointing.size() > 1 else ""
                    lines.append(f"{prefix}{d} : {print_term(t)}")
        for line in sorted(set(lines)):
            _emit(out, line)
        return 0

    if args.verb == "reach":
        system = parse_coalgebra(_read(args.file))
        levels, union = reachable_bfs(system)
        for k, level in enumerate(levels):
            names = " ".join(sorted(e for _s, e in level))
            _emit(out, f"level {k}: {names}")
        _emit(out, f"union: {' '.join(sorted(e for _s, e in union))}")
        pr = is_path_reachable(system)
        nps = is_reachable_no_proper_sub(system)
        _emit(out, f"path-reachable: {'yes' if pr else 'no'}")
        _emit(out, f"no-proper-subcoalgebra: {'yes' if nps else 'no'}")
        return 0 if pr == nps else 1

    if args.verb in ("hom", "open"):
        src = parse_coalgebra(_read(args.src))
        dst = src if args.dst == args.src else parse_coalgebra(_read(args.dst))
        fun = parse_map(_read(args.mapfile), src.carrier, dst.carrier)
        m = CoalgMorphism(src, dst, fun)
        if args.verb == "hom":
            strict = is_strict_hom(m)
            _emit(out, f"lax: {'yes' if is_lax_hom(m) else 'no'}")
            _emit(out, f"strict: {'yes' if strict else 'no'}")
            return 0 if strict else 1
        bound = args.bound if args.bound > 0 else src.carrier.size() + 1
        report = is_open(m, bound)
        _emit(out, f"verdict: {report.verdict} (bound {report.bound})")
        if report.reason:
            _emit(out, f"reason: {report.reason}")
        if report.witness is not None:
            w = report.witness
            _emit(out, "witness square:")
            _emit(out, f"  path length {w.path.length}, extension length {w.extension.length}")
            fp1 = plus1(src.functor)
            for k, step in enumerate(w.extension.steps):
                for (s, e) in w.extension.levels[k].pairs():
                    _emit(out, f"  {k} : {e} -> {print_term_for(fp1, s, step(s, e))}")
            last = w.dst_run.components[-1]
            for (s, e) in w.extension.levels[-1].pairs():
                _emit(out, f"  target run sends {e} to {last(s, e)}")
        return 0 if report.is_open else 1

    if args.verb == "verify":
        node = parse_functor_text(args.functor)
        spec = GenSpec(functor(node), {DEFAULT_SORT: args.states}, args.density, args.seed)
        report = verify_theorems(spec, args.trials, check_traces=args.traces)
        for line in report.lines():
            _emit(out, line)
        return 0 if report.all_passed else 1

    if args.verb == "lasota":
        cat = parse_category(_read(args.file))
        problems = validate_category(cat)
        if problems:
            for v in problems:
                _emit(out, f"invalid category: {v.kind}: {v.detail}")
            return 1
        _emit(out, "category: ok")
        report = paths_bijection_check(cat, args.depth)
        for (n, paths, seqs) in report.per_length:
            _emit(out, f"length {n}: paths {paths} sequences {seqs}")
        _emit(out, f"precise-iff-characteristic: {'ok' if report.precise_ok else 'FAIL'}")
        for mismatch in report.mismatches:
            _emit(out, f"mismatch: {mismatch}")
        _emit(out, "bijection: ok" if report.ok else "bijection: FAIL")
        return 0 if report.ok else 1

    if args.verb == "rnna":
        system = rnna_expand(parse_rnna(_read(args.file)), AtomPool(args.pool))
        _emit(out, f"states: {system.carrier.size()}")
        transitions = sum(len(v) for v in system.xi.values())
        _emit(out, f"transitions: {transitions}")
        for form in sorted(bar_trace(system, args.depth)):
            _emit(out, print_canonical(form))
        return 0

    raise CoalgError(f"unknown verb {args.verb!r}")


def main() -> None:
    text, code = run_command(sys.argv[1:])
    sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
