"""Canonical writers for every model kind, and the readers no verb needs.

The verbs read systems, maps, factorization problems, categories and
register automata, and write only their results; what writes a whole
model file back, and reads a path file or a file of any kind, lives
here, beside the round-trip tests that are its callers.  Each writer
prints what the matching reader in ``coalgpath.modelio`` reads, so
``parse_model . print_model`` is the identity on canonical files.
"""

from __future__ import annotations

from coalgpath.coalgebra import PointedCoalgebra
from coalgpath.functors import (
    Analytic,
    Const,
    Coprod,
    Functor,
    Node,
    Pf,
    Prod,
    SortRef,
    Term,
    format_name,
    plus1,
)
from coalgpath.lasota import FiniteCategory
from coalgpath.modelio import (
    _BOT_CONST,
    Lines,
    ModelParseError,
    _expect,
    _key,
    _parse_int,
    _parse_signature,
    _parse_sorted_elems,
    _read_elem,
    _section,
    _sort_name,
    _term_to_end,
    parse_category,
    parse_coalgebra,
    parse_factor_problem,
    parse_rnna,
    print_term_for,
    split_sections,
    tokenize,
)
from coalgpath.nominal import RnnaPresentation
from coalgpath.paths import PathObj, make_path, validate_path
from coalgpath.precise import TermMap
from coalgpath.sets import DEFAULT_SORT, CoalgError, SortedSet, singleton_pointing


def print_functor_node(node: Node) -> str:
    if isinstance(node, SortRef):
        return "id" if node.sort == DEFAULT_SORT else f"sort({format_name(node.sort)})"
    if isinstance(node, Const):
        return "const(" + " ".join(map(format_name, node.elems)) + ")"
    if isinstance(node, Prod):
        return "prod(" + ", ".join(print_functor_node(p) for p in node.parts) + ")"
    if isinstance(node, Coprod):
        if len(node.parts) == 2 and node.parts[1] == _BOT_CONST:
            return f"plus1({print_functor_node(node.parts[0])})"
        return "coprod(" + ", ".join(print_functor_node(p) for p in node.parts) + ")"
    if isinstance(node, Pf):
        return f"pf({print_functor_node(node.inner)})"
    if isinstance(node, Analytic):
        chunks = []
        for sym in node.symbols:
            gens = ""
            if sym.group.generators:
                gens = " [" + ", ".join(_print_cycles(g) for g in sym.group.generators) + "]"
            chunks.append(f"{format_name(sym.name)}/{sym.group.arity}{gens}")
        text = "analytic{ " + " ; ".join(chunks) + " }"
        # the parser fills every slot with one node: id, or the inner
        # expression of a composition
        slots = {n for sym in node.symbols for n in sym.slots}
        if slots <= {SortRef(DEFAULT_SORT)}:
            return text
        if len(slots) == 1:
            return f"compose({text}, {print_functor_node(slots.pop())})"
        raise CoalgError(f"analytic slots {sorted(map(repr, slots))}cannot be written in the functor grammar")
    raise CoalgError(f"unknown node {node!r}")


def _print_cycles(perm: tuple[int, ...]) -> str:
    seen: set[int] = set()
    out = ""
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cycle.append(cur)
            seen.add(cur)
            cur = perm[cur]
        out += "(" + " ".join(str(i + 1) for i in cycle) + ")"
    return out or "()"


def _signature_lines(f: Functor) -> list[str]:
    """[functor], preceded by [sorts] unless ``f`` has the default sort only."""
    if f.sorts == (DEFAULT_SORT,):
        return ["[functor]", print_functor_node(f.node(DEFAULT_SORT)), ""]
    lines = ["[sorts]", " ".join(map(_sort_name, f.sorts)), "", "[functor]"]
    lines.extend(f"{s} = {print_functor_node(f.node(s))}" for s in f.sorts)
    return lines + [""]


def _elem_lines(x: SortedSet) -> list[str]:
    """The lines of a carrier section: the names alone over the default
    sort, else ``S : names`` for each sort with elements."""
    if x.sorts == (DEFAULT_SORT,):
        return [" ".join(format_name(e) for e in x.data[0])]
    return [f"{_sort_name(s)} : {' '.join(map(format_name, elems))}" for s, elems in zip(x.sorts, x.data) if elems]


def print_coalgebra(c: PointedCoalgebra) -> str:
    lines = _signature_lines(c.functor)
    lines += ["[pointing]", *_elem_lines(c.pointing), "", "[states]", *_elem_lines(c.carrier), "", "[init]"]
    for (s, i) in c.pointing.pairs():
        lines.append(f"{_key(c.pointing, s, i)} -> {_key(c.carrier, s, c.point[(s, i)])}")
    lines += ["", "[trans]"]
    for (s, x) in c.carrier.pairs():
        for t in c.xi[(s, x)]:
            lines.append(f"{_key(c.carrier, s, x)} -> {print_term_for(c.functor, s, t)}")
    return "\n".join(lines) + "\n"


def parse_path(text: str) -> PathObj:
    sections = split_sections(text)
    sorts, f = _parse_signature(sections)
    pointing = _parse_sorted_elems(sections["pointing"], sorts) if "pointing" in sections else singleton_pointing(sorts)
    # a level may span several lines, one per sort
    level_lines: dict[int, Lines] = {}
    for lineno, line in _section(sections, "levels"):
        if ":" not in line:
            raise ModelParseError("expected '<k> : elements'", lineno)
        idx_text, rest = line.split(":", 1)
        k = _parse_int(idx_text, lineno)
        if k < 0:
            raise ModelParseError(f"level index {k} out of range", lineno)
        level_lines.setdefault(k, []).append((lineno, rest))
    n = max(level_lines.keys(), default=0)
    levels = []
    for k in range(n + 1):
        if k not in level_lines:
            raise ModelParseError(f"missing level {k}")
        levels.append(_parse_sorted_elems(level_lines[k], sorts))
    fp1 = plus1(f)
    tables: list[dict[tuple[str, str], Term]] = [dict() for _ in range(n)]
    for lineno, line in sections.get("steps", []):
        idx_text, colon, rest = line.partition(":")
        tokens = tokenize(rest, lineno)
        if not colon or "->" not in tokens:
            raise ModelParseError("expected '<k> : elem -> term'", lineno)
        k = _parse_int(idx_text, lineno)
        if not 0 <= k < n:
            raise ModelParseError(f"step index {k} out of range", lineno)
        key, pos = _read_elem(tokens, 0, levels[k], lineno)
        pos = _expect(tokens, pos, "->", lineno)
        if key in tables[k]:
            raise ModelParseError(f"duplicate step {k} for {_key(levels[k], *key)!r}", lineno)
        tables[k][key] = _term_to_end(tokens, pos, fp1.node(key[0]), levels[k + 1], lineno)
    if levels[0] != pointing:
        raise ModelParseError("invalid path: level 0 is not the pointing object")
    path = make_path(f, levels, tables)
    problems = validate_path(path)
    if problems:
        raise ModelParseError("invalid path: " + "; ".join(problems))
    return path


def print_path(p: PathObj) -> str:
    lines = _signature_lines(p.functor)
    lines += ["[pointing]", *_elem_lines(p.levels[0]), "", "[levels]"]
    for k, level in enumerate(p.levels):
        lines.extend(f"{k} : {line}".rstrip() for line in _elem_lines(level) or [""])
    lines += ["", "[steps]"]
    fp1 = plus1(p.functor)
    for k, step in enumerate(p.steps):
        for (s, e) in p.levels[k].pairs():
            lines.append(f"{k} : {_key(p.levels[k], s, e)} -> {print_term_for(fp1, s, step(s, e))}")
    return "\n".join(lines) + "\n"


def print_factor_problem(f: TermMap) -> str:
    lines = _signature_lines(f.functor)
    lines += ["[domain]", *_elem_lines(f.dom), "", "[codomain]", *_elem_lines(f.cod), "", "[map]"]
    for (s, x) in f.dom.pairs():
        lines.append(f"{_key(f.dom, s, x)} -> {print_term_for(f.functor, s, f(s, x))}")
    return "\n".join(lines) + "\n"


def print_category(cat: FiniteCategory) -> str:
    lines = ["[objects]", " ".join(cat.objects), "", "[initial]", cat.initial, "", "[morphisms]"]
    for (name, d, c) in sorted(cat.morphisms):
        lines.append(f"{name} : {d} -> {c}")
    lines += ["", "[identities]"]
    # a missing identity is reported by validate_category, not here
    lines.extend(f"{obj} : {cat.identities[obj]}" for obj in cat.objects if obj in cat.identities)
    lines += ["", "[composition]"]
    for (g, f), h in sorted(cat.comp.items()):
        lines.append(f"{g} o {f} = {h}")
    return "\n".join(lines) + "\n"


def print_rnna(r: RnnaPresentation) -> str:
    lines = ["[states]", " ".join(f"{q}/{n}" for q, n in sorted(r.states.items())), "", "[init]", r.init, "", "[rules]"]
    lines.extend(map(str, r.rules))
    return "\n".join(lines) + "\n"


def parse_model(text: str):
    """Parse any model file, dispatching on the sections present."""
    sections = split_sections(text)
    if "levels" in sections:
        return parse_path(text)
    if "objects" in sections:
        return parse_category(text)
    if "rules" in sections or ("states" in sections and "trans" not in sections and "init" in sections
                               and any("/" in line for _n, line in sections["states"])):
        return parse_rnna(text)
    if "domain" in sections:
        return parse_factor_problem(text)
    return parse_coalgebra(text)


def print_model(obj) -> str:
    """Canonical serialization; ``parse_model . print_model`` is the identity."""
    if isinstance(obj, PointedCoalgebra):
        return print_coalgebra(obj)
    if isinstance(obj, PathObj):
        return print_path(obj)
    if isinstance(obj, TermMap):
        return print_factor_problem(obj)
    if isinstance(obj, FiniteCategory):
        return print_category(obj)
    if isinstance(obj, RnnaPresentation):
        return print_rnna(obj)
    raise CoalgError(f"cannot serialize {type(obj).__name__}")
