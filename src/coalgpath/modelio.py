"""Line-oriented text formats for systems, paths, categories and automata.

Files are split into ``[section]`` blocks; ``#`` starts a comment.  The
functor grammar is

    const(e1 e2 ...) | id | sort(S) | prod(f, ...) | coprod(f, ...)
    | compose(f, g) | analytic{ sym/arity [(1 2)(3 4), (1 3)] ; ... } | plus1(f) | pf(f)

where ``compose(f, g)`` is parsed as ``f`` with ``g`` substituted for
``id`` and the brackets list the generators of the slot group, separated
by commas, each a product of disjoint cycles.  Terms are written
``name``, ``(t, ..., t)``, ``in<k>(t)``, ``sym(t, ..., t)``; the glyphs
for the unit, the added point and the final marker have ASCII aliases
``unit``, ``bot`` and ``ok``.  Parsing a term is guided by the expected
expression node, so constant names and state names never clash;
coproduct injections may be left implicit when exactly one branch
parses.  ``parse . print`` is the identity on canonical files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from .coalgebra import PointedCoalgebra
from .functors import (
    BOT, CHECK, UNIT,
    Analytic,
    AnSym,
    Const,
    ConstElem,
    Coprod,
    Functor,
    Inj,
    Node,
    Pf,
    Prod,
    SetOf,
    SortRef,
    Symbol,
    Term,
    TermError,
    TupleTerm,
    UnitLeaf,
    Var,
    ansym,
    compose,
    functor,
    multisorted,
    plus1,
)
from .groups import PermGroup
from .lasota import FiniteCategory
from .nominal import RnnaPresentation, RnnaRule
from .paths import PathObj, make_path, validate_path
from .precise import TermMap, TermSpace
from .sets import DEFAULT_SORT, CoalgError, SortedSet, singleton_pointing

NAME_RE = re.compile(r"[A-Za-z0-9_*.:+'⊥•✓-]+")
ALIASES = {"unit": UNIT, "bot": BOT, "ok": CHECK}
GLYPH_ASCII = {UNIT: "unit", BOT: "bot", CHECK: "ok"}


class ModelParseError(CoalgError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# ---------------------------------------------------------------------------
# Tokenizer

PUNCT = set("(){}[],;=/")


def tokenize(text: str, line: int | None = None) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == '"':  # quoted name, used for generated identifiers
            end = text.find('"', i + 1)
            if end < 0:
                raise ModelParseError("unterminated quoted name", line)
            tokens.append(text[i + 1 : end])
            i = end + 1
            continue
        if ch in PUNCT:
            tokens.append(ch)
            i += 1
            continue
        m = NAME_RE.match(text, i)
        if not m:
            raise ModelParseError(f"unexpected character {ch!r}", line)
        tokens.append(m.group(0))
        i = m.end()
    return tokens


def _parse_int(text: str, line: int | None = None) -> int:
    """A decimal integer read from model text."""
    try:
        return int(text)
    except ValueError:
        raise ModelParseError(f"expected an integer, got {text.strip()!r}", line) from None


def format_name(name: str) -> str:
    """Quote identifiers that the bare-name grammar cannot carry."""
    return name if NAME_RE.fullmatch(name) else f'"{name}"'


def unquote_name(raw: str) -> str:
    if len(raw) >= 2 and raw.startswith('"') and raw.endswith('"'):
        return raw[1:-1]
    return raw


class TokenStream:
    def __init__(self, tokens: list[str], line: int | None = None):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ModelParseError("unexpected end of input", self.line)
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ModelParseError(f"expected {tok!r}, got {got!r}", self.line)

    def done(self) -> bool:
        return self.pos >= len(self.tokens)


# ---------------------------------------------------------------------------
# Functor expressions

# Caps on a functor expression, in the text and once compositions are
# substituted: its depth bounds the recursion of every term walker, its
# number of nodes the cost of hashing, comparing and walking it (each
# composition copies the inner expression into every leaf of the outer).
MAX_NESTING = 100
MAX_NODES = 10_000


def parse_functor_text(text: str, line: int | None = None) -> Node:
    stream = TokenStream(tokenize(text, line), line)
    node, _height, _size = _parse_node(stream, 1)
    if not stream.done():
        raise ModelParseError(f"trailing input after functor expression: {stream.peek()!r}", line)
    return node


def _parse_node(s: TokenStream, depth: int) -> tuple[Node, int, int]:
    """The next expression at nesting ``depth``, with upper bounds on its
    height and on its number of nodes."""
    if depth > MAX_NESTING:
        raise ModelParseError(f"functor expression nested deeper than {MAX_NESTING} levels", s.line)
    head = s.next()
    if head == "id":
        return SortRef(DEFAULT_SORT), 1, 1
    if head == "sort":
        s.expect("(")
        name = s.next()
        s.expect(")")
        return SortRef(name), 1, 1
    if head == "const":
        s.expect("(")
        elems = []
        while s.peek() != ")":
            elems.append(_alias(s.next()))
        s.expect(")")
        return Const(tuple(sorted(elems))), 1, 1
    if head in ("prod", "coprod"):
        s.expect("(")
        parts = [_parse_node(s, depth + 1)]
        while s.peek() == ",":
            s.next()
            parts.append(_parse_node(s, depth + 1))
        s.expect(")")
        nodes = tuple(p[0] for p in parts)
        height, size = 1 + max(p[1] for p in parts), 1 + sum(p[2] for p in parts)
        return (Prod(nodes) if head == "prod" else Coprod(nodes)), height, size
    if head in ("plus1", "pf"):
        s.expect("(")
        inner, height, size = _parse_node(s, depth + 1)
        s.expect(")")
        if head == "plus1":
            return Coprod((inner, Const((BOT,)))), height + 1, size + 2
        return Pf(inner), height + 1, size + 1
    if head == "compose":
        s.expect("(")
        outer, outer_height, outer_size = _parse_node(s, depth + 1)
        s.expect(",")
        inner, inner_height, inner_size = _parse_node(s, depth + 1)
        s.expect(")")
        height, size = outer_height - 1 + inner_height, outer_size * inner_size
        if height > MAX_NESTING or size > MAX_NODES:
            raise ModelParseError(
                f"composite functor exceeds {MAX_NESTING} levels or {MAX_NODES} nodes once substituted", s.line
            )
        return compose(outer, functor(inner)), height, size
    if head == "analytic":
        s.expect("{")
        symbols = []
        while True:
            name = s.next()
            s.expect("/")
            # the trivial group checks the arity before any cycle is read
            group = PermGroup(_parse_int(s.next(), s.line))
            if s.peek() == "[":
                s.next()
                gens: list[tuple[int, ...]] = []
                while s.peek() != "]":
                    if gens:
                        s.expect(",")
                    gens.append(_parse_cycles(s, group.arity))
                s.next()
                group = PermGroup(group.arity, tuple(gens))
            symbols.append(Symbol(name, (SortRef(DEFAULT_SORT),) * group.arity, group))
            if s.peek() == ";":
                s.next()
                continue
            break
        s.expect("}")
        return Analytic(tuple(symbols)), 2, 1 + sum(len(sym.slots) for sym in symbols)
    raise ModelParseError(f"unknown functor constructor {head!r}", s.line)


def _parse_cycles(s: TokenStream, arity: int) -> tuple[int, ...]:
    """One generator: disjoint cycles, written ``(1 2)(3 4)``; ``()`` is
    the identity."""
    perm = list(range(arity))
    moved: set[int] = set()
    while True:
        s.expect("(")
        cycle = []
        while s.peek() != ")":
            cycle.append(_parse_int(s.next(), s.line) - 1)
        s.expect(")")
        for i, slot in enumerate(cycle):
            if not 0 <= slot < arity:
                raise ModelParseError(f"cycle entry {slot + 1} out of range", s.line)
            if slot in moved:
                raise ModelParseError(f"cycle entry {slot + 1} repeated within one generator", s.line)
            moved.add(slot)
            perm[slot] = cycle[(i + 1) % len(cycle)]
        if s.peek() != "(":
            return tuple(perm)


def _alias(token: str) -> str:
    return ALIASES.get(token, token)


def print_functor_node(node: Node) -> str:
    if isinstance(node, SortRef):
        return "id" if node.sort == DEFAULT_SORT else f"sort({node.sort})"
    if isinstance(node, Const):
        return "const(" + " ".join(node.elems) + ")"
    if isinstance(node, Prod):
        return "prod(" + ", ".join(print_functor_node(p) for p in node.parts) + ")"
    if isinstance(node, Coprod):
        if len(node.parts) == 2 and node.parts[1] == Const((BOT,)):
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
            chunks.append(f"{sym.name}/{sym.group.arity}{gens}")
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


# ---------------------------------------------------------------------------
# Terms (parsed against an expected node)

def parse_term_text(text: str, node: Node, carrier: SortedSet, line: int | None = None) -> Term:
    stream = TokenStream(tokenize(text, line), line)
    term = _parse_term(stream, node, carrier)
    if not stream.done():
        raise ModelParseError(f"trailing input after term: {stream.peek()!r}", line)
    return term


def _parse_term(s: TokenStream, node: Node, carrier: SortedSet) -> Term:
    if isinstance(node, Coprod):
        tok = s.peek()
        if tok is not None and re.fullmatch(r"in\d+", tok):
            s.next()
            index = _parse_int(tok[2:], s.line)
            if not 0 <= index < len(node.parts):
                raise ModelParseError(f"injection {tok} out of range", s.line)
            s.expect("(")
            arg = _parse_term(s, node.parts[index], carrier)
            s.expect(")")
            return Inj(index, arg)
        # implicit injection: exactly one branch must accept the term
        start = s.pos
        matches = []
        for i, part in enumerate(node.parts):
            s.pos = start
            try:
                arg = _parse_term(s, part, carrier)
                matches.append((i, arg, s.pos))
            except ModelParseError:
                continue
        if len(matches) == 1:
            i, arg, end = matches[0]
            s.pos = end
            return Inj(i, arg)
        if not matches:
            raise ModelParseError("term fits no coproduct branch", s.line)
        raise ModelParseError("ambiguous coproduct term; use an explicit in<k>(...)", s.line)
    if isinstance(node, Const):
        tok = _alias(s.next())
        if tok not in node.elems:
            raise ModelParseError(f"{tok!r} is not one of the constants {node.elems}", s.line)
        return ConstElem(tok)
    if isinstance(node, SortRef):
        tok = _alias(s.next())
        if not carrier.has(node.sort, tok):
            raise ModelParseError(f"{tok!r} is not an element of sort {node.sort!r}", s.line)
        return Var(node.sort, tok)
    if isinstance(node, Prod):
        s.expect("(")
        args = []
        for i, part in enumerate(node.parts):
            if i:
                s.expect(",")
            args.append(_parse_term(s, part, carrier))
        s.expect(")")
        return TupleTerm(tuple(args))
    if isinstance(node, Analytic):
        sym_name = s.next()
        try:
            sym = node.symbol(sym_name)
        except TermError as exc:
            raise ModelParseError(str(exc), s.line) from None
        args = []
        if sym.group.arity:
            s.expect("(")
            for i, slot in enumerate(sym.slots):
                if i:
                    s.expect(",")
                args.append(_parse_term(s, slot, carrier))
            s.expect(")")
        return ansym(sym.group, sym.name, tuple(args))
    if isinstance(node, Pf):
        s.expect("{")
        args = []
        while s.peek() != "}":
            if args:
                s.expect(",")
            args.append(_parse_term(s, node.inner, carrier))
        s.expect("}")
        return SetOf(args)
    raise ModelParseError(f"cannot parse a term of {node!r}", s.line)


def print_term_for(f: Functor, sort: str, term: Term) -> str:
    """``term`` written against the expression of ``f`` at ``sort``.

    A sort leaf that holds a nested term instead of a variable, as in a
    composite value of (F+1)^n(1), is read against ``f`` again.
    """
    def walk(node: Node, t: Term) -> str:
        if isinstance(t, UnitLeaf):
            return UNIT
        if isinstance(node, SortRef):
            if isinstance(t, Var):
                return format_name(t.name)
            return walk(f.node(node.sort), t)
        if isinstance(node, Coprod) and isinstance(t, Inj):
            branch = node.parts[t.index]
            if branch == Const((BOT,)):
                return BOT
            return f"in{t.index}({walk(branch, t.arg)})"
        if isinstance(node, Const) and isinstance(t, ConstElem):
            return t.name
        if isinstance(node, Prod) and isinstance(t, TupleTerm):
            return "(" + ", ".join(walk(p, a) for p, a in zip(node.parts, t.args)) + ")"
        if isinstance(node, Analytic) and isinstance(t, AnSym):
            sym = node.symbol(t.sym)
            if not t.args:
                return t.sym
            return t.sym + "(" + ", ".join(walk(n, a) for n, a in zip(sym.slots, t.args)) + ")"
        if isinstance(node, Pf) and isinstance(t, SetOf):
            return "{" + ", ".join(walk(node.inner, a) for a in t.args) + "}"
        raise CoalgError(f"cannot print {t!r} against {node!r}")

    return walk(f.node(sort), term)


# ---------------------------------------------------------------------------
# Section splitting

@dataclass
class Section:
    name: str
    lines: list[tuple[int, str]]


def split_sections(text: str) -> dict[str, Section]:
    sections: dict[str, Section] = {}
    current: Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.strip().startswith("[") and line.strip().endswith("]"):
            name = line.strip()[1:-1].strip()
            if name in sections:
                raise ModelParseError(f"duplicate section [{name}]", lineno)
            current = Section(name, [])
            sections[name] = current
            continue
        if current is None:
            raise ModelParseError("content before the first section header", lineno)
        current.lines.append((lineno, line.strip()))
    return sections


def _parse_sorted_elems(section: Section, sorts: tuple[str, ...]) -> SortedSet:
    per_sort: dict[str, list[str]] = {s: [] for s in sorts}
    for lineno, line in section.lines:
        first, colon, rest = line.partition(":")
        if colon and first.strip() in sorts:
            sort = first.strip()
            names = rest.split()
        else:
            sort = sorts[0]
            names = line.split()
        for n in names:
            name = _alias(unquote_name(n))
            if name in per_sort[sort]:
                raise ModelParseError(f"duplicate element {name!r}", lineno)
            per_sort[sort].append(name)
    return SortedSet.make(per_sort, sorts)


def _sorted_key(name: str, carrier: SortedSet, lineno: int) -> tuple[str, str]:
    name = unquote_name(name)
    if "." in name:
        sort, elem = name.split(".", 1)
        if sort in carrier.sorts:
            if not carrier.has(sort, elem):
                raise ModelParseError(f"unknown element {elem!r} of sort {sort!r}", lineno)
            return (sort, elem)
    hits = [(s, name) for s in carrier.sorts if carrier.has(s, name)]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise ModelParseError(f"unknown element {name!r}", lineno)
    raise ModelParseError(f"ambiguous element {name!r}; qualify as sort.elem", lineno)


# ---------------------------------------------------------------------------
# Coalgebra files

def _parse_signature(sections: dict[str, Section]) -> tuple[tuple[str, ...], Functor]:
    """The sorts listed in [sorts] (the default sort without one) and the
    functor of [functor]."""
    sorts = tuple(
        " ".join(line for _n, line in sections["sorts"].lines).split()
    ) if "sorts" in sections else (DEFAULT_SORT,)
    section = sections.get("functor")
    if section is None:
        raise ModelParseError("missing [functor] section")
    if not section.lines:
        raise ModelParseError("empty [functor] section")
    if len(sorts) == 1 and all("=" not in line for _n, line in section.lines):
        text = " ".join(line for _n, line in section.lines)
        return sorts, functor(parse_functor_text(text, section.lines[0][0]))
    nodes: dict[str, Node] = {}
    for lineno, line in section.lines:
        if "=" not in line:
            raise ModelParseError("expected '<sort> = <functor>'", lineno)
        sort, expr = line.split("=", 1)
        sort = sort.strip()
        if sort not in sorts:
            raise ModelParseError(f"unknown sort {sort!r}", lineno)
        nodes[sort] = parse_functor_text(expr, lineno)
    missing = [s for s in sorts if s not in nodes]
    if missing:
        raise ModelParseError(f"no functor expression for sorts {missing}")
    return sorts, multisorted(sorts, nodes)


def _signature_lines(f: Functor) -> list[str]:
    """[functor], preceded by [sorts] unless ``f`` has the default sort only."""
    if f.sorts == (DEFAULT_SORT,):
        return ["[functor]", print_functor_node(f.node(DEFAULT_SORT)), ""]
    lines = ["[sorts]", " ".join(f.sorts), "", "[functor]"]
    lines.extend(f"{s} = {print_functor_node(f.node(s))}" for s in f.sorts)
    return lines + [""]


def _elem_lines(x: SortedSet) -> list[str]:
    """The lines of a carrier section: the names alone over the default
    sort, else ``S : names`` for each sort with elements."""
    if x.sorts == (DEFAULT_SORT,):
        return [" ".join(format_name(e) for e in x.data[0])]
    return [f"{s} : {' '.join(format_name(e) for e in elems)}" for s, elems in zip(x.sorts, x.data) if elems]


def _key(x: SortedSet, sort: str, elem: str) -> str:
    """An element of ``x`` as the left side of a ``->`` line."""
    return format_name(elem) if x.sorts == (DEFAULT_SORT,) else f"{sort}.{elem}"


def parse_coalgebra(text: str) -> PointedCoalgebra:
    sections = split_sections(text)
    sorts, f = _parse_signature(sections)
    if "states" not in sections:
        raise ModelParseError("missing [states] section")
    carrier = _parse_sorted_elems(sections["states"], sorts)
    pointing = _parse_sorted_elems(sections["pointing"], sorts) if "pointing" in sections else singleton_pointing(sorts)
    if "init" not in sections:
        raise ModelParseError("missing [init] section")
    point: dict[tuple[str, str], str] = {}
    for lineno, line in sections["init"].lines:
        if "->" in line:
            left, right = (x.strip() for x in line.split("->", 1))
        else:
            left, right = "*", line.strip()
        key = _sorted_key(left, pointing, lineno)
        target = _sorted_key(right, carrier, lineno)
        if key[0] != target[0]:
            raise ModelParseError("pointing must stay within its sort", lineno)
        if key in point:
            raise ModelParseError(f"duplicate pointing for {left!r}", lineno)
        point[key] = target[1]
    xi: dict[tuple[str, str], list[Term]] = {key: [] for key in carrier.pairs()}
    if "trans" in sections:
        for lineno, line in sections["trans"].lines:
            if "->" not in line:
                raise ModelParseError("expected 'state -> term'", lineno)
            left, right = line.split("->", 1)
            key = _sorted_key(left.strip(), carrier, lineno)
            term = parse_term_text(right.strip(), f.node(key[0]), carrier, lineno)
            xi[key].append(term)
    return PointedCoalgebra(
        f, pointing, carrier, point, {k: tuple(sorted(set(v))) for k, v in xi.items()}
    )


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


# ---------------------------------------------------------------------------
# Path files

def parse_path(text: str) -> PathObj:
    sections = split_sections(text)
    sorts, f = _parse_signature(sections)
    pointing = _parse_sorted_elems(sections["pointing"], sorts) if "pointing" in sections else singleton_pointing(sorts)
    if "levels" not in sections:
        raise ModelParseError("missing [levels] section")
    # a level may span several lines, one per sort
    level_lines: dict[int, list[tuple[int, str]]] = {}
    for lineno, line in sections["levels"].lines:
        if ":" not in line:
            raise ModelParseError("expected '<k> : elements'", lineno)
        idx_text, rest = line.split(":", 1)
        rows = level_lines.setdefault(_parse_int(idx_text, lineno), [])
        if rest.strip():
            rows.append((lineno, rest.strip()))
    n = max(level_lines.keys(), default=0)
    levels = []
    for k in range(n + 1):
        if k not in level_lines:
            raise ModelParseError(f"missing level {k}")
        levels.append(_parse_sorted_elems(Section("level", level_lines[k]), sorts))
    fp1 = plus1(f)
    tables: list[dict[tuple[str, str], Term]] = [dict() for _ in range(n)]
    for lineno, line in sections.get("steps", Section("steps", [])).lines:
        if ":" not in line or "->" not in line:
            raise ModelParseError("expected '<k> : elem -> term'", lineno)
        idx_text, rest = line.split(":", 1)
        k = _parse_int(idx_text, lineno)
        if not 0 <= k < n:
            raise ModelParseError(f"step index {k} out of range", lineno)
        left, right = rest.split("->", 1)
        key = _sorted_key(left.strip(), levels[k], lineno)
        term = parse_term_text(right.strip(), fp1.node(key[0]), levels[k + 1], lineno)
        tables[k][key] = term
    path = make_path(f, pointing, levels, tables)
    problems = validate_path(path)
    if problems:
        raise ModelParseError("invalid path: " + "; ".join(problems))
    return path


def print_path(p: PathObj) -> str:
    lines = _signature_lines(p.functor)
    lines += ["[pointing]", *_elem_lines(p.pointing), "", "[levels]"]
    for k, level in enumerate(p.levels):
        lines.extend(f"{k} : {line}".rstrip() for line in _elem_lines(level) or [""])
    lines += ["", "[steps]"]
    fp1 = p.plus1()
    for k, step in enumerate(p.steps):
        for (s, e) in p.levels[k].pairs():
            lines.append(f"{k} : {_key(p.levels[k], s, e)} -> {print_term_for(fp1, s, step(s, e))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Carrier map files

def parse_map(text: str, dom: SortedSet, cod: SortedSet):
    from .sets import SortedFun

    sections = split_sections(text)
    if "map" not in sections:
        raise ModelParseError("missing [map] section")
    table: dict[tuple[str, str], str] = {}
    for lineno, line in sections["map"].lines:
        if "->" not in line:
            raise ModelParseError("expected 'x -> y'", lineno)
        left, right = (x.strip() for x in line.split("->", 1))
        key = _sorted_key(left, dom, lineno)
        target = _sorted_key(right, cod, lineno)
        if key[0] != target[0]:
            raise ModelParseError("map must preserve sorts", lineno)
        table[key] = target[1]
    return SortedFun(dom, cod, table)


# ---------------------------------------------------------------------------
# Precise-factorization problem files

@dataclass
class FactorProblem:
    functor: Functor
    domain: SortedSet
    codomain: SortedSet
    term_map: TermMap


def print_factor_problem(problem: FactorProblem) -> str:
    lines = _signature_lines(problem.functor)
    lines += ["[domain]", *_elem_lines(problem.domain), "", "[codomain]", *_elem_lines(problem.codomain), "", "[map]"]
    for (s, x) in problem.domain.pairs():
        term = print_term_for(problem.functor, s, problem.term_map(s, x))
        lines.append(f"{_key(problem.domain, s, x)} -> {term}")
    return "\n".join(lines) + "\n"


def parse_factor_problem(text: str) -> FactorProblem:
    sections = split_sections(text)
    sorts, f = _parse_signature(sections)
    if "domain" not in sections or "codomain" not in sections:
        raise ModelParseError("need [domain] and [codomain] sections")
    dom = _parse_sorted_elems(sections["domain"], sorts)
    cod = _parse_sorted_elems(sections["codomain"], sorts)
    table: dict[tuple[str, str], Term] = {}
    for lineno, line in sections.get("map", Section("map", [])).lines:
        if "->" not in line:
            raise ModelParseError("expected 'x -> term'", lineno)
        left, right = line.split("->", 1)
        key = _sorted_key(left.strip(), dom, lineno)
        table[key] = parse_term_text(right.strip(), f.node(key[0]), cod, lineno)
    return FactorProblem(f, dom, cod, TermMap(dom, TermSpace(f, cod), table))


# ---------------------------------------------------------------------------
# Category files

def parse_category(text: str) -> FiniteCategory:
    sections = split_sections(text)
    if "objects" not in sections:
        raise ModelParseError("missing [objects] section")
    objects = tuple(" ".join(line for _n, line in sections["objects"].lines).split())
    if not objects:
        raise ModelParseError("empty [objects] section")
    initial = objects[0]
    if "initial" in sections:
        initial = " ".join(line for _n, line in sections["initial"].lines).strip()
    morphisms: list[tuple[str, str, str]] = []
    for lineno, line in sections.get("morphisms", Section("m", [])).lines:
        m = re.fullmatch(r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)", line)
        if not m:
            raise ModelParseError("expected 'name : dom -> cod'", lineno)
        morphisms.append((m.group(1), m.group(2), m.group(3)))
    identities: dict[str, str] = {}
    for lineno, line in sections.get("identities", Section("i", [])).lines:
        m = re.fullmatch(r"(\S+)\s*:\s*(\S+)", line)
        if not m:
            raise ModelParseError("expected 'object : identity-name'", lineno)
        identities[m.group(1)] = m.group(2)
    comp: dict[tuple[str, str], str] = {}
    for lineno, line in sections.get("composition", Section("c", [])).lines:
        m = re.fullmatch(r"(\S+)\s+o\s+(\S+)\s*=\s*(\S+)", line)
        if not m:
            raise ModelParseError("expected 'g o f = h'", lineno)
        comp[(m.group(1), m.group(2))] = m.group(3)
    return FiniteCategory(objects, tuple(morphisms), identities, comp, initial)


def print_category(cat: FiniteCategory) -> str:
    lines = ["[objects]", " ".join(cat.objects), "", "[initial]", cat.initial, "", "[morphisms]"]
    for (name, d, c) in sorted(cat.morphisms):
        lines.append(f"{name} : {d} -> {c}")
    lines.append("")
    lines.append("[identities]")
    for obj in cat.objects:
        lines.append(f"{obj} : {cat.identities[obj]}")
    lines.append("")
    lines.append("[composition]")
    for (g, f), h in sorted(cat.comp.items()):
        lines.append(f"{g} o {f} = {h}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Register-automaton files

def parse_rnna(text: str) -> RnnaPresentation:
    sections = split_sections(text)
    if "states" not in sections:
        raise ModelParseError("missing [states] section")
    states: dict[str, int] = {}
    for lineno, line in sections["states"].lines:
        for chunk in line.split():
            m = re.fullmatch(r"(\S+)/(\d+)", chunk)
            if not m:
                raise ModelParseError("expected 'name/registers'", lineno)
            states[m.group(1)] = _parse_int(m.group(2), lineno)
    if "init" not in sections:
        raise ModelParseError("missing [init] section")
    init = " ".join(line for _n, line in sections["init"].lines).strip()
    rules: list[RnnaRule] = []
    for lineno, line in sections.get("rules", Section("r", [])).lines:
        m = re.fullmatch(r"(\S+)\s*->\s*ok", line)
        if m:
            rules.append(RnnaRule("ok", m.group(1)))
            continue
        m = re.fullmatch(r"(\S+)\s*->\s*bar\s+(\S+)\s*\[([^\]]*)\]", line)
        if m:
            sigma = tuple(_parse_int(x, lineno) for x in m.group(3).split())
            rules.append(RnnaRule("bind", m.group(1), m.group(2), sigma=sigma))
            continue
        m = re.fullmatch(r"(\S+)\s*->\s*reg\((\d+)\)\s+(\S+)\s*\[([^\]]*)\]", line)
        if m:
            sigma = tuple(_parse_int(x, lineno) for x in m.group(4).split())
            register = _parse_int(m.group(2), lineno)
            rules.append(RnnaRule("read", m.group(1), m.group(3), register=register, sigma=sigma))
            continue
        raise ModelParseError("unrecognized rule", lineno)
    return RnnaPresentation(states, init, tuple(rules))


def print_rnna(r: RnnaPresentation) -> str:
    lines = ["[states]", " ".join(f"{q}/{n}" for q, n in sorted(r.states.items())), "", "[init]", r.init, "", "[rules]"]
    for rule in r.rules:
        if rule.kind == "ok":
            lines.append(f"{rule.src} -> ok")
        elif rule.kind == "bind":
            lines.append(f"{rule.src} -> bar {rule.target} [{' '.join(str(j) for j in rule.sigma)}]")
        else:
            lines.append(
                f"{rule.src} -> reg({rule.register}) {rule.target} [{' '.join(str(j) for j in rule.sigma)}]"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Kind dispatch

def parse_model(text: str):
    """Parse any model file, dispatching on the sections present."""
    sections = split_sections(text)
    if "levels" in sections:
        return parse_path(text)
    if "objects" in sections:
        return parse_category(text)
    if "rules" in sections or ("states" in sections and "trans" not in sections and "init" in sections
                               and any("/" in line for _n, line in sections["states"].lines)):
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
    if isinstance(obj, FactorProblem):
        return print_factor_problem(obj)
    if isinstance(obj, FiniteCategory):
        return print_category(obj)
    if isinstance(obj, RnnaPresentation):
        return print_rnna(obj)
    raise CoalgError(f"cannot serialize {type(obj).__name__}")
