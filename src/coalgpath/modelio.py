"""Line-oriented text formats for systems, paths, categories and automata.

Files are split into ``[section]`` blocks; ``#`` outside a quoted name
starts a comment.  A name the bare-name grammar cannot carry is written
in double quotes wherever it stands; one that holds ``"`` cannot be
written.  A quoted name is a name wherever it stands, never punctuation,
a keyword or a sort prefix, and a bare punctuation mark is never a name.
``->`` is a token, so ``q0->q1`` reads as an arrow; a left side is
``[sort .] name``, as ``P.x`` or ``P."x y"`` (the sort is named in
multisorted files only).  The functor grammar is

    const(e1 e2 ...) | id | sort(S) | prod(f, ...) | coprod(f, ...)
    | compose(f, g) | analytic{ sym/arity [(1 2)(3 4), (1 3)] ; ... } | plus1(f) | pf(f)

where ``compose(f, g)`` is parsed as ``f`` with ``g`` substituted for
``id`` and the brackets list the generators of the slot group, separated
by commas, each a product of disjoint cycles.  Terms are written
``name``, ``(t, ..., t)``, ``in<k>(t)``, ``sym(t, ..., t)``; the glyphs
for the unit, the added point and the final marker have ASCII aliases
``unit``, ``bot`` and ``ok``, read as the glyphs wherever a name
stands.  Parsing a term is guided by the expected expression node, so
constant names and state names never clash; coproduct injections may
be left implicit when exactly one branch parses.  ``parse . print`` is
the identity on canonical files.
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
from .precise import TermMap
from .sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet, singleton_pointing

# a bare name; only a ``-`` looks ahead, since ``->`` never belongs to one
_NAME_CHAR = r"[A-Za-z0-9_*.:+'⊥•✓]"
NAME_RE = re.compile(rf"{_NAME_CHAR}+(?:-(?!>){_NAME_CHAR}*)*|-(?!>){_NAME_CHAR}*(?:-(?!>){_NAME_CHAR}*)*")
ALIASES = {"unit": UNIT, "bot": BOT, "ok": CHECK}
GLYPH_ASCII = {UNIT: "unit", BOT: "bot", CHECK: "ok"}


class ModelParseError(CoalgError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# ---------------------------------------------------------------------------
# Tokenizer

# one alternative per token: a quoted name, kept with its quotes (its
# text may hold anything but a quote), the arrow, a punctuation mark or a
# bare name; a last alternative outside the group catches any other
# character and reads as "", so a line is read by one scan
_PUNCT = "(){}[],;=/"
_TOKEN_RE = re.compile(rf'("[^"]*"|->|[{re.escape(_PUNCT)}]|{NAME_RE.pattern})|\S')
# the bare tokens that are no name
_MARKS = frozenset(["->", *_PUNCT])


def tokenize(text: str, line: int | None = None) -> list[str]:
    """The tokens of ``text``: a quoted name keeps its quotes, so no token
    is both a name and a punctuation mark."""
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:
        other = next(m.group() for m in _TOKEN_RE.finditer(text) if m.group(1) is None)
        if other == '"':
            raise ModelParseError("unterminated quoted name", line)
        raise ModelParseError(f"unexpected character {other!r}", line)
    return tokens


def _token(tokens: list[str], pos: int, line: int | None) -> str:
    """The token at ``pos``, which must be there."""
    if pos >= len(tokens):
        raise ModelParseError("unexpected end of input", line)
    return tokens[pos]


def _name(tokens: list[str], pos: int, line: int | None) -> str:
    """The name at ``pos``, without its quotes; a bare mark is no name."""
    tok = _token(tokens, pos, line)
    if tok[0] == '"':
        return tok[1:-1]
    if tok in _MARKS:
        raise ModelParseError(f"expected a name, got {tok!r}", line)
    return tok


def _elem(tokens: list[str], pos: int, line: int | None) -> str:
    """The element or constant name at ``pos``, an alias read as its glyph."""
    name = _name(tokens, pos, line)
    return ALIASES.get(name, name)


def _expect(tokens: list[str], pos: int, tok: str, line: int | None) -> int:
    """The position after the bare mark ``tok``, which must stand at ``pos``."""
    if _token(tokens, pos, line) != tok:
        raise ModelParseError(f"expected {tok!r}, got {tokens[pos]!r}", line)
    return pos + 1


def _parse_int(text: str, line: int | None = None) -> int:
    """A decimal integer read from model text."""
    try:
        return int(text)
    except ValueError:
        raise ModelParseError(f"expected an integer, got {text.strip()!r}", line) from None


def format_name(name: str) -> str:
    """Quote identifiers that the bare-name grammar cannot carry."""
    if NAME_RE.fullmatch(name):
        return name
    if '"' in name:
        raise CoalgError(f"name {name!r} holds a double quote, which no model file can carry")
    return f'"{name}"'


def _sort_name(sort: str, line: int | None = None) -> str:
    """A sort as a multisorted file writes it: a bare name, free of the
    ``.`` that ends an ``S.`` prefix and the ``:`` that ends an ``S :``
    line, since sorts are never quoted.  The reader refuses the same
    sorts as the printer, naming the ``[sorts]`` line."""
    if NAME_RE.fullmatch(sort) and "." not in sort and ":" not in sort:
        return sort
    raise ModelParseError(f"sort {sort!r} is no bare name free of '.' and ':', which no model file can carry", line)


# ---------------------------------------------------------------------------
# Functor expressions

# Caps on a functor expression, in the text and once compositions are
# substituted: its depth bounds the recursion of every term walker, its
# number of nodes the cost of hashing, comparing and walking it (each
# composition copies the inner expression into every leaf of the outer).
MAX_NESTING = 100
MAX_NODES = 10_000


def parse_functor_text(text: str, line: int | None = None) -> Node:
    tokens = tokenize(text, line)
    node, pos, _height, _size = _parse_node(tokens, 0, 1, line)
    if pos < len(tokens):
        raise ModelParseError(f"trailing input after functor expression: {tokens[pos]!r}", line)
    return node


def _parse_node(tokens: list[str], pos: int, depth: int, line: int | None) -> tuple[Node, int, int, int]:
    """The expression at ``pos``, at nesting ``depth``: its node, the
    position after it, and upper bounds on its height and on its number
    of nodes."""
    if depth > MAX_NESTING:
        raise ModelParseError(f"functor expression nested deeper than {MAX_NESTING} levels", line)
    head = _token(tokens, pos, line)
    pos += 1
    if head == "id":
        return SortRef(DEFAULT_SORT), pos, 1, 1
    if head == "sort":
        pos = _expect(tokens, pos, "(", line)
        name = _name(tokens, pos, line)
        return SortRef(name), _expect(tokens, pos + 1, ")", line), 1, 1
    if head == "const":
        pos = _expect(tokens, pos, "(", line)
        elems = []
        while _token(tokens, pos, line) != ")":
            elems.append(_elem(tokens, pos, line))
            pos += 1
        return Const(tuple(sorted(elems))), pos + 1, 1, 1
    if head in ("prod", "coprod"):
        parts = [_parse_node(tokens, _expect(tokens, pos, "(", line), depth + 1, line)]
        while _token(tokens, parts[-1][1], line) == ",":
            parts.append(_parse_node(tokens, parts[-1][1] + 1, depth + 1, line))
        pos = _expect(tokens, parts[-1][1], ")", line)
        nodes = tuple(p[0] for p in parts)
        height, size = 1 + max(p[2] for p in parts), 1 + sum(p[3] for p in parts)
        return (Prod(nodes) if head == "prod" else Coprod(nodes)), pos, height, size
    if head in ("plus1", "pf"):
        inner, pos, height, size = _parse_node(tokens, _expect(tokens, pos, "(", line), depth + 1, line)
        pos = _expect(tokens, pos, ")", line)
        if head == "plus1":
            return Coprod((inner, Const((BOT,)))), pos, height + 1, size + 2
        return Pf(inner), pos, height + 1, size + 1
    if head == "compose":
        outer, pos, outer_height, outer_size = _parse_node(tokens, _expect(tokens, pos, "(", line), depth + 1, line)
        inner, pos, inner_height, inner_size = _parse_node(tokens, _expect(tokens, pos, ",", line), depth + 1, line)
        pos = _expect(tokens, pos, ")", line)
        height, size = outer_height - 1 + inner_height, outer_size * inner_size
        if height > MAX_NESTING or size > MAX_NODES:
            raise ModelParseError(
                f"composite functor exceeds {MAX_NESTING} levels or {MAX_NODES} nodes once substituted", line
            )
        return compose(outer, functor(inner)), pos, height, size
    if head == "analytic":
        pos = _expect(tokens, pos, "{", line)
        symbols = []
        while True:
            name = _name(tokens, pos, line)
            pos = _expect(tokens, pos + 1, "/", line)
            # the trivial group checks the arity before any cycle is read
            group = PermGroup(_parse_int(_token(tokens, pos, line), line))
            pos += 1
            if _token(tokens, pos, line) == "[":
                pos += 1
                gens: list[tuple[int, ...]] = []
                while _token(tokens, pos, line) != "]":
                    if gens:
                        pos = _expect(tokens, pos, ",", line)
                    gen, pos = _parse_cycles(tokens, pos, group.arity, line)
                    gens.append(gen)
                pos += 1
                group = PermGroup(group.arity, tuple(gens))
            symbols.append(Symbol(name, (SortRef(DEFAULT_SORT),) * group.arity, group))
            if _token(tokens, pos, line) != ";":
                break
            pos += 1
        pos = _expect(tokens, pos, "}", line)
        return Analytic(tuple(symbols)), pos, 2, 1 + sum(len(sym.slots) for sym in symbols)
    raise ModelParseError(f"unknown functor constructor {head!r}", line)


def _parse_cycles(tokens: list[str], pos: int, arity: int, line: int | None) -> tuple[tuple[int, ...], int]:
    """The generator at ``pos`` and the position after it: disjoint
    cycles, written ``(1 2)(3 4)``; ``()`` is the identity."""
    perm = list(range(arity))
    moved: set[int] = set()
    while True:
        pos = _expect(tokens, pos, "(", line)
        cycle = []
        while _token(tokens, pos, line) != ")":
            cycle.append(_parse_int(tokens[pos], line) - 1)
            pos += 1
        pos += 1
        for i, slot in enumerate(cycle):
            if not 0 <= slot < arity:
                raise ModelParseError(f"cycle entry {slot + 1} out of range", line)
            if slot in moved:
                raise ModelParseError(f"cycle entry {slot + 1} repeated within one generator", line)
            moved.add(slot)
            perm[slot] = cycle[(i + 1) % len(cycle)]
        if _token(tokens, pos, line) != "(":
            return tuple(perm), pos


def print_functor_node(node: Node) -> str:
    if isinstance(node, SortRef):
        return "id" if node.sort == DEFAULT_SORT else f"sort({format_name(node.sort)})"
    if isinstance(node, Const):
        return "const(" + " ".join(map(format_name, node.elems)) + ")"
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


# ---------------------------------------------------------------------------
# Terms (parsed against an expected node)

def parse_term_text(text: str, node: Node, carrier: SortedSet, line: int | None = None) -> Term:
    return _term_to_end(tokenize(text, line), 0, node, carrier, line)


def _term_to_end(tokens: list[str], pos: int, node: Node, carrier: SortedSet, line: int | None) -> Term:
    """The term of ``node`` that runs from ``pos`` to the end of ``tokens``."""
    term, pos = _parse_term(tokens, pos, node, carrier, line)
    if pos < len(tokens):
        raise ModelParseError(f"trailing input after term: {tokens[pos]!r}", line)
    return term


_INJ_RE = re.compile(r"in\d+")


def _parse_term(tokens: list[str], pos: int, node: Node, carrier: SortedSet, line: int | None) -> tuple[Term, int]:
    """The term of ``node`` that starts at ``pos``, and the position after it.

    Every term accepted here passes ``term_in_functor``: constants are
    checked against the node, names against the carrier at their sort,
    and symbol terms are canonicalized as they are built.
    """
    if isinstance(node, SortRef):
        tok = _elem(tokens, pos, line)
        if not carrier.has(node.sort, tok):
            raise ModelParseError(f"{tok!r} is not an element of sort {node.sort!r}", line)
        return Var(node.sort, tok), pos + 1
    if isinstance(node, Prod):
        pos = _expect(tokens, pos, "(", line)
        args = []
        for i, part in enumerate(node.parts):
            if i:
                pos = _expect(tokens, pos, ",", line)
            arg, pos = _parse_term(tokens, pos, part, carrier, line)
            args.append(arg)
        return TupleTerm(tuple(args)), _expect(tokens, pos, ")", line)
    if isinstance(node, Const):
        tok = _elem(tokens, pos, line)
        if tok not in node.elems:
            raise ModelParseError(f"{tok!r} is not one of the constants {node.elems}", line)
        return ConstElem(tok), pos + 1
    if isinstance(node, Coprod):
        if pos < len(tokens) and _INJ_RE.fullmatch(tokens[pos]):
            tok = tokens[pos]
            index = int(tok[2:])
            if not 0 <= index < len(node.parts):
                raise ModelParseError(f"injection {tok} out of range", line)
            pos = _expect(tokens, pos + 1, "(", line)
            arg, pos = _parse_term(tokens, pos, node.parts[index], carrier, line)
            return Inj(index, arg), _expect(tokens, pos, ")", line)
        # implicit injection: exactly one branch must accept the term
        matches = []
        for i, part in enumerate(node.parts):
            try:
                arg, end = _parse_term(tokens, pos, part, carrier, line)
            except ModelParseError:
                continue
            matches.append((i, arg, end))
        if len(matches) == 1:
            i, arg, end = matches[0]
            return Inj(i, arg), end
        if not matches:
            raise ModelParseError("term fits no coproduct branch", line)
        raise ModelParseError("ambiguous coproduct term; use an explicit in<k>(...)", line)
    if isinstance(node, Analytic):
        name = _name(tokens, pos, line)
        try:
            sym = node.symbol(name)
        except TermError as exc:
            raise ModelParseError(str(exc), line) from None
        pos += 1
        args = []
        if sym.group.arity:
            pos = _expect(tokens, pos, "(", line)
            for i, slot in enumerate(sym.slots):
                if i:
                    pos = _expect(tokens, pos, ",", line)
                arg, pos = _parse_term(tokens, pos, slot, carrier, line)
                args.append(arg)
            pos = _expect(tokens, pos, ")", line)
        return ansym(sym.group, sym.name, tuple(args)), pos
    if isinstance(node, Pf):
        pos = _expect(tokens, pos, "{", line)
        args = []
        while pos >= len(tokens) or tokens[pos] != "}":
            if args:
                pos = _expect(tokens, pos, ",", line)
            arg, pos = _parse_term(tokens, pos, node.inner, carrier, line)
            args.append(arg)
        return SetOf(args), pos + 1
    raise ModelParseError(f"cannot parse a term of {node!r}", line)


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
            return format_name(t.name)
        if isinstance(node, Prod) and isinstance(t, TupleTerm):
            return "(" + ", ".join(walk(p, a) for p, a in zip(node.parts, t.args)) + ")"
        if isinstance(node, Analytic) and isinstance(t, AnSym):
            sym = node.symbol(t.sym)
            if not t.args:
                return format_name(t.sym)
            return format_name(t.sym) + "(" + ", ".join(walk(n, a) for n, a in zip(sym.slots, t.args)) + ")"
        if isinstance(node, Pf) and isinstance(t, SetOf):
            return "{" + ", ".join(walk(node.inner, a) for a in t.args) + "}"
        raise CoalgError(f"cannot print {t!r} against {node!r}")

    return walk(f.node(sort), term)


# ---------------------------------------------------------------------------
# Section splitting

# the numbered lines of a section, comments and blank lines left out
Lines = list[tuple[int, str]]

# a line up to its first ``#`` outside a quoted name; a quoted name with
# no closing quote runs to the end of the line
_UNCOMMENTED_RE = re.compile(r'(?:[^"#]|"[^"]*"?)*')


def _section(sections: dict[str, Lines], name: str) -> Lines:
    if name not in sections:
        raise ModelParseError(f"missing [{name}] section")
    return sections[name]


def split_sections(text: str) -> dict[str, Lines]:
    sections: dict[str, Lines] = {}
    current: Lines | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (_UNCOMMENTED_RE.match(raw).group() if "#" in raw else raw).strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ModelParseError(f"duplicate section [{name}]", lineno)
            current = sections[name] = []
            continue
        if current is None:
            raise ModelParseError("content before the first section header", lineno)
        current.append((lineno, line))
    return sections


def _parse_sorted_elems(lines: Lines, sorts: tuple[str, ...]) -> SortedSet:
    per_sort: dict[str, list[str]] = {s: [] for s in sorts}
    for lineno, line in lines:
        sort, colon, rest = line.partition(":")
        sort = sort.strip()
        # as _elem_lines writes them, sorts are named in multisorted files only
        if not (colon and sorts != (DEFAULT_SORT,) and sort in sorts):
            sort, rest = sorts[0], line
        tokens = tokenize(rest, lineno)
        for pos in range(len(tokens)):
            name = _elem(tokens, pos, lineno)
            if name in per_sort[sort]:
                raise ModelParseError(f"duplicate element {name!r}", lineno)
            per_sort[sort].append(name)
    return SortedSet.make(per_sort, sorts)


def _read_elem(tokens: list[str], pos: int, x: SortedSet, line: int) -> tuple[tuple[str, str], int]:
    """The element of ``x`` at ``pos`` and the position after it: ``P.x``
    or ``P."x y"`` (the tokens ``P.`` and ``"x y"``) where ``_key`` names
    the sort, else a name that lies in exactly one sort."""
    sort, dot, name = _token(tokens, pos, line).partition(".")
    if not (dot and x.sorts != (DEFAULT_SORT,) and sort in x.sorts):
        name = _elem(tokens, pos, line)
        hits = [s for s in x.sorts if x.has(s, name)]
        if len(hits) == 1:
            return (hits[0], name), pos + 1
        if not hits:
            raise ModelParseError(f"unknown element {name!r}", line)
        raise ModelParseError(f"ambiguous element {name!r}; qualify as sort.elem", line)
    if not name:
        pos += 1
        name = _name(tokens, pos, line)
    name = ALIASES.get(name, name)
    if not x.has(sort, name):
        raise ModelParseError(f"unknown element {name!r} of sort {sort!r}", line)
    return (sort, name), pos + 1


def _arrow_lines(lines: Lines, x: SortedSet, form: str, default: str | None = None):
    """Each ``left -> right`` line as its number, its tokens, the element
    of ``x`` on its left and the position after its arrow.  A line with
    no arrow has the left side ``default``, or is an error naming
    ``form``."""
    for lineno, line in lines:
        tokens = tokenize(line, lineno)
        if "->" not in tokens:
            if default is None:
                raise ModelParseError(f"expected {form!r}", lineno)
            tokens = [default, "->", *tokens]
        key, pos = _read_elem(tokens, 0, x, lineno)
        yield lineno, tokens, key, _expect(tokens, pos, "->", lineno)


def _elem_table(lines: Lines, dom: SortedSet, cod: SortedSet, what: str, default: str | None = None):
    """The ``x -> y`` lines of a pointing or a carrier map as a table from
    the elements of ``dom`` to the names of their images in ``cod``."""
    table: dict[tuple[str, str], str] = {}
    for lineno, tokens, key, pos in _arrow_lines(lines, dom, "x -> y", default):
        target, pos = _read_elem(tokens, pos, cod, lineno)
        if pos < len(tokens):
            raise ModelParseError(f"trailing input after element: {tokens[pos]!r}", lineno)
        if key[0] != target[0]:
            raise ModelParseError(f"{what} must stay within its sort", lineno)
        if key in table:
            raise ModelParseError(f"duplicate {what} for {_key(dom, *key)!r}", lineno)
        table[key] = target[1]
    return table


# ---------------------------------------------------------------------------
# Coalgebra files

def _parse_signature(sections: dict[str, Lines]) -> tuple[tuple[str, ...], Functor]:
    """The sorts listed in [sorts] (the default sort without one) and the
    functor of [functor]."""
    if "sorts" in sections:
        sorts = tuple(_sort_name(sort, lineno) for lineno, line in sections["sorts"] for sort in line.split())
    else:
        sorts = (DEFAULT_SORT,)
    section = _section(sections, "functor")
    if not section:
        raise ModelParseError("empty [functor] section")
    # a line names its sort by an '=' before its first quoted name
    named = ["=" in line.partition('"')[0] for _n, line in section]
    if len(sorts) == 1 and not any(named):
        text = " ".join(line for _n, line in section)
        return sorts, functor(parse_functor_text(text, section[0][0]))
    nodes: dict[str, Node] = {}
    for (lineno, line), has_sort in zip(section, named):
        if not has_sort:
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
    lines = ["[sorts]", " ".join(map(_sort_name, f.sorts)), "", "[functor]"]
    lines.extend(f"{s} = {print_functor_node(f.node(s))}" for s in f.sorts)
    return lines + [""]


def _elem_lines(x: SortedSet) -> list[str]:
    """The lines of a carrier section: the names alone over the default
    sort, else ``S : names`` for each sort with elements."""
    if x.sorts == (DEFAULT_SORT,):
        return [" ".join(format_name(e) for e in x.data[0])]
    return [f"{_sort_name(s)} : {' '.join(map(format_name, elems))}" for s, elems in zip(x.sorts, x.data) if elems]


def _key(x: SortedSet, sort: str, elem: str) -> str:
    """An element of ``x`` as ``_read_elem`` reads it."""
    return format_name(elem) if x.sorts == (DEFAULT_SORT,) else f"{_sort_name(sort)}." + format_name(elem)


def parse_coalgebra(text: str) -> PointedCoalgebra:
    sections = split_sections(text)
    sorts, f = _parse_signature(sections)
    carrier = _parse_sorted_elems(_section(sections, "states"), sorts)
    pointing = _parse_sorted_elems(sections["pointing"], sorts) if "pointing" in sections else singleton_pointing(sorts)
    point = _elem_table(_section(sections, "init"), pointing, carrier, "pointing", "*")
    xi: dict[tuple[str, str], list[Term]] = {key: [] for key in carrier.pairs()}
    for lineno, tokens, key, pos in _arrow_lines(sections.get("trans", []), carrier, "state -> term"):
        xi[key].append(_term_to_end(tokens, pos, f.node(key[0]), carrier, lineno))
    # each term was checked against the functor and the carrier as it was
    # parsed, so the system skips the constructor's second walk
    return PointedCoalgebra._built(
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
    fp1 = plus1(p.functor)
    for k, step in enumerate(p.steps):
        for (s, e) in p.levels[k].pairs():
            lines.append(f"{k} : {_key(p.levels[k], s, e)} -> {print_term_for(fp1, s, step(s, e))}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Carrier map files

def parse_map(text: str, dom: SortedSet, cod: SortedSet):
    return SortedFun(dom, cod, _elem_table(_section(split_sections(text), "map"), dom, cod, "image"))


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
    for lineno, tokens, key, pos in _arrow_lines(sections.get("map", []), dom, "x -> term"):
        if key in table:
            raise ModelParseError(f"duplicate image for {_key(dom, *key)!r}", lineno)
        table[key] = _term_to_end(tokens, pos, f.node(key[0]), cod, lineno)
    return FactorProblem(f, dom, cod, TermMap(dom, f, cod, table))


# ---------------------------------------------------------------------------
# Category files

def parse_category(text: str) -> FiniteCategory:
    sections = split_sections(text)
    objects: list[str] = []
    for lineno, line in _section(sections, "objects"):
        for obj in line.split():
            if obj in objects:
                raise ModelParseError(f"duplicate object {obj!r}", lineno)
            objects.append(obj)
    if not objects:
        raise ModelParseError("empty [objects] section")
    initial = objects[0]
    if "initial" in sections:
        initial_lines = sections["initial"]
        if not initial_lines:
            raise ModelParseError("empty [initial] section")
        initial = " ".join(line for _n, line in initial_lines).strip()
        if initial not in objects:
            raise ModelParseError(f"initial object {initial!r} is not an object", initial_lines[0][0])
    morphisms: list[tuple[str, str, str]] = []
    for lineno, line in sections.get("morphisms", []):
        m = re.fullmatch(r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)", line)
        if not m:
            raise ModelParseError("expected 'name : dom -> cod'", lineno)
        for end in (m.group(2), m.group(3)):
            if end not in objects:
                raise ModelParseError(f"morphism {m.group(1)!r} names {end!r}, which is not an object", lineno)
        morphisms.append((m.group(1), m.group(2), m.group(3)))
    used: list[tuple[str, int]] = []  # morphism names, checked once every line has parsed
    identities: dict[str, str] = {}
    for lineno, line in sections.get("identities", []):
        m = re.fullmatch(r"(\S+)\s*:\s*(\S+)", line)
        if not m:
            raise ModelParseError("expected 'object : identity-name'", lineno)
        if m.group(1) not in objects:
            raise ModelParseError(f"identity {m.group(2)!r} names {m.group(1)!r}, which is not an object", lineno)
        if m.group(1) in identities:
            raise ModelParseError(f"duplicate identity for {m.group(1)!r}", lineno)
        used.append((m.group(2), lineno))
        identities[m.group(1)] = m.group(2)
    comp: dict[tuple[str, str], str] = {}
    for lineno, line in sections.get("composition", []):
        m = re.fullmatch(r"(\S+)\s+o\s+(\S+)\s*=\s*(\S+)", line)
        if not m:
            raise ModelParseError("expected 'g o f = h'", lineno)
        if (m.group(1), m.group(2)) in comp:
            raise ModelParseError(f"duplicate composite for '{m.group(1)} o {m.group(2)}'", lineno)
        used.extend((name, lineno) for name in m.groups())
        comp[(m.group(1), m.group(2))] = m.group(3)
    names = {name for name, _d, _c in morphisms}
    for name, lineno in used:
        if name not in names:
            raise ModelParseError(f"{name!r} is not a morphism", lineno)
    return FiniteCategory(tuple(objects), tuple(morphisms), identities, comp, initial)


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


# ---------------------------------------------------------------------------
# Register-automaton files

def parse_rnna(text: str) -> RnnaPresentation:
    sections = split_sections(text)
    states: dict[str, int] = {}
    for lineno, line in _section(sections, "states"):
        for chunk in line.split():
            m = re.fullmatch(r"(\S+)/(\d+)", chunk)
            if not m:
                raise ModelParseError("expected 'name/registers'", lineno)
            if m.group(1) in states:
                raise ModelParseError(f"duplicate state {m.group(1)!r}", lineno)
            states[m.group(1)] = _parse_int(m.group(2), lineno)
    init = " ".join(line for _n, line in _section(sections, "init")).strip()
    rules: list[RnnaRule] = []
    for lineno, line in sections.get("rules", []):
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
        sigma = " ".join(str(j) for j in rule.sigma)
        if rule.kind == "ok":
            lines.append(f"{rule.src} -> ok")
        elif rule.kind == "bind":
            lines.append(f"{rule.src} -> bar {rule.target} [{sigma}]")
        else:
            lines.append(f"{rule.src} -> reg({rule.register}) {rule.target} [{sigma}]")
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
    if isinstance(obj, FactorProblem):
        return print_factor_problem(obj)
    if isinstance(obj, FiniteCategory):
        return print_category(obj)
    if isinstance(obj, RnnaPresentation):
        return print_rnna(obj)
    raise CoalgError(f"cannot serialize {type(obj).__name__}")
