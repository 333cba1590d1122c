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
    | compose(f, g) | analytic{ sym/arity [(1 2)(3 4), (1 3)] ; ... } | plus1(f)

where ``compose(f, g)`` is parsed as ``f`` with ``g`` substituted for
``id`` and the brackets list the generators of the slot group, separated
by commas, each a product of disjoint cycles.  ``pf(f)`` is refused: the
powerset is the implicit branching of G = Pf . F, never part of F.
Terms are written ``name``, ``(t, ..., t)``, ``in<k>(t)``,
``sym(t, ..., t)``; the glyphs for the unit, the added point and the
final marker have ASCII aliases ``unit``, ``bot`` and ``ok``, read as
the glyphs wherever a name stands.  Parsing a term is guided by the
expected expression node, so constant names and state names never
clash; coproduct injections may be left implicit when exactly one
branch parses.  The verbs read model
files and write only their results; the canonical writer of each model
kind lives beside the round-trip tests, in ``tests/model_writers.py``,
where ``parse . print`` is checked to be the identity on canonical files.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Container
from .coalgebra import PointedCoalgebra
from .functors import (
    BOT, BOT_CONST, CHECK, MAX_PRINT_DEPTH, NAME_RE, TOO_DEEP, UNIT,
    Analytic,
    AnSym,
    Const,
    ConstElem,
    Coprod,
    Functor,
    Inj,
    Node,
    Prod,
    SortRef,
    Symbol,
    Term,
    TermError,
    TupleTerm,
    UnitLeaf,
    Var,
    ansym,
    check_sort_leaves,
    compose,
    format_name,
    functor,
    multisorted,
    plus1_node,
)
from .groups import PermGroup
from .lasota import FiniteCategory
from .nominal import RnnaPresentation, RnnaRule, check_rule
from .precise import TermMap, element_labels
from .sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet, singleton_pointing

ALIASES = {"unit": UNIT, "bot": BOT, "ok": CHECK}
GLYPH_ASCII = {glyph: alias for alias, glyph in ALIASES.items()}


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


def parse_functor_text(text: str, line: int | None = None, sorts: Container[str] | None = None) -> Node:
    """The expression ``text``, read from ``line``; given ``sorts``, a sort
    leaf left once compositions are substituted that names none of them
    is refused there too, where the functor would refuse it line-less."""
    tokens = tokenize(text, line)
    node, pos, _height, _size = _parse_node(tokens, 0, 1, line)
    if pos < len(tokens):
        raise ModelParseError(f"trailing input after functor expression: {tokens[pos]!r}", line)
    if sorts is not None:
        try:
            check_sort_leaves([node], sorts)
        except TermError as exc:
            raise ModelParseError(str(exc), line) from None
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
    if head == "pf":
        # G = Pf . F: the powerset is the branching around F, and it has
        # no precise factorizations, so no path category comes out of it
        raise ModelParseError("the branching layer is implicit; F must be powerset-free", line)
    if head == "plus1":
        inner, pos, height, size = _parse_node(tokens, _expect(tokens, pos, "(", line), depth + 1, line)
        return plus1_node(inner), _expect(tokens, pos, ")", line), height + 1, size + 2
    if head == "compose":
        outer, pos, outer_height, outer_size = _parse_node(tokens, _expect(tokens, pos, "(", line), depth + 1, line)
        inner, pos, inner_height, inner_size = _parse_node(tokens, _expect(tokens, pos, ",", line), depth + 1, line)
        pos = _expect(tokens, pos, ")", line)
        height, size = outer_height - 1 + inner_height, outer_size * inner_size
        if height > MAX_NESTING or size > MAX_NODES:
            raise ModelParseError(
                f"composite functor exceeds {MAX_NESTING} levels or {MAX_NODES} nodes once substituted", line
            )
        return compose(outer, inner), pos, height, size
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
        if len(matches) > 1:
            # the printer writes the added point bare: a term that fits its
            # summand is the added point, whatever else it fits
            matches = [m for m in matches if node.parts[m[0]] == BOT_CONST] or matches
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
    raise ModelParseError(f"cannot parse a term of {node!r}", line)


def print_term_for(f: Functor, sort: str, term: Term, memo: dict | None = None) -> str:
    """``term`` written against the expression of ``f`` at ``sort``.

    A sort leaf that holds a nested term instead of a variable, as in a
    composite value of (F+1)^n(1), is read against ``f`` again.  Each
    such nested term object, and ``term`` itself, is printed once per
    memo, as :func:`functors.print_term` prints a subterm: kept under
    ``(sort, id(term))`` in the entry ``(term, text, depth)``, whose term
    keeps its id from being taken over.  A caller that passes ``memo``, a
    dict it keeps for terms of one functor, shares the entries between
    calls; without one, they last for the call.

    A term nesting deeper than ``MAX_PRINT_DEPTH`` raises
    :class:`TermError`; the walk stops on the way down, at the first
    level too deep, so Python's recursion limit is not reached first.
    """
    if memo is None:
        memo = {}
    key = (sort, id(term))
    kept = memo.get(key)
    if kept is None:
        text, depth = _text_for(f, memo, f.node(sort), term, MAX_PRINT_DEPTH)
        if depth > MAX_PRINT_DEPTH:
            raise TermError(TOO_DEEP)
        memo[key] = term, text, depth
        return text
    return kept[1]


def _text_for(f: Functor, memo: dict, node: Node, t: Term, room: int) -> tuple[str, int]:
    """The text of ``t`` against ``node`` and how many term levels nest
    in it, where ``MAX_PRINT_DEPTH - room`` levels nest above it."""
    if room < 0:
        raise TermError(TOO_DEEP)
    if isinstance(t, UnitLeaf):
        return UNIT, 0
    if isinstance(node, SortRef):
        if isinstance(t, Var):
            return format_name(t.name), 0
        # read, refused and kept in this frame: each level of a composite
        # of (F+1)^n(1) then costs at most two frames, so the walk refuses
        # a term before the recursion limit
        key = (node.sort, id(t))
        kept = memo.get(key)
        if kept is None:
            text, depth = _text_for(f, memo, f.node(node.sort), t, room)
            if depth > MAX_PRINT_DEPTH:
                raise TermError(TOO_DEEP)
            memo[key] = t, text, depth
            return text, depth
        return kept[1], kept[2]
    if isinstance(node, Coprod) and isinstance(t, Inj):
        branch = node.parts[t.index]
        if branch == BOT_CONST:
            return BOT, 1
        text, depth = _text_for(f, memo, branch, t.arg, room - 1)
        return f"in{t.index}({text})", depth + 1
    # a product or analytic body: its arguments joined in one loop
    if isinstance(node, Analytic) and isinstance(t, AnSym):
        nodes = node.symbol(t.sym).slots
        if not t.args:
            return format_name(t.sym), 1
        head, close = format_name(t.sym) + "(", ")"
    elif isinstance(node, Prod) and isinstance(t, TupleTerm):
        nodes, head, close = node.parts, "(", ")"
    elif isinstance(node, Const) and isinstance(t, ConstElem):
        return format_name(t.name), 0
    else:
        raise CoalgError(f"cannot print {t!r} against {node!r}")
    texts = []
    depth = 0
    for n, a in zip(nodes, t.args):
        text, d = _text_for(f, memo, n, a, room - 1)
        texts.append(text)
        if d > depth:
            depth = d
    return head + ", ".join(texts) + close, depth + 1


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
    seen: set[tuple[str, str]] = set()
    for lineno, line in lines:
        sort, colon, rest = line.partition(":")
        sort = sort.strip()
        # sorts are named in multisorted files only, as the writers name them
        if not (colon and sorts != (DEFAULT_SORT,) and sort in per_sort):
            sort, rest = sorts[0], line
        tokens = tokenize(rest, lineno)
        for pos in range(len(tokens)):
            name = _elem(tokens, pos, lineno)
            if (sort, name) in seen:
                raise ModelParseError(f"duplicate element {name!r}", lineno)
            seen.add((sort, name))
            per_sort[sort].append(name)
    return SortedSet.make(per_sort, sorts)


def _read_elem(tokens: list[str], pos: int, x: SortedSet, line: int) -> tuple[tuple[str, str], int]:
    """The element of ``x`` at ``pos`` and the position after it: ``P.x``
    or ``P."x y"`` (the tokens ``P.`` and ``"x y"``) where ``_key`` names
    the sort, else a name that lies in exactly one sort."""
    sort, dot, name = _token(tokens, pos, line).partition(".")
    if not (dot and x.sorts != (DEFAULT_SORT,) and sort in x._members):
        name = _elem(tokens, pos, line)
        hits = [s for s in x.sorts if x.has(s, name)] if len(x.sorts) == 1 else x._sorts_of.get(name, ())
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
    functor of [functor]; files whose two sections hold the same numbered
    lines share one functor object, so what is kept on it is derived once."""
    sorts, section = sections.get("sorts"), sections.get("functor")
    return _signature(None if sorts is None else tuple(sorts), None if section is None else tuple(section))


# keyed by numbered lines, so every error names its own line; a raised
# error is never cached
@functools.lru_cache(maxsize=32)
def _signature(sort_lines: tuple | None, section: tuple | None) -> tuple[tuple[str, ...], Functor]:
    # the sorts in the order listed, and as a set for the membership tests
    listed = [DEFAULT_SORT] if sort_lines is None else []
    known = set(listed)
    for lineno, line in sort_lines or ():
        for sort in line.split():
            if _sort_name(sort, lineno) in known:
                raise ModelParseError(f"duplicate sort {sort!r}", lineno)
            known.add(sort)
            listed.append(sort)
    sorts = tuple(listed)
    if section is None:
        raise ModelParseError("missing [functor] section")
    if not section:
        raise ModelParseError("empty [functor] section")
    # a line names its sort by an '=' before its first quoted name
    named = ["=" in line.partition('"')[0] for _n, line in section]
    if len(sorts) == 1 and not any(named):
        text = " ".join(line for _n, line in section)
        return sorts, functor(parse_functor_text(text, section[0][0], sorts))
    nodes: dict[str, Node] = {}
    for (lineno, line), has_sort in zip(section, named):
        if not has_sort:
            raise ModelParseError("expected '<sort> = <functor>'", lineno)
        sort, expr = line.split("=", 1)
        sort = sort.strip()
        if sort not in known:
            raise ModelParseError(f"unknown sort {sort!r}", lineno)
        if sort in nodes:
            raise ModelParseError(f"duplicate expression for sort {sort!r}", lineno)
        nodes[sort] = parse_functor_text(expr, lineno, known)
    missing = [s for s in sorts if s not in nodes]
    if missing:
        raise ModelParseError(f"no functor expression for sorts {missing}")
    return sorts, multisorted(sorts, nodes)


def _key(x: SortedSet, sort: str, elem: str) -> str:
    """An element of ``x`` as ``_read_elem`` reads it."""
    return format_name(elem) if x.sorts == (DEFAULT_SORT,) else f"{_sort_name(sort)}." + format_name(elem)


def _state_names(x: SortedSet) -> dict[tuple[str, str], str]:
    """Each element of ``x`` as the verbs write it: by its name, or as
    :func:`_key` writes it where :func:`element_labels` qualifies it."""
    return {
        (s, e): format_name(e) if label == e else _key(x, s, e)
        for (s, e), label in zip(x.pairs(), element_labels(x))
    }


class _FlatReads(dict):
    """What a token reads as in a flat ``[trans]`` line, worked out the
    first time it is seen: under ``(None, tok)`` the state on a line's
    left, as :func:`_read_elem` reads it; under ``(sort, tok)`` and
    ``(constants, tok)`` the term it is in a slot of that sort or of those
    constants, as ``_parse_term`` reads it.  ``None`` where the token is
    no such thing.  On a single-sort carrier, a state whose name is a bare
    name and no alias is filled in at the start: its token is its name."""

    def __init__(self, carrier: SortedSet):
        super().__init__()
        self.carrier = carrier
        if carrier.sorts == (DEFAULT_SORT,):
            for key in carrier.pairs():
                if key[1] not in ALIASES and NAME_RE.fullmatch(key[1]):
                    self[None, key[1]] = key
                    self[key] = Var(*key)

    def __missing__(self, key):
        slot, tok = key
        hit = None
        try:
            if slot is None:
                hit = _read_elem([tok], 0, self.carrier, None)[0]
            elif slot.__class__ is str:
                if self.carrier.has(slot, name := _elem([tok], 0, None)):
                    hit = Var(slot, name)
            elif (name := _elem([tok], 0, None)) in slot:
                hit = ConstElem(name)
        except ModelParseError:
            pass
        self[key] = hit
        return hit


def _flat_forms(node: Node) -> dict[str, tuple | None]:
    """The flat term forms of ``node`` by their first token, each as the
    token count of its line, the position of its first slot, the slot
    keys of :class:`_FlatReads`, the marks around the slots (every other
    token from the one before the first slot) and the symbol (``None``
    for a tuple); ``None`` for a form that is not flat.  A product, or an
    analytic symbol, is flat when every slot is a sort or a constant."""

    def form(at: int, slots: tuple[Node, ...], sym: Symbol | None) -> tuple | None:
        keys = [s.sort if isinstance(s, SortRef) else s.elems if isinstance(s, Const) else None for s in slots]
        marks = ["(", *[","] * (len(keys) - 1), ")"] if keys else []
        return None if None in keys else (at - 1 + len(marks) + len(keys), at, keys, marks, sym)

    if isinstance(node, Prod):
        return {"(": form(3, node.parts, None)}
    if isinstance(node, Analytic):
        return {format_name(sym.name): form(4, sym.slots, sym) for sym in node.symbols}
    return {}


def parse_coalgebra(text: str) -> PointedCoalgebra:
    sections = split_sections(text)
    sorts, f = _parse_signature(sections)
    carrier = _parse_sorted_elems(_section(sections, "states"), sorts)
    pointing = _parse_sorted_elems(sections["pointing"], sorts) if "pointing" in sections else singleton_pointing(sorts)
    point = _elem_table(_section(sections, "init"), pointing, carrier, "pointing", "*")
    xi: dict[tuple[str, str], list[Term]] = {key: [] for key in carrier.pairs()}
    forms = {sort: _flat_forms(node) for sort, node in f.nodes}
    reads = _FlatReads(carrier)
    for lineno, line in sections.get("trans", []):
        tokens = tokenize(line, lineno)
        # a line whose term has a flat form is read with no call per token
        key = len(tokens) > 2 and tokens[1] == "->" and reads[None, tokens[0]]
        form = key and forms[key[0]].get(tokens[2])
        if form:
            size, at, keys, marks, sym = form
            if len(tokens) == size and tokens[at - 1::2] == marks:
                args = [reads[k, tok] for k, tok in zip(keys, tokens[at::2])]
                if None not in args:
                    xi[key].append(TupleTerm(tuple(args)) if sym is None else ansym(sym.group, sym.name, args))
                    continue
        # any other line, or one that misses anywhere, is read by the
        # recursive parser, which words every parse message
        [(_n, tokens, key, pos)] = _arrow_lines([(lineno, line)], carrier, "state -> term")
        xi[key].append(_term_to_end(tokens, pos, f.node(key[0]), carrier, lineno))
    # each term was checked against the functor and the carrier as it was
    # parsed, so the system skips the constructor's second walk
    return PointedCoalgebra._built(
        f, pointing, carrier, point, {k: tuple(sorted(set(v))) for k, v in xi.items()}
    )


# ---------------------------------------------------------------------------
# Carrier map files

def parse_map(text: str, dom: SortedSet, cod: SortedSet):
    return SortedFun(dom, cod, _elem_table(_section(split_sections(text), "map"), dom, cod, "image"))


# ---------------------------------------------------------------------------
# Precise-factorization problem files

def parse_factor_problem(text: str) -> TermMap:
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
    return TermMap(dom, f, cod, table)


# ---------------------------------------------------------------------------
# Category files

def parse_category(text: str) -> FiniteCategory:
    sections = split_sections(text)
    objects: list[str] = []
    known: set[str] = set()  # the objects, for membership
    for lineno, line in _section(sections, "objects"):
        for obj in line.split():
            if obj in known:
                raise ModelParseError(f"duplicate object {obj!r}", lineno)
            # the objects are the sorts of the Lasota functor, whose
            # elements would label alike as sort.name (a.b's p, a's b.p)
            if "." in obj:
                raise ModelParseError(f"object {obj!r} holds a '.', which no sort name can carry", lineno)
            known.add(obj)
            objects.append(obj)
    if not objects:
        raise ModelParseError("empty [objects] section")
    initial = objects[0]
    if "initial" in sections:
        initial_lines = sections["initial"]
        if not initial_lines:
            raise ModelParseError("empty [initial] section")
        initial = " ".join(line for _n, line in initial_lines).strip()
        if initial not in known:
            raise ModelParseError(f"initial object {initial!r} is not an object", initial_lines[0][0])
    morphisms: list[tuple[str, str, str]] = []
    for lineno, line in sections.get("morphisms", []):
        m = re.fullmatch(r"(\S+)\s*:\s*(\S+)\s*->\s*(\S+)", line)
        if not m:
            raise ModelParseError("expected 'name : dom -> cod'", lineno)
        for end in (m.group(2), m.group(3)):
            if end not in known:
                raise ModelParseError(f"morphism {m.group(1)!r} names {end!r}, which is not an object", lineno)
        morphisms.append((m.group(1), m.group(2), m.group(3)))
    used: list[tuple[str, int]] = []  # morphism names, checked once every line has parsed
    identities: dict[str, str] = {}
    for lineno, line in sections.get("identities", []):
        m = re.fullmatch(r"(\S+)\s*:\s*(\S+)", line)
        if not m:
            raise ModelParseError("expected 'object : identity-name'", lineno)
        if m.group(1) not in known:
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
    init_lines = _section(sections, "init")
    init = " ".join(line for _n, line in init_lines).strip()
    if init not in states:
        raise ModelParseError(f"unknown initial control state {init!r}", init_lines[0][0] if init_lines else None)
    rules: list[RnnaRule] = []
    for lineno, line in sections.get("rules", []):
        if m := re.fullmatch(r"(\S+)\s*->\s*ok", line):
            rule = RnnaRule("ok", m.group(1))
        elif m := re.fullmatch(r"(\S+)\s*->\s*bar\s+(\S+)\s*\[([^\]]*)\]", line):
            sigma = tuple(_parse_int(x, lineno) for x in m.group(3).split())
            rule = RnnaRule("bind", m.group(1), m.group(2), sigma=sigma)
        elif m := re.fullmatch(r"(\S+)\s*->\s*reg\((\d+)\)\s+(\S+)\s*\[([^\]]*)\]", line):
            sigma = tuple(_parse_int(x, lineno) for x in m.group(4).split())
            register = _parse_int(m.group(2), lineno)
            rule = RnnaRule("read", m.group(1), m.group(3), register=register, sigma=sigma)
        else:
            raise ModelParseError("unrecognized rule", lineno)
        try:
            check_rule(rule, states)
        except CoalgError as exc:
            raise ModelParseError(str(exc), lineno) from None
        rules.append(rule)
    return RnnaPresentation(states, init, tuple(rules))
