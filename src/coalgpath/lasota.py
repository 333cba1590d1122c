"""Encoding a finite category as a multisorted powerset coalgebra situation.

Objects become sorts; the step functor sends a sorted family to, per
sort P, the coproduct over Q of hom(P,Q) x X_Q (empty hom-sets are
dropped).  The pointing is the characteristic family: a singleton at the
distinguished initial object and empty elsewhere.  Paths out of that
pointing then correspond exactly to composable morphism sequences, which
``paths_bijection_check`` verifies by enumerating both sides.  Its
second criterion, that a one-element map out of the pointing is precise
exactly when the pointing is characteristic, is decided per sort from
the leaf counts of the sort's shapes, for every carrier at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .functors import (
    Const,
    Coprod,
    Functor,
    Prod,
    SortRef,
    _leaf_states,
    multisorted,
    read_letter,
)
from .precise import element_shapes, precise_chains
from .sets import CoalgError, SortedSet, singleton_pointing

POINT_ELEM = "*"


@dataclass
class FiniteCategory:
    objects: tuple[str, ...]
    morphisms: tuple[tuple[str, str, str], ...]  # (name, dom, cod)
    identities: dict[str, str]                   # object -> identity morphism name
    comp: dict[tuple[str, str], str]             # (g, f) -> g . f  when cod(f) = dom(g)
    initial: str

    def dom(self, m: str) -> str:
        return self._mor(m)[1]

    def cod(self, m: str) -> str:
        return self._mor(m)[2]

    def _mor(self, name: str) -> tuple[str, str, str]:
        for m in self.morphisms:
            if m[0] == name:
                return m
        raise CoalgError(f"unknown morphism {name!r}")

    def hom(self, p: str, q: str) -> tuple[str, ...]:
        return tuple(sorted(name for name, d, c in self.morphisms if d == p and c == q))


@dataclass
class CategoryViolation:
    kind: str
    detail: str


def validate_category(cat: FiniteCategory) -> list[CategoryViolation]:
    """Totality of composition, identity laws, associativity."""
    problems: list[CategoryViolation] = []
    names = [m[0] for m in cat.morphisms]
    if len(set(names)) != len(names):
        problems.append(CategoryViolation("duplicate", f"duplicate morphism names: {names}"))
        return problems
    if cat.initial not in cat.objects:
        problems.append(CategoryViolation("initial", f"initial object {cat.initial!r} unknown"))
    misplaced = set()
    for obj in cat.objects:
        ident = cat.identities.get(obj)
        if ident is None:
            problems.append(CategoryViolation("identity", f"no identity for {obj!r}"))
            return problems
        if cat.dom(ident) != obj or cat.cod(ident) != obj:
            problems.append(CategoryViolation("identity", f"identity of {obj!r} has wrong end points"))
            misplaced.add(obj)
    for (gname, gd, gc) in cat.morphisms:
        for (fname, fd, fc) in cat.morphisms:
            if fc != gd:
                continue
            h = cat.comp.get((gname, fname))
            if h is None:
                problems.append(CategoryViolation("totality", f"missing composite {gname} o {fname}"))
                return problems
            if cat.dom(h) != fd or cat.cod(h) != gc:
                problems.append(CategoryViolation("typing", f"composite {gname} o {fname} = {h} ill-typed"))
    for obj in cat.objects:
        if obj in misplaced:
            continue  # its identity laws would compose pairs that do not compose
        ident = cat.identities[obj]
        for (fname, fd, fc) in cat.morphisms:
            if fd == obj and cat.comp.get((fname, ident)) != fname:
                problems.append(CategoryViolation("identity-law", f"{fname} o {ident} != {fname}"))
            if fc == obj and cat.comp.get((ident, fname)) != fname:
                problems.append(CategoryViolation("identity-law", f"{ident} o {fname} != {fname}"))
    if any(v.kind == "typing" for v in problems):
        return problems  # associativity would compose an ill-typed composite further
    for (hname, hd, hc) in cat.morphisms:
        for (gname, gd, gc) in cat.morphisms:
            if gc != hd:
                continue
            for (fname, fd, fc) in cat.morphisms:
                if fc != gd:
                    continue
                left = cat.comp.get((cat.comp[(hname, gname)], fname))
                right = cat.comp.get((hname, cat.comp[(gname, fname)]))
                if left != right:
                    problems.append(
                        CategoryViolation(
                            "associativity", f"({hname} o {gname}) o {fname} = {left} != {right}"
                        )
                    )
    return problems


def lasota_functor(cat: FiniteCategory) -> Functor:
    """Per sort P: the coproduct over Q of hom(P,Q) x X_Q, empty summands dropped."""
    nodes = {}
    for p in cat.objects:
        summands = []
        for q in cat.objects:
            hom = cat.hom(p, q)
            if hom:
                summands.append(Prod((Const(hom), SortRef(q))))
        nodes[p] = Coprod(tuple(summands))
    return multisorted(cat.objects, nodes)


def lasota_pointing(cat: FiniteCategory) -> SortedSet:
    return singleton_pointing(tuple(cat.objects), at=cat.initial, name=POINT_ELEM)


def composable_sequences(cat: FiniteCategory, n: int) -> list[tuple[str, ...]]:
    """All sequences of n composable morphisms starting at the initial object."""
    if n == 0:
        return [()]
    out: list[tuple[str, ...]] = []

    def rec(at: str, acc: tuple[str, ...]):
        if len(acc) == n:
            out.append(acc)
            return
        for (name, d, _c) in sorted(cat.morphisms):
            if d == at:
                rec(cat.cod(name), acc + (name,))

    rec(cat.initial, ())
    return sorted(out)


def _lasota_paths_by_length(cat: FiniteCategory, f: Functor, n: int) -> list[list[tuple[str, ...]]]:
    """Per length up to n, the morphism sequences read off the paths of
    that length out of the pointing, sorted.  Paths are the chains of
    precise maps of ``precise_chains``; by the characteristic-family
    structure every level is a singleton at one sort, and each step maps
    its one element to the letter ``(m, v)`` of one morphism m."""
    by_length: list[list[tuple[str, ...]]] = [[] for _ in range(n + 1)]
    for chain in precise_chains(f, lasota_pointing(cat), n):
        if any(len(step.table) != 1 for step in chain):
            raise CoalgError("lasota path level did not decode to one morphism")
        letters = [read_letter(term)[0] for step in chain for term in step.table.values()]
        by_length[len(chain)].append(tuple(mor for _index, mor in letters))
    return [sorted(sequences) for sequences in by_length]


@dataclass
class BijectionReport:
    per_length: list[tuple[int, int, int]] = field(default_factory=list)  # (n, paths, sequences)
    precise_ok: bool = True
    mismatches: list[str] = field(default_factory=list)  # none when the check holds


def _precise_iff_characteristic(f: Functor) -> list[str]:
    """Where the precise-iff-characteristic criterion fails for one-element
    maps out of each sort, over every carrier: one line per shape whose
    leaf count is not 1.

    The map picking ``t`` is precise iff ``t`` uses every element of the
    carrier exactly once.  So a shape with one leaf is precise exactly
    over its one element; a shape without leaves is precise over the empty
    carrier, and one with k >= 2 leaves over the carrier of its own k
    leaves, neither of which has one element.
    """
    lines = []
    for p in f.sorts:
        for shape in element_shapes(f, p):
            n = len(_leaf_states(f, p, shape))
            if n != 1:
                lines.append(f"precise-iff-characteristic fails at sort {p}: shape {shape!r} has {n} leaves")
    return lines


def paths_bijection_check(cat: FiniteCategory, n: int) -> BijectionReport:
    """Paths of length <= n against composable sequences, plus the
    precise-iff-characteristic criterion for maps out of the pointing."""
    report = BijectionReport()
    f = lasota_functor(cat)
    for length, paths in enumerate(_lasota_paths_by_length(cat, f, n)):
        seqs = composable_sequences(cat, length)
        report.per_length.append((length, len(paths), len(seqs)))
        if paths != seqs:
            report.mismatches.append(f"length {length}: paths {paths} != sequences {seqs}")
    mismatches = _precise_iff_characteristic(f)
    if mismatches:
        report.precise_ok = False
        report.mismatches.extend(mismatches)
    return report
