"""Encoding a finite category as a multisorted powerset coalgebra situation.

Objects become sorts; the step functor sends a sorted family to, per
sort P, the coproduct over Q of hom(P,Q) x X_Q (empty hom-sets are
dropped).  The pointing is the characteristic family: a singleton at the
distinguished initial object and empty elsewhere.  Paths out of that
pointing then correspond exactly to composable morphism sequences, which
``paths_bijection_check`` verifies by enumerating both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .functors import Const, Coprod, Functor, Inj, Prod, SortRef, TupleTerm, multisorted
from .precise import TermMap, TermSpace, enumerate_precise_maps, is_precise
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
    for obj in cat.objects:
        ident = cat.identities.get(obj)
        if ident is None:
            problems.append(CategoryViolation("identity", f"no identity for {obj!r}"))
            return problems
        if cat.dom(ident) != obj or cat.cod(ident) != obj:
            problems.append(CategoryViolation("identity", f"identity of {obj!r} has wrong end points"))
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
        ident = cat.identities[obj]
        for (fname, fd, fc) in cat.morphisms:
            if fd == obj and cat.comp.get((fname, ident)) != fname:
                problems.append(CategoryViolation("identity-law", f"{fname} o {ident} != {fname}"))
            if fc == obj and cat.comp.get((ident, fname)) != fname:
                problems.append(CategoryViolation("identity-law", f"{ident} o {fname} != {fname}"))
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


def lasota_summand_targets(cat: FiniteCategory, p: str) -> list[str]:
    """The Q for each coproduct summand of the sort-P expression, in order."""
    return [q for q in cat.objects if cat.hom(p, q)]


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


def _decode_step(cat: FiniteCategory, p: str, step: TermMap) -> tuple[str, str] | None:
    """Read off (morphism, target object) from a one-element precise step."""
    items = list(step.table.items())
    if len(items) != 1:
        return None
    (_key, term) = items[0]
    if not (isinstance(term, Inj) and isinstance(term.arg, TupleTerm)):
        return None
    q = lasota_summand_targets(cat, p)[term.index]
    mor = term.arg.args[0].name  # type: ignore[union-attr]
    return mor, q


def enumerate_lasota_paths(cat: FiniteCategory, n: int) -> list[tuple[str, ...]]:
    """Morphism sequences read off the paths of length n out of the pointing.

    Paths are enumerated with the generic precise-map enumerator level by
    level; by the characteristic-family structure every level is a
    singleton at one sort and each step carries exactly one morphism.
    """
    f = lasota_functor(cat)
    sequences: list[tuple[str, ...]] = []

    def rec(level: SortedSet, at: str, acc: tuple[str, ...]):
        if len(acc) == n:
            sequences.append(acc)
            return
        for codomain, step in enumerate_precise_maps(level, f):
            decoded = _decode_step(cat, at, step)
            if decoded is None:
                raise CoalgError("lasota path level did not decode to one morphism")
            mor, q = decoded
            rec(codomain, q, acc + (mor,))

    rec(lasota_pointing(cat), cat.initial, ())
    return sorted(sequences)


@dataclass
class BijectionReport:
    ok: bool
    per_length: list[tuple[int, int, int]] = field(default_factory=list)  # (n, paths, sequences)
    precise_ok: bool = True
    mismatches: list[str] = field(default_factory=list)


def _all_small_carriers(sorts: tuple[str, ...], max_per_sort: int) -> Iterator[SortedSet]:
    import itertools

    for sizes in itertools.product(range(max_per_sort + 1), repeat=len(sorts)):
        yield SortedSet(
            sorts,
            tuple(tuple(f"y{i}" for i in range(k)) for k in sizes),
        )


def _is_characteristic(y: SortedSet) -> bool:
    return y.size() == 1


def paths_bijection_check(cat: FiniteCategory, n: int, max_y: int = 2) -> BijectionReport:
    """Paths of length <= n against composable sequences, plus the
    precise-iff-characteristic criterion for maps out of the pointing."""
    report = BijectionReport(ok=True)
    for length in range(n + 1):
        paths = enumerate_lasota_paths(cat, length)
        seqs = composable_sequences(cat, length)
        report.per_length.append((length, len(paths), len(seqs)))
        if paths != seqs:
            report.ok = False
            report.mismatches.append(f"length {length}: paths {paths} != sequences {seqs}")
    f = lasota_functor(cat)
    from .functors import eval_functor

    for p in cat.objects:
        chi_p = singleton_pointing(tuple(cat.objects), at=p, name=POINT_ELEM)
        for y in _all_small_carriers(tuple(cat.objects), max_y):
            terms = eval_functor(f, y)[p]
            for t in terms:
                tm = TermMap(chi_p, TermSpace(f, y), {(p, POINT_ELEM): t})
                expected = _is_characteristic(y)
                got = is_precise(tm)
                if got != expected:
                    report.ok = False
                    report.precise_ok = False
                    report.mismatches.append(
                        f"precise-iff-characteristic fails at sort {p}, carrier {y.data}, term {t!r}"
                    )
    return report


# ---------------------------------------------------------------------------
# Example categories used in tests and the CLI

def poset_category(chain: int) -> FiniteCategory:
    """The poset 0 -> 1 -> ... -> (chain-1) as a category."""
    objects = tuple(str(i) for i in range(chain))
    morphisms = []
    identities = {}
    for i in range(chain):
        identities[str(i)] = f"id{i}"
    for i in range(chain):
        for j in range(i, chain):
            name = f"id{i}" if i == j else f"m{i}{j}"
            morphisms.append((name, str(i), str(j)))
    comp = {}
    for (g, gd, gc) in morphisms:
        for (f, fd, fc) in morphisms:
            if fc != gd:
                continue
            i, k = int(fd), int(gc)
            comp[(g, f)] = f"id{i}" if i == k else f"m{i}{k}"
    return FiniteCategory(objects, tuple(morphisms), identities, comp, "0")


def one_object_category() -> FiniteCategory:
    return FiniteCategory(("0",), (("id0", "0", "0"),), {"0": "id0"}, {("id0", "id0"): "id0"}, "0")
