"""Pointed coalgebras with finite-powerset branching over a step functor.

A system is a finite sorted carrier X, a pointing I -> X and, for every
state, a finite duplicate-free set of F(X)-terms: a coalgebra
``X -> Pf(F X)`` stored as transition tables.  The homset order is
pointwise inclusion; strict homomorphisms preserve behaviour exactly and
lax ones up to inclusion (the functional-simulation analogue).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .functors import (
    Functor,
    Term,
    TermError,
    eval_functor,
    fmap,
    functor_has_pf,
    term_in_functor,
)
from .sets import DEFAULT_SORT, CoalgError, SortedFun, SortedSet, singleton_pointing


@dataclass
class PointedCoalgebra:
    """A finite I-pointed coalgebra for Pf . F."""

    functor: Functor
    pointing: SortedSet
    carrier: SortedSet
    point: dict[tuple[str, str], str]          # I -> X
    xi: dict[tuple[str, str], tuple[Term, ...]]  # X -> Pf(F X)

    def __post_init__(self) -> None:
        if functor_has_pf(self.functor):
            raise TermError("the branching layer is implicit; F must be powerset-free")
        for key in self.pointing.pairs():
            if key not in self.point:
                raise CoalgError(f"pointing not total: missing {key}")
            s, _ = key
            if not self.carrier.has(s, self.point[key]):
                raise CoalgError(f"pointing image {self.point[key]!r} not in carrier")
        for key in self.carrier.pairs():
            if key not in self.xi:
                raise CoalgError(f"structure map not total: missing {key}")
        for (s, x), terms in self.xi.items():
            if tuple(sorted(set(terms))) != terms:
                raise CoalgError(f"xi({x}) must be a sorted duplicate-free tuple")
            for t in terms:
                if not term_in_functor(self.functor, s, t, self.carrier):
                    raise CoalgError(f"xi({x}) contains ill-formed term {t!r}")

    def states(self) -> Iterator[tuple[str, str]]:
        return self.carrier.pairs()

    def point_image(self) -> set[tuple[str, str]]:
        return {(s, self.point[(s, i)]) for s, i in self.pointing.pairs()}

    def restrict(self, keep: Iterable[tuple[str, str]]) -> "PointedCoalgebra":
        """The subcoalgebra on a closed subset of states.

        A subset that is not closed fails the constructor's term check
        with :class:`CoalgError`.
        """
        keep_set = set(keep)
        missing = self.point_image() - keep_set
        if missing:
            raise CoalgError(f"cannot drop pointed states {sorted(missing)}")
        carrier = self.carrier.restrict(keep_set)
        xi = {key: terms for key, terms in self.xi.items() if key in keep_set}
        return PointedCoalgebra(self.functor, self.pointing, carrier, dict(self.point), xi)


@dataclass
class CoalgMorphism:
    src: PointedCoalgebra
    dst: PointedCoalgebra
    map: SortedFun

    def __post_init__(self) -> None:
        if self.src.functor != self.dst.functor:
            raise CoalgError("morphism endpoints disagree on the functor")
        if self.src.pointing != self.dst.pointing:
            raise CoalgError("morphism endpoints disagree on the pointing object")
        if self.map.dom != self.src.carrier or self.map.cod != self.dst.carrier:
            raise CoalgError("carrier map has the wrong end points")

    def preserves_pointing(self) -> bool:
        return all(
            self.map(s, self.src.point[(s, i)]) == self.dst.point[(s, i)]
            for s, i in self.src.pointing.pairs()
        )

    def image_xi(self, sort: str, x: str) -> tuple[Term, ...]:
        f = self.src.functor
        return tuple(sorted({fmap(f, self.map, sort, t) for t in self.src.xi[(sort, x)]}))


def is_strict_hom(m: CoalgMorphism) -> bool:
    if not m.preserves_pointing():
        return False
    return all(
        set(m.image_xi(s, x)) == set(m.dst.xi[(s, m.map(s, x))])
        for s, x in m.src.states()
    )


def is_lax_hom(m: CoalgMorphism) -> bool:
    if not m.preserves_pointing():
        return False
    return all(
        set(m.image_xi(s, x)) <= set(m.dst.xi[(s, m.map(s, x))])
        for s, x in m.src.states()
    )


# ---------------------------------------------------------------------------
# Deterministic random generation

@dataclass
class GenSpec:
    """Input for the harness generator; deterministic in the seed."""

    functor: Functor
    sizes: dict[str, int]
    density: float
    seed: int
    pointing: SortedSet | None = None

    def __post_init__(self) -> None:
        for s, n in self.sizes.items():
            if n < 0:
                raise CoalgError(f"negative carrier size for sort {s!r}")


def random_coalgebra(spec: GenSpec) -> PointedCoalgebra:
    """A random system: every F(X)-term included with the given density.

    Uses the stdlib Mersenne Twister seeded explicitly, so identical
    output across runs and platforms.
    """
    rng = random.Random(spec.seed)
    sorts = spec.functor.sorts
    carrier = SortedSet.make(
        {s: [f"s{i}" if len(sorts) == 1 else f"{s}s{i}" for i in range(spec.sizes.get(s, 0))] for s in sorts},
        sorts,
    )
    pointing = spec.pointing
    if pointing is None:
        pointing = singleton_pointing(sorts)
    point: dict[tuple[str, str], str] = {}
    for s, i in pointing.pairs():
        pool = carrier.elems(s)
        if not pool:
            raise CoalgError(f"pointing requires a non-empty carrier at sort {s!r}")
        point[(s, i)] = pool[rng.randrange(len(pool))]
    terms = eval_functor(spec.functor, carrier)
    xi: dict[tuple[str, str], tuple[Term, ...]] = {}
    for s, x in carrier.pairs():
        chosen = [t for t in terms[s] if rng.random() < spec.density]
        xi[(s, x)] = tuple(sorted(chosen))
    return PointedCoalgebra(spec.functor, pointing, carrier, point, xi)


def lts_coalgebra(
    alphabet: Iterable[str],
    states: Iterable[str],
    init: str,
    edges: Iterable[tuple[str, str, str]],
) -> PointedCoalgebra:
    """Convenience constructor for single-pointed LTSs."""
    from .functors import lts_functor, lts_term

    f = lts_functor(alphabet)
    carrier = SortedSet.single(states)
    pointing = SortedSet.single(["*"])
    xi: dict[tuple[str, str], list[Term]] = {key: [] for key in carrier.pairs()}
    for (x, a, y) in edges:
        xi[(DEFAULT_SORT, x)].append(lts_term(a, y))
    return PointedCoalgebra(
        f,
        pointing,
        carrier,
        {(DEFAULT_SORT, "*"): init},
        {k: tuple(sorted(set(v))) for k, v in xi.items()},
    )
