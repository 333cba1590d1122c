"""Pointed coalgebras with finite-powerset branching over a step functor.

A system is a finite sorted carrier X, a pointing I -> X and, for every
state, a finite duplicate-free set of F(X)-terms: a coalgebra
``X -> Pf(F X)`` stored as transition tables.  The homset order is
pointwise inclusion; strict homomorphisms preserve behaviour exactly and
lax ones up to inclusion (the functional-simulation analogue).
"""

from __future__ import annotations

import functools
import operator
import random
from dataclasses import dataclass
from typing import Iterable

from .functors import (
    Functor,
    Term,
    TermError,
    _leaf_states,
    eval_functor,
    fmap,
    term_in_functor,
)
from .sets import CoalgError, SortedFun, SortedSet, singleton_pointing


State = tuple[str, str]  # (sort, element)


@dataclass(frozen=True)
class PointedCoalgebra:
    """A finite I-pointed coalgebra for Pf . F: its validated tables and
    nothing derived from them.  Frozen."""

    functor: Functor
    pointing: SortedSet
    carrier: SortedSet
    point: dict[tuple[str, str], str]          # I -> X
    xi: dict[tuple[str, str], tuple[Term, ...]]  # X -> Pf(F X)

    def __post_init__(self) -> None:
        self._check(walk_terms=True)

    @classmethod
    def _built(
        cls,
        functor: Functor,
        pointing: SortedSet,
        carrier: SortedSet,
        point: dict[tuple[str, str], str],
        xi: dict[tuple[str, str], tuple[Term, ...]],
    ) -> "PointedCoalgebra":
        """A system whose terms are well formed by construction (drawn
        from ``eval_functor``, mapped by ``fmap`` or parsed against the
        functor's node): every check of the public constructor but the
        walk of each term against the functor."""
        c = object.__new__(cls)
        for name, value in (("functor", functor), ("pointing", pointing), ("carrier", carrier),
                            ("point", point), ("xi", xi)):
            object.__setattr__(c, name, value)
        c._check(walk_terms=False)
        return c

    def _check(self, walk_terms: bool) -> None:
        if self.functor.has_pf:
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
            # strictly increasing: sorted with no duplicate, in one pass
            if not isinstance(terms, tuple) or not all(map(operator.lt, terms, terms[1:])):
                raise CoalgError(f"xi({x}) must be a sorted duplicate-free tuple")
            if walk_terms:
                for t in terms:
                    if not term_in_functor(self.functor, s, t, self.carrier):
                        raise CoalgError(f"xi({x}) contains ill-formed term {t!r}")

    def successors(self, state: State) -> tuple[tuple[Term, tuple[State, ...]], ...]:
        """Each transition term of ``state`` with the states occurring in
        it, in occurrence order, read from the functor's term memo."""
        return tuple([(t, _leaf_states(self.functor, state[0], t)) for t in self.xi[state]])

    def states(self) -> tuple[tuple[str, str], ...]:
        return self.carrier.pairs()

    def point_image(self) -> set[tuple[str, str]]:
        return {(s, self.point[(s, i)]) for s, i in self.pointing.pairs()}

    def restrict(self, keep: Iterable[tuple[str, str]]) -> "PointedCoalgebra":
        """The subcoalgebra on a closed subset of states.

        Closedness is read off the successors: a kept state with a
        transition to a dropped state raises :class:`CoalgError` naming
        the first such transition, with the constructor's ill-formed-term
        message.
        """
        keep_set = set(keep)
        missing = self.point_image() - keep_set
        if missing:
            raise CoalgError(f"cannot drop pointed states {sorted(missing)}")
        carrier = self.carrier.restrict(keep_set)
        xi = {key: terms for key, terms in self.xi.items() if key in keep_set}
        for key in xi:
            for t, succ in self.successors(key):
                if not keep_set.issuperset(succ):
                    raise CoalgError(f"xi({key[1]}) contains ill-formed term {t!r}")
        return PointedCoalgebra._built(self.functor, self.pointing, carrier, dict(self.point), xi)


@dataclass(frozen=True)
class CoalgMorphism:
    """A carrier map between two systems over the same functor and
    pointing.  Frozen, like its end points, so the image table is built
    on first use and kept."""

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

    @classmethod
    def _with_images(
        cls, src: PointedCoalgebra, dst: PointedCoalgebra, map: SortedFun, images: dict[State, frozenset[Term]]
    ) -> "CoalgMorphism":
        """A morphism handed the image table that :func:`_image_table`
        built from ``src`` and ``map``, so it never maps a term again."""
        m = cls(src, dst, map)
        m.__dict__["images"] = images
        return m

    @functools.cached_property
    def images(self) -> dict[State, frozenset[Term]]:
        """Per source state, the image ``F(m)(t)`` of each of its
        transition terms."""
        return _image_table(self.src, self.map)

    def preserves_pointing(self) -> bool:
        return all(
            self.map(s, self.src.point[(s, i)]) == self.dst.point[(s, i)]
            for s, i in self.src.pointing.pairs()
        )


def _image_table(src: PointedCoalgebra, fun: SortedFun) -> dict[State, frozenset[Term]]:
    """Per state of ``src``, in carrier order, the images ``F(fun)(t)`` of
    its transition terms.  States share terms, and ``fmap`` keeps each
    image in the functor's term memo, so a term is walked once."""
    f, xi = src.functor, src.xi
    return {(s, x): frozenset([fmap(f, fun, s, t) for t in xi[(s, x)]]) for s, x in src.states()}


def is_strict_hom(m: CoalgMorphism) -> bool:
    if not m.preserves_pointing():
        return False
    return all(image == frozenset(m.dst.xi[(s, m.map(s, x))]) for (s, x), image in m.images.items())


def is_lax_hom(m: CoalgMorphism) -> bool:
    if not m.preserves_pointing():
        return False
    return all(image.issubset(m.dst.xi[(s, m.map(s, x))]) for (s, x), image in m.images.items())


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
        for s in self.functor.sorts:
            n = self.sizes.get(s, 0)
            if n < 1:
                raise CoalgError(f"carrier size for sort {s!r} must be at least 1, got {n}")


def random_coalgebra(spec: GenSpec) -> PointedCoalgebra:
    """A random system: every F(X)-term included with the given density.

    Uses the stdlib Mersenne Twister seeded explicitly, so identical
    output across runs and platforms.
    """
    rng = random.Random(spec.seed)
    sorts = spec.functor.sorts
    carrier = SortedSet.make(
        {s: [f"s{i}" if len(sorts) == 1 else f"{s}s{i}" for i in range(spec.sizes[s])] for s in sorts},
        sorts,
    )
    pointing = spec.pointing
    if pointing is None:
        pointing = singleton_pointing(sorts)
    point: dict[tuple[str, str], str] = {}
    for s, i in pointing.pairs():
        pool = carrier.elems(s)
        point[(s, i)] = pool[rng.randrange(len(pool))]
    terms = eval_functor(spec.functor, carrier)
    xi: dict[tuple[str, str], tuple[Term, ...]] = {}
    for s, x in carrier.pairs():
        # a filter of eval_functor's terms keeps their canonical order
        xi[(s, x)] = tuple([t for t in terms[s] if rng.random() < spec.density])
    return PointedCoalgebra._built(spec.functor, pointing, carrier, point, xi)
