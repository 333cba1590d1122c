"""Per-layer spans for the traced run, recorded from outside the library.

``Tracer.install`` replaces each layer's public functions with wrappers:
in the defining module and at every name another ``coalgpath`` module
bound to the same function object (``openmap.fmap`` as well as
``functors.fmap``), and on the class for constructors and methods.
Function-local imports read the defining module at call time, so they
see the wrapper too.  ``uninstall`` puts the originals back.

A span is opened only for the outermost call of a function: a call made
while a span of the same function is open (recursion) runs unwrapped.
A generator function gets one span per resumption.  Each span records
its name, start, end, parent span and op id; self time is a span's
duration minus the durations of its direct child spans, accumulated as
spans close.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (module, attribute path) of every function that gets a span; the span
# name is "<module>.<attribute path>", with "__init__" dropped
SPAN_TARGETS = (
    ("cli", "run_command"),
    ("openmap", "is_open"),
    ("openmap", "reachable_bfs"),
    ("openmap", "replay_witness"),
    ("openmap", "verify_theorems"),
    ("precise", "element_shapes"),
    ("precise", "enumerate_precise_maps"),
    ("functors", "subst_node"),
    ("functors", "fmap"),
    ("functors", "occurrences"),
    ("functors", "term_in_functor"),
    ("functors", "eval_functor"),
    ("functors", "rebuild_with_fresh"),
    ("trace", "trace"),
    ("coalgebra", "PointedCoalgebra.__init__"),
    ("coalgebra", "random_coalgebra"),
    ("coalgebra", "is_strict_hom"),
    ("paths", "enumerate_runs"),
    ("paths", "comp"),
    ("groups", "canonical_tuple"),
    ("sets", "SortedFun.__init__"),
    ("modelio", "parse_coalgebra"),
    ("modelio", "print_term_for"),
    ("nominal", "rnna_expand"),
    ("nominal", "bar_trace"),
    ("lasota", "paths_bijection_check"),
)

# methods too small and hot for a span: only their calls are counted, as
# "<key>", and apart as "<key>.inside" while the named span is open
COUNT_TARGETS = (
    ("functors", "Term.__lt__", "functors.term_lt", "trace.trace"),
    ("sets", "SortedSet.has", "sets.SortedSet.has", None),
)

# counters the hooks below add to
HOOK_COUNTS = ("openmap.is_open.src_transitions", "openmap.is_open.subst_calls", "trace.trace.terms_out",
               "modelio.parse_coalgebra.bytes", "cli.output_bytes")


class Layer:
    __slots__ = ("name", "index", "calls", "items", "self_s", "depth", "seen", "repeats")

    def __init__(self, name: str, index: int):
        self.name = name
        self.index = index
        self.calls = 0
        self.items = 0
        self.self_s = 0.0
        self.depth = 0
        self.seen: set = set()
        self.repeats = 0


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self.counts: dict[str, int] = {}
        self.op_id = -1
        # per span: name index, parent span index, op id, start, end
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open spans: [layer, start, child time, span index]
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, layer: Layer) -> None:
        layer.depth += 1
        index = len(self.span_start)
        self.span_name.append(layer.index)
        self.span_parent.append(self._stack[-1][3] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        start = perf_counter()
        self.span_start.append(start)
        self._stack.append([layer, start, 0.0, index])

    def _end(self) -> None:
        end = perf_counter()
        layer, start, child, index = self._stack.pop()
        duration = end - start
        layer.self_s += duration - child
        layer.depth -= 1
        self.span_end[index] = end
        if self._stack:
            self._stack[-1][2] += duration

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: Layer, fn, hooks):
        before, after = hooks.get(layer.name, (None, None))
        begin, end = self._begin, self._end

        def wrapper(*args, **kwargs):
            if layer.depth:
                return fn(*args, **kwargs)
            layer.calls += 1
            if before is not None:
                before(args)
            begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                end()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _wrap_generator(self, layer: Layer, fn):
        begin, end = self._begin, self._end

        def resume(inner):
            try:
                while True:
                    if layer.depth:
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        yield item
                        continue
                    begin(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end()
                    layer.items += 1
                    yield item
            finally:
                inner.close()

        def wrapper(*args, **kwargs):
            layer.calls += 1
            return resume(fn(*args, **kwargs))

        return wrapper

    def _counter(self, key: str, fn, inside: str | None):
        counts = self.counts
        counts[key] = 0
        if inside is None:
            def count(*args):
                counts[key] += 1
                return fn(*args)

            return count
        layer = self.layers[inside]
        counts[f"{key}.inside"] = 0

        def count_inside(*args):
            counts[key] += 1
            if layer.depth:
                counts[f"{key}.inside"] += 1
            return fn(*args)

        return count_inside

    def _hooks(self) -> dict:
        """Extra counters taken at a span's call or return, by span name."""
        counts, layers = self.counts, self.layers

        def bump(key: str, amount: int = 1) -> None:
            counts[key] += amount

        def repeat_of(name: str, key_of):
            layer = layers[name]

            def before(args):
                key = key_of(args)
                if key in layer.seen:
                    layer.repeats += 1
                else:
                    layer.seen.add(key)

            return before

        def open_transitions(args):
            bump("openmap.is_open.src_transitions", sum(len(v) for v in args[0].src.xi.values()))

        def subst_call(args):
            if layers["openmap.is_open"].depth:
                bump("openmap.is_open.subst_calls")

        def trace_terms(result):
            bump("trace.trace.terms_out", sum(len(terms) for _d, items in result.per_depth for _k, terms in items))

        return {
            "openmap.is_open": (open_transitions, None),
            "functors.subst_node": (subst_call, None),
            "functors.eval_functor": (repeat_of("functors.eval_functor", lambda a: (a[0], a[1])), None),
            "precise.element_shapes": (repeat_of("precise.element_shapes", lambda a: (a[0], a[1])), None),
            "trace.trace": (None, trace_terms),
            "modelio.parse_coalgebra": (lambda a: bump("modelio.parse_coalgebra.bytes", len(a[0].encode())), None),
            "cli.run_command": (None, lambda r: bump("cli.output_bytes", len(r[0].encode()))),
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {name[len("coalgpath."):]: mod for name, mod in sys.modules.items()
                   if name.startswith("coalgpath.") and mod is not None}
        self.counts.update(dict.fromkeys(HOOK_COUNTS, 0))
        for mod_name, attr in SPAN_TARGETS:
            name = f"{mod_name}.{attr.removesuffix('.__init__')}"
            self.layers[name] = Layer(name, len(self.layers))
        hooks = self._hooks()
        for mod_name, attr in SPAN_TARGETS:
            name = f"{mod_name}.{attr.removesuffix('.__init__')}"
            owner, leaf, original = _resolve(modules[mod_name], attr)
            if _is_generator(original):
                wrapped = self._wrap_generator(self.layers[name], original)
            else:
                wrapped = self._wrap(self.layers[name], original, hooks)
            self._patch(owner, leaf, wrapped)
            if owner is modules[mod_name]:
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._patch(other, key, wrapped)
        for mod_name, attr, key, inside in COUNT_TARGETS:
            owner, leaf, original = _resolve(modules[mod_name], attr)
            self._patch(owner, leaf, self._counter(key, original, inside))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def write(self, path: Path, seed: int) -> None:
        """The spans as a JSON header line followed by the five raw arrays."""
        header = {
            "seed": seed,
            "names": list(self.layers),
            "spans": len(self.span_start),
            "arrays": [["name", "i"], ["parent", "i"], ["op", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end):
                arr.tofile(fh)


def _resolve(module, attr: str):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def _is_generator(fn) -> bool:
    return bool(getattr(fn, "__code__", None) and fn.__code__.co_flags & 0x20)
