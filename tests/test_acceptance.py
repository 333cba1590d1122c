"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from coalgpath.cli import run_command
from coalgpath.coalgebra import GenSpec, random_coalgebra
from coalgpath.functors import Prod, SortRef, functor
from coalgpath.lasota import paths_bijection_check, validate_category
from coalgpath.nominal import AtomPool, BarString, BindTerm, NomElem, alpha_canonical, bar_trace, rnna_expand
from coalgpath.openmap import reachable_bfs, verify_theorems
from coalgpath.precise import is_precise
from coalgpath.sets import DEFAULT_SORT, SortedSet
from coalgpath.trace import lts_language, trace

from conftest import (
    BAG2_PLUS1,
    CONST_PLUS1,
    FIG2,
    LTS_AB_PLUS1,
    all_term_maps,
    is_path_reachable,
    lts_functor,
    poset_category,
    whyplus1_system,
)
from model_writers import print_category
from oracles import (
    binding_factorize,
    binding_roundtrip_ok,
    factorized_runs,
    is_powerset_precise,
    is_precise_oracle,
    PathObj,
    prefix_closed,
    run_image,
    subsets,
)

BOT = chr(0x22A5)
CHECK = chr(0x2713)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def report(number: int, text: str) -> None:
    print(f"\nacceptance {number}: PASS - {text}")


FIG2_GOLDEN = f"""\
precise: no
[codomain]
"(x2;0.0)" "(x2;0.1)" "(x3;0.0)" "(x3;0.1)"
[precise-map]
x1 -> {BOT}
x2 -> in0(("(x2;0.0)", "(x2;0.1)"))
x3 -> in0(("(x3;0.0)", "(x3;0.1)"))
x4 -> {BOT}
[connecting]
"(x2;0.0)" -> y1
"(x2;0.1)" -> y2
"(x3;0.0)" -> y2
"(x3;0.1)" -> y2
"""


def test_criterion_01_fig2_reproduction(tmp_path):
    path = tmp_path / "fig2.factor"
    path.write_text(
        "[functor]\nplus1(prod(id, id))\n\n[domain]\nx1 x2 x3 x4\n\n[codomain]\ny1 y2 y3 y4\n\n"
        "[map]\nx1 -> bot\nx2 -> (y1, y2)\nx3 -> (y2, y2)\nx4 -> bot\n",
        encoding="utf-8",
    )
    text, code = run_command(["precise-factor", str(path)])
    assert code == 0
    assert text == FIG2_GOLDEN
    # shape facts from the figure: four fresh elements, one hitting y1,
    # three hitting the duplicated y2, y3 and y4 dropped
    connecting = [line for line in text.splitlines() if line.endswith(("y1", "y2"))]
    assert len(connecting) == 4
    report(1, "Fig. 2 factorization reproduced with exact canonical printing")


def test_criterion_02_precise_characterization_oracle():
    battery = {
        "A x Id + 1": LTS_AB_PLUS1,
        "Id x Id + bot": FIG2,
        "bag-arity-2 + 1": BAG2_PLUS1,
        "Const{c} + 1": CONST_PLUS1,
    }
    disagreements = 0
    total = 0
    for _name, f_expr in battery.items():
        for nx, ny in itertools.product(range(4), range(4)):
            xs = [f"x{i}" for i in range(nx)]
            ys = [f"y{i}" for i in range(ny)]
            bound = max(nx, ny) + 1
            for f in all_term_maps(f_expr, xs, ys):
                total += 1
                if is_precise(f) != is_precise_oracle(f, bound):
                    disagreements += 1
    assert disagreements == 0
    assert total == 2450
    report(2, f"occurrence criterion == lifting oracle on all {total} maps, 0 disagreements")


def test_criterion_03_powerset_negative():
    # the powerset lives on the test side: the library's functors are
    # powerset-free, since G = Pf . F keeps it as the implicit branching
    precise_found = []
    for nx, ny in itertools.product(range(1, 3), range(3)):
        xs = [f"x{i}" for i in range(nx)]
        ys = [f"y{i}" for i in range(ny)]
        for images in itertools.product(subsets(ys), repeat=nx):
            f = dict(zip(xs, images))
            if is_powerset_precise(f, ys, max(2 * ny, nx, 2)):
                precise_found.append(f)
                assert all(image == () for image in images)
    assert precise_found  # the all-empty maps on the empty codomain qualify
    report(3, "every powerset-precise map on |X|,|Y| <= 2 is constantly empty")


def test_criterion_04_theorem_harness():
    text, code = run_command(
        ["verify", "--functor", "prod(const(a b), id)", "--trials", "200", "--seed", "42",
         "--states", "5", "--traces"]
    )
    assert code == 0, text
    assert text.splitlines()[-1] == "all passed (200 trials)"
    text2, code2 = run_command(
        ["verify", "--functor", "coprod(prod(id, id), const(a b))", "--trials", "200",
         "--seed", "42", "--states", "4", "--density", "0.2"]
    )
    assert code2 == 0, text2
    assert text2.splitlines()[-1] == "all passed (200 trials)"
    report(4, "200 LTS trials (with traces) and 200 binary-tree trials, all clauses hold")


def test_criterion_05_whyplus1_fixture():
    c = whyplus1_system()
    levels, _union = reachable_bfs(c)
    assert [sorted(e for _s, e in lv) for lv in levels] == [["x0"], ["y1", "y2"], ["z1", "z2"]]
    assert is_path_reachable(c)
    # without the added point, read off literal run enumeration
    covered = set().union(*(run_image(r) for _p, r in factorized_runs(c, c.carrier.size(), allow_bot=False)))
    assert covered == {(DEFAULT_SORT, x) for x in ("x0", "y1", "y2")}
    report(5, "five-state fixture: +1-reachable, z1 lost without the added point, exact levels")


def _binary_paths_up_to(max_len: int):
    from coalgpath.precise import enumerate_precise_maps

    f = functor(Prod((SortRef(), SortRef())))
    fp1 = f.plus1
    pointing = SortedSet.single(["*"])
    frontier = [([pointing], [])]
    out = []
    for _length in range(max_len + 1):
        new_frontier = []
        for levels, steps in frontier:
            out.append(PathObj(f, tuple(levels), tuple(s for s in steps)))
            for codomain, term_map in enumerate_precise_maps(levels[-1], fp1):
                new_frontier.append((levels + [codomain], steps + [term_map]))
        frontier = new_frontier
    return out


def test_criterion_06_comp_structure():
    from oracles import find_path_morphism, path_comp, path_from_comp, pathord_le

    paths = _binary_paths_up_to(3)
    assert len(paths) == 34
    checked = 0
    for p, q in itertools.product(paths, repeat=2):
        if p.length > q.length:
            continue
        exists = find_path_morphism(p, q) is not None
        assert exists == pathord_le(p, q), (p, q)
        checked += 1
    # a composite is read at its path's length: a path that stops early
    # composes to the value of a shorter one
    values = {(p.length, path_comp(p)) for p in paths}
    f, pointing = paths[0].functor, paths[0].levels[0]
    for depth, u in values:
        assert path_comp(path_from_comp(f, pointing, depth, u)) == u
    report(6, f"morphism existence == truncation order on {checked} pairs; comp o rebuild = id on {len(values)} values")


def test_criterion_07_trace_correctness():
    from test_trace import graph_bfs_language  # the independent oracle

    rng = random.Random(1234)
    for seed in range(100):
        c = random_coalgebra(
            GenSpec(lts_functor("ab"), {DEFAULT_SORT: rng.randint(1, 6)}, rng.choice([0.2, 0.4]), seed)
        )
        assert lts_language(c, 6) == graph_bfs_language(c, 6)
        assert prefix_closed(trace(c, 6))
    # open-map trace preservation runs inside the LTS harness (criterion 4
    # passes --traces); assert here again on a smaller dedicated run
    spec = GenSpec(lts_functor("ab"), {DEFAULT_SORT: 5}, 0.3, 4242)
    assert verify_theorems(spec, 50, check_traces=True).all_passed
    report(7, "language oracle on 100 systems, prefix closure, open maps preserve traces")


def test_criterion_08_lasota():
    for objects in (2, 3):
        cat = poset_category(objects)
        assert validate_category(cat) == []
        result = paths_bijection_check(cat, 3)
        assert not result.mismatches, result.mismatches
        assert result.precise_ok
    report(8, "paths == composable sequences at depth 3; precise iff characteristic at |Y| <= 2")


def test_criterion_09_nominal():
    # separation and identification of the intro examples
    u = alpha_canonical(BarString((("bar", "a1"), ("bar", "a2"), ("free", "a1"), ("free", "a2"))))
    v = alpha_canonical(BarString((("bar", "a1"), ("bar", "a2"), ("free", "a2"), ("free", "a1"))))
    assert u != v
    renamings = {
        alpha_canonical(BarString((("bar", a), ("free", a)))) for a in AtomPool(3).atoms
    }
    assert len(renamings) == 1
    # exhaustive pool-3 binding factorization battery
    pool = AtomPool(3)
    count = 0
    for x_atoms in [(), ("a1",), ("a1", "a2")]:
        x = NomElem("x", x_atoms)
        bodies = [NomElem("y", t) for n in range(3) for t in itertools.permutations(pool.atoms, n)]
        for body in bodies:
            for a in pool.atoms:
                if not (body.support() - {a}) <= x.support():
                    continue
                f = {x: BindTerm(a, body)}
                fac = binding_factorize(f, pool)
                assert binding_roundtrip_ok(f, fac, pool)
                count += 1
    assert count > 20
    # bar traces against the independent oracle, and pool stability
    from test_nominal import presentation_trace_oracle, three_rule_presentation

    r = three_rule_presentation()
    t3 = bar_trace(rnna_expand(r, AtomPool(3)), 3)
    assert t3 == presentation_trace_oracle(r, AtomPool(3), 3)
    assert t3 == bar_trace(rnna_expand(r, AtomPool(4)), 3)
    report(9, f"alpha separation, {count} factorization round-trips, oracle match, pool-stable")


DETERMINISM_COMMANDS = [
    ["trace", "{lts}", "--depth", "4"],
    ["reach", "{lts}"],
    ["runs", "{lts}", "--depth", "3"],
    ["paths", "{lts}", "--depth", "2"],
    ["precise-factor", "{fig2}"],
    ["hom", "{lts}", "{lts}", "{idmap}"],
    ["open", "{lts}", "{lts}", "{idmap}"],
    ["verify", "--functor", "prod(const(a b), id)", "--trials", "10", "--seed", "42"],
    ["lasota", "{cat}", "--depth", "2"],
    ["rnna", "{rnna}", "--pool", "2", "--depth", "3"],
]


def test_criterion_10_determinism(tmp_path):
    lts = tmp_path / "ab.model"
    lts.write_text(
        "[functor]\nprod(const(a b), id)\n\n[states]\nq0 q1 q2\n\n[init]\n* -> q0\n\n"
        "[trans]\nq0 -> (a, q1)\nq1 -> (b, q2)\n",
        encoding="utf-8",
    )
    fig2 = tmp_path / "fig2.factor"
    fig2.write_text(
        "[functor]\nplus1(prod(id, id))\n\n[domain]\nx1 x2 x3 x4\n\n[codomain]\ny1 y2 y3 y4\n\n"
        "[map]\nx1 -> bot\nx2 -> (y1, y2)\nx3 -> (y2, y2)\nx4 -> bot\n",
        encoding="utf-8",
    )
    idmap = tmp_path / "id.map"
    idmap.write_text("[map]\nq0 -> q0\nq1 -> q1\nq2 -> q2\n", encoding="utf-8")
    cat = tmp_path / "poset.cat"
    cat.write_text(print_category(poset_category(2)), encoding="utf-8")
    rnna = tmp_path / "auto.rnna"
    rnna.write_text(
        "[states]\nq0/0 q1/1 q2/1\n\n[init]\nq0\n\n[rules]\n"
        "q0 -> bar q1 [0]\nq1 -> reg(1) q2 [1]\nq2 -> ok\n",
        encoding="utf-8",
    )
    fills = {"lts": str(lts), "fig2": str(fig2), "idmap": str(idmap), "cat": str(cat), "rnna": str(rnna)}
    for template in DETERMINISM_COMMANDS:
        argv = [arg.format(**fills) for arg in template]
        # twice in-process
        assert run_command(argv) == run_command(argv)
        # twice in fresh interpreters with different hash seeds (the
        # available stand-in for a second platform)
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "coalgpath.cli", *argv],
                capture_output=True,
                env=env,
                cwd=str(tmp_path),
            )
            outputs.append((proc.stdout, proc.returncode))
        assert outputs[0] == outputs[1], argv
    report(10, f"{len(DETERMINISM_COMMANDS)} commands byte-identical across runs and hash seeds")
