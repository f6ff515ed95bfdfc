"""One trace, one Fox build and one solve per word record, the Taylor
expansions per record, the determinants per report, one walk labeling
pass per walk oracle, and the tracer's names.

The call counts are taken by wrapping each function in every stringlinks
module that holds it, the same way slbench's tracer attributes time.
"""

import importlib
import sys
from collections import Counter

import pytest

from stringlinks import gassner, walks
from stringlinks.cli import run

from conftest import CORPUS_DIR, load

COUNTED = {
    "trace": "diagram",
    "fox_matrix": "wirtinger",
    "solve_fox_system": "gassner",
    "burau": "gassner",
    "factorization_identity": "alexander",
    "closure_matrix": "alexander",
    "taylor_expand": "algebra",
    "rank": "algebra",
    "det": "algebra",
    "torsion": "alexander",
    "solve_labeling": "walks",
}

# Per-word calls.  verify builds one record for the word and one for the
# word stacked on itself; report, taylor and walkcheck build one record,
# altsum over one flip two.  alexander --braid-b reads report's record and
# closure polynomial for L and folds V only for the combined word L B; it
# traces only L B and the braid B (for burau).  The walk oracle labels all
# n columns in one pass.  Every test word has n = 2, so taylor expands
# n^2 = 4 entries; altsum expands n^2 entries per distinct denominator of
# its variants' solves, and both variants of each test word have d = 1.
# full_report takes 7 determinants on these words: the closure minor at
# (1,1) and 3 spot-check minors, the 2 link minors of alexander_function
# and the one-variable link minor.  tau is the solve's d and the
# one-variable closure polynomial collapses the closure minor, so neither
# takes a determinant, and only the torsion command calls `torsion`.
# alexander --braid-b adds the combined word's closure minor and the two
# Burau correction determinants.
TARGETS = {
    ("report",): {"trace": 1, "fox_matrix": 1, "solve_fox_system": 1, "burau": 0,
                  "factorization_identity": 1, "closure_matrix": 1, "taylor_expand": 0,
                  "rank": 0, "det": 7, "torsion": 0, "solve_labeling": 0},
    ("verify",): {"trace": 2, "fox_matrix": 2, "solve_fox_system": 2, "burau": 0,
                  "factorization_identity": 1, "closure_matrix": 1, "taylor_expand": 0,
                  "rank": 0, "det": 7, "torsion": 0, "solve_labeling": 1},
    ("torsion",): {"trace": 1, "fox_matrix": 1, "solve_fox_system": 0, "burau": 0,
                   "factorization_identity": 0, "closure_matrix": 0, "taylor_expand": 0,
                   "rank": 0, "det": 1, "torsion": 1, "solve_labeling": 0},
    ("taylor",): {"trace": 1, "fox_matrix": 1, "solve_fox_system": 1, "burau": 0,
                  "factorization_identity": 0, "closure_matrix": 0, "taylor_expand": 4,
                  "rank": 0, "det": 0, "torsion": 0, "solve_labeling": 0},
    ("altsum", "--flips", "1"): {"trace": 2, "fox_matrix": 2, "solve_fox_system": 2, "burau": 0,
                                 "factorization_identity": 0, "closure_matrix": 0,
                                 "taylor_expand": 4, "rank": 0, "det": 0, "torsion": 0,
                                 "solve_labeling": 0},
    ("alexander", "--braid-b", "s1"): {"trace": 3, "fox_matrix": 3, "solve_fox_system": 2,
                                       "burau": 1, "factorization_identity": 1,
                                       "closure_matrix": 2, "taylor_expand": 0, "rank": 0,
                                       "det": 10, "torsion": 0, "solve_labeling": 0},
    ("walkcheck",): {"trace": 1, "fox_matrix": 1, "solve_fox_system": 1, "burau": 0,
                     "factorization_identity": 0, "closure_matrix": 0, "taylor_expand": 0,
                     "rank": 0, "det": 0, "torsion": 0, "solve_labeling": 1},
}


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    wrappers = {}
    for name, layer in COUNTED.items():
        fn = getattr(importlib.import_module("stringlinks." + layer), name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        wrappers[id(fn)] = (fn, counted)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "stringlinks":
            continue
        for attr, value in list(vars(module).items()):
            fn, counted = wrappers.get(id(value), (None, None))
            if fn is value:
                monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("argv", sorted(TARGETS), ids=" ".join)
@pytest.mark.parametrize("name", ["hopf.sl", "kink_on_hopf.sl"])
def test_calls_per_word(argv, name, calls, capsys):
    assert run([*argv, str(CORPUS_DIR / name)]) == 0
    capsys.readouterr()
    assert {key: calls[key] for key in COUNTED} == TARGETS[argv]


@pytest.mark.parametrize("argv", [("verify",), ("walkcheck",)], ids=" ".join)
@pytest.mark.parametrize("name, core_solves", [("hopf.sl", 0), ("kink_on_hopf.sl", 1)])
def test_walk_core_is_solved_once(argv, name, core_solves, monkeypatch, capsys):
    # hopf's walk rules all resolve by propagation; kink_on_hopf leaves a
    # cyclic core, solved once for both columns.
    sizes = []
    original = walks.solve

    def spy(M, B):
        sizes.append((M.rows, B.cols))
        return original(M, B)

    monkeypatch.setattr(walks, "solve", spy)
    assert run([*argv, str(CORPUS_DIR / name)]) == 0
    capsys.readouterr()
    assert len(sizes) == core_solves
    assert all(rows > 0 and cols == 2 for rows, cols in sizes)


def test_rank_only_when_the_first_closure_minor_vanishes(calls, capsys):
    # A nonzero (1,1) closure minor settles rank(V) = c - 1 (TARGETS: no
    # rank call on hopf, whose Delta_closure is 1); trivial_2's
    # Delta_closure is 0, so its zero minor needs one rank(V).
    assert run(["report", str(CORPUS_DIR / "trivial_2.sl")]) == 0
    capsys.readouterr()
    assert calls["rank"] == 1


@pytest.mark.parametrize("command", ["report", "verify"])
def test_dets_when_the_closure_polynomial_vanishes(command, calls, capsys):
    # trivial_2's zero (1,1) closure minor takes no spot checks (one rank
    # call instead): 1 closure, 2 link and 1 one-variable link determinant.
    assert run([command, str(CORPUS_DIR / "trivial_2.sl")]) == 0
    capsys.readouterr()
    assert (calls["det"], calls["torsion"], calls["rank"]) == (4, 0, 1)


def test_traced_names_exist():
    from slbench import tracing

    for layer, names in tracing.TRACED.items():
        module = importlib.import_module("stringlinks." + layer)
        for name in names:
            assert callable(getattr(module, name, None)), "%s.%s" % (layer, name)


def test_knot_closure_needs_pure_word_before_extra_solve(calls, capsys):
    # s1 is not pure: the usage error comes after report's own record and
    # before the combined word or the braid is traced.
    assert run(["alexander", "--braid-b", "s1", str(CORPUS_DIR / "s1.sl")]) == 1
    assert "needs a pure word" in capsys.readouterr().err
    assert {key: calls[key] for key in ("trace", "fox_matrix", "solve_fox_system", "burau")} == \
        {"trace": 1, "fox_matrix": 1, "solve_fox_system": 1, "burau": 0}


def test_tracer_reads_a_solve_over_a_non_unit_denominator(capsys):
    # slbench's tracer over verify on twisted_k1, whose gamma is over d != 1
    # and whose walk labeling leaves a core: its size counters read every
    # traced solve, det and rank result
    from slbench import tracing

    path = CORPUS_DIR / "twisted_k1.sl"
    g = gassner(load(path))
    assert not g.entries.den.is_one()
    with tracing.Tracer() as tracer:
        assert run(["verify", str(path)]) == 0
    capsys.readouterr()
    largest = max(len(p.terms) for row in g.entries.cells for p in row.values())
    assert tracer.sizes["algebra.max_terms"] >= max(largest, len(g.entries.den.terms))
    assert tracer.sizes["algebra.max_coeff_bits"] > 0
    assert tracer.sizes["walks.core_max"] > 0
