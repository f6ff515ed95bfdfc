#!/usr/bin/env python3
"""Size ladder: where `stringlinks verify`, and report's link minors, spend
their time on growing words.

    python3 tools/ladder.py [RUNG ...]

Run from the root of a checkout.  The rungs are seeded words (default:
t8 t16):

  * the braid rungs nNcC, N in {3, 4, 5} strands and C in {16, 32, 48}
    crossings, and n3c96 and n4c64: rng = random.Random(7); draw
    g = rng.randrange(1, N) * rng.choice((1, -1)) and append g twice
    until the word has at least C letters; from_braid_word(N, word);
  * the tangle rungs t8, t16, t24 and t32: the same braid recipe with
    N = 4, C = 8, 16, 24, 32 and random.Random(3), then
    add_twist(L, 2 + s % 3) for each s < twists, and
    add_kink(L, 1 + s % 4) for each s < kinks.

For each rung it times, one after another, the stages of verify's
stacking and walk checks: gassner(L), gassner(LL) of the word stacked on
itself, the product g*g of L's matrix with itself (gassner.squared, as
verify computes it), the compare of gamma(LL) with it, walk_matrix of
L's diagram, and the compare of the walk matrix with gamma(L); then
taylor_expand of every entry of L's matrix at orders 3 and 6, as the
`taylor` command expands them, without solving again; then report's
link minors, alexander_function of L's matrix, and its closure
minors, alexander_poly_closure of the closure matrix of L's Fox matrix.
Each stage runs under a wall-clock cap of CAP_S seconds; a stage that
hits it is recorded as "cap" with the cap as its time, and the stages
that need its result are recorded as "not run".  A compare that finds
the two sides unequal is recorded as "FAIL", and the exit status is then
1.  The result is printed as a markdown table.
"""

from __future__ import annotations

import argparse
import random
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stringlinks import (  # noqa: E402
    add_kink, add_twist, alexander_function, alexander_poly_closure, closure_matrix,
    from_braid_word, gassner, stack, taylor_expand)
from stringlinks.gassner import squared  # noqa: E402
from stringlinks.walks import walk_matrix  # noqa: E402

# name: (strands, crossings c, seed, twists, kinks)
RUNGS = {"n%dc%d" % (n, c): (n, c, 7, 0, 0) for n in (3, 4, 5) for c in (16, 32, 48)}
RUNGS.update({"n3c96": (3, 96, 7, 0, 0), "n4c64": (4, 64, 7, 0, 0)})
RUNGS.update({"t8": (4, 8, 3, 1, 2), "t16": (4, 16, 3, 2, 4), "t24": (4, 24, 3, 3, 6),
              "t32": (4, 32, 3, 4, 8)})
CAP_S = 120.0  # wall-clock cap of each stage
STAGES = ("gassner(L)", "gassner(LL)", "g*g", "compare", "walk", "walk compare", "taylor 3",
          "taylor 6", "link minors", "closure minors")


class CapHit(BaseException):
    """A stage ran past its cap (BaseException, so no library handler eats it)."""


def rung_word(name: str):
    n, c, seed, twists, kinks = RUNGS[name]
    rng = random.Random(seed)
    gens = []
    while len(gens) < c:
        g = rng.randrange(1, n) * rng.choice((1, -1))
        gens += [g, g]
    word = from_braid_word(n, gens)
    for s in range(twists):
        word = add_twist(word, 2 + s % 3)
    for s in range(kinks):
        word = add_kink(word, 1 + s % 4)
    return word


def _capped(fn, cap: float):
    """(seconds, value) of fn(); raises CapHit once cap seconds have passed."""
    def alarm(_signum, _frame):
        raise CapHit

    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        start = time.perf_counter()
        value = fn()
        return time.perf_counter() - start, value
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_rung(name: str, cap: float = CAP_S) -> dict:
    """The verify split of one rung: {stage: {"s": seconds, "status": ...}}."""
    word = rung_word(name)
    values = {}
    needs = {"g*g": ("gassner(L)",), "compare": ("gassner(LL)", "g*g"),
             "walk": ("gassner(L)",), "walk compare": ("walk",), "taylor 3": ("gassner(L)",),
             "taylor 6": ("gassner(L)",), "link minors": ("gassner(L)",),
             "closure minors": ("gassner(L)",)}
    steps = {
        "gassner(L)": lambda: gassner(word),
        "gassner(LL)": lambda: gassner(stack(word, word)),
        "g*g": lambda: squared(values["gassner(L)"]),
        "compare": lambda: values["gassner(LL)"].entries == values["g*g"],
        "walk": lambda: walk_matrix(values["gassner(L)"].diagram),
        "walk compare": lambda: values["walk"] == values["gassner(L)"].entries,
        "taylor 3": lambda: [taylor_expand(x, 3) for row in values["gassner(L)"].entries.entries for x in row],
        "taylor 6": lambda: [taylor_expand(x, 6) for row in values["gassner(L)"].entries.entries for x in row],
        "link minors": lambda: alexander_function(values["gassner(L)"]),
        "closure minors": lambda: alexander_poly_closure(closure_matrix(values["gassner(L)"].fox)),
    }
    stages = {}
    for stage in STAGES:
        if any(need not in values for need in needs.get(stage, ())):
            stages[stage] = {"s": None, "status": "not run"}
            continue
        try:
            seconds, values[stage] = _capped(steps[stage], cap)
        except CapHit:
            stages[stage] = {"s": cap, "status": "cap"}
            continue
        failed = stage.endswith("compare") and values[stage] is not True
        stages[stage] = {"s": seconds, "status": "FAIL" if failed else "ok"}
    return {"rung": name, "events": len(word.events), "cap_s": cap, "stages": stages}


def table(results) -> str:
    def cell(entry):
        if entry["status"] in ("cap", "not run"):
            return entry["status"] if entry["s"] is None else "cap (%g s)" % entry["s"]
        text = "%.3f s" % entry["s"]
        return text if entry["status"] == "ok" else text + " FAIL"

    lines = ["| word | " + " | ".join("`%s`" % s for s in STAGES) + " |",
             "| --- |" + " --- |" * len(STAGES)]
    for r in results:
        lines.append("| %s (%d events) | " % (r["rung"], r["events"])
                     + " | ".join(cell(r["stages"][s]) for s in STAGES) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rungs", nargs="*", metavar="RUNG",
                        help="rungs to run, from %s (default: t8 t16)" % ", ".join(RUNGS))
    opts = parser.parse_args(argv)
    unknown = [name for name in opts.rungs if name not in RUNGS]
    if unknown:
        parser.error("unknown rung %s; choose from %s" % (unknown[0], ", ".join(RUNGS)))
    results = [run_rung(name) for name in opts.rungs or ["t8", "t16"]]
    print(table(results))
    return 1 if any(e["status"] == "FAIL" for r in results for e in r["stages"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
