"""Seeded inputs for the benchmark workloads.

A workload is a pool of words made from the seed alone.  Word i belongs
to stratum i mod len(strata), so every prefix of the pool mixes the
strata evenly and the seed only picks generators, signs, strands and
flips.  This keeps the latency mix of two seeds close, which is what
lets one seed's run be compared with another's.  Where a word's cost
swings with every sign (series), the strata are the whole family of
words, in an order the seed shuffles, and the seed picks the flips.
Every word is round-tripped through to_dsl/parse_morse before it is used.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from stringlinks import add_kink, add_twist, from_braid_word, parse_morse, to_dsl, trace
from stringlinks.diagram import CupL, CupR, is_crossing, permutation


@dataclass(frozen=True)
class Job:
    """One word and the CLI commands run on it, minus the file argument."""

    name: str
    dsl: str
    ops: Tuple[Tuple[str, ...], ...]
    info: Dict[str, object]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    commands: Tuple[str, str]
    pool_size: int
    strata: Tuple[tuple, ...]
    make: Callable[[random.Random, tuple], Tuple[object, Tuple[Tuple[str, ...], ...]]]
    shuffle_strata: bool = False


def _gens(rng: random.Random, n: int, count: int, lowest: int = 1) -> List[int]:
    return [rng.randrange(lowest, n) * rng.choice((1, -1)) for _ in range(count)]


def pure_braid(rng: random.Random, n: int, c: int, lowest: int = 1):
    """A pure braid of c crossings: c/2 random generators s_i, i >= lowest,
    each doubled."""
    gens: List[int] = []
    for g in _gens(rng, n, c // 2, lowest):
        gens += [g, g]
    return from_braid_word(n, gens)


def nonpure_braid(rng: random.Random, n: int, c: int):
    """A random signed braid of c crossings whose permutation is not trivial."""
    while True:
        gens = _gens(rng, n, c)
        word = from_braid_word(n, gens)
        if permutation(word) != tuple(range(1, n + 1)):
            return word


def _make_braid(rng, stratum):
    n, c, pure = stratum
    # Braids with a strand that never passes under get a kink when traced,
    # which gives the walk oracle a cyclic core; this workload has none, so
    # that it shows Fox-side changes without walk-side ones.
    while True:
        word = pure_braid(rng, n, c) if pure else nonpure_braid(rng, n, c)
        if walk_core_size(word) == 0:
            return word, (("report", "--json"), ("verify", "--json"))


def _make_tangle(rng, stratum):
    n, c, kinks = stratum
    # The body keeps off strand 1, which the twist wraps: a body crossing on
    # the twisted strand triples the cost of a word and its spread.
    word = add_twist(pure_braid(rng, n, c, lowest=2), 1)
    for _ in range(kinks):
        word = add_kink(word, rng.randrange(1, n + 1))
    return word, (("report", "--json"), ("verify", "--json"))


def _make_series(rng, gens):
    doubled = [g for g in gens for _ in (0, 1)]
    picked = sorted(rng.sample(range(1, len(doubled) + 1), 3))
    return from_braid_word(3, doubled), (
        ("taylor", "--json", "--order", "3"),
        ("altsum", "--json", "--flips", ",".join(map(str, picked)), "--order", "4"),
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "braids",
            ("report", "verify"),
            128,
            # Half pure, in strata of similar cost so that the median does not
            # fall in a gap between a cheap and a dear stratum.  Pure 4-strand
            # words are left out: their cost spreads twice as wide.
            ((3, 8, True), (4, 8, False), (3, 8, True), (3, 10, False)),
            _make_braid,
        ),
        Workload(
            "tangles",
            ("report", "verify"),
            128,
            # Kinks grow the walk core (12-20 unknowns) while adding one crossing
            # each to the Fox system, so the core solve leads at under half a
            # second a word.
            ((4, 2, 4),),
            _make_tangle,
        ),
        Workload(
            "series",
            ("taylor", "altsum"),
            64,
            # Every pure 3-strand braid of three doubled generators (c=6), once
            # each: one word's cost is up to 3.5 times another's, so sampled
            # words would make the latency depend on the seed.
            tuple(itertools.product((1, -1, 2, -2), repeat=3)),
            _make_series,
            shuffle_strata=True,
        ),
    )
}


def walk_core_size(word) -> int:
    """Edges left unlabeled after propagating labels down from the top.

    This is the size of the cyclic core that the walk oracle solves
    densely; braids without lazy strands have none.  It is computed here
    from the traced diagram, independently of the walks module.
    """
    d = trace(word)
    known = set(d.top_edges)
    pending = []
    for o_in, o_out, u_in, u_out in d.crossing_edges:
        pending += [(o_in, (o_out,)), (u_in, (u_out, o_out))]
    while pending:
        ready = [lhs for lhs, deps in pending if known.issuperset(deps)]
        if not ready:
            break
        known.update(ready)
        pending = [(lhs, deps) for lhs, deps in pending if lhs not in known]
    return len(pending)


def describe(word) -> Dict[str, object]:
    return {
        "n": word.n,
        "c": sum(1 for ev in word.events if is_crossing(ev)),
        "cups": sum(1 for ev in word.events if isinstance(ev, (CupL, CupR))),
        "pure": permutation(word) == tuple(range(1, word.n + 1)),
        "core": walk_core_size(word),
    }


def make_pool(workload: str, seed: int) -> List[Job]:
    """The workload's words for this seed; the same seed gives the same pool."""
    spec = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    strata = list(spec.strata)
    if spec.shuffle_strata:
        rng.shuffle(strata)
    jobs = []
    for i in range(spec.pool_size):
        word, ops = spec.make(rng, strata[i % len(strata)])
        dsl = to_dsl(word)
        if parse_morse(dsl) != word:
            raise RuntimeError("word %d of %s does not round-trip through the DSL" % (i, workload))
        jobs.append(Job("%s-%03d" % (workload, i), dsl, ops, describe(word)))
    return jobs
