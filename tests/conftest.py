"""Shared fixtures: the corpus of diagram files and seeded word generators.

Randomized checks use random.Random with fixed seeds so failures are
reproducible from the test name alone.
"""

import random
from pathlib import Path

import pytest

from stringlinks import MorseWord, RatMatrix, add_twist, from_braid_word, gassner, parse_morse, trace
from stringlinks.algebra import SparseMatrix
from stringlinks.diagram import MorseError, add_kink, is_crossing

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

_INVERSE_REALIZATION = {
    # body permutation -> positive braid word realizing its inverse
    (1, 2, 3): [],
    (2, 1, 3): [1],
    (1, 3, 2): [2],
    (2, 3, 1): [1, 2],
    (3, 1, 2): [2, 1],
    (3, 2, 1): [1, 2, 1],
}


def corpus_paths():
    paths = sorted(CORPUS_DIR.glob("*.sl"))
    assert paths, "corpus directory is empty"
    return paths


def load(path: Path) -> MorseWord:
    return parse_morse(path.read_text())


def corpus_words():
    return [(path.name, load(path)) for path in corpus_paths()]


def pure_corpus_words():
    return [(name, word) for name, word in corpus_words() if trace(word).is_pure]


def braid_corpus_words():
    return [
        (name, word)
        for name, word in corpus_words()
        if all(is_crossing(ev) for ev in word.events)
    ]


def random_pure_braids(count: int, seed: int, max_len: int = 8):
    """Pure 3-strand braid words of length <= max_len.

    A random signed word is closed up by a positive word realizing the
    inverse of its permutation, so the result is always pure.
    """
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        body_len = rng.randint(1, max_len - 3)
        gens = [rng.choice([1, 2]) * rng.choice([1, -1]) for _ in range(body_len)]
        perm = trace(from_braid_word(3, gens)).perm
        tail = _INVERSE_REALIZATION[tuple(perm)]
        if body_len + len(tail) > max_len:
            continue
        words.append(from_braid_word(3, gens + tail))
    return words


def random_twisted_tangles(count: int, seed: int):
    """Braid words on 3-4 strands wrapped in a twist on a strand 2..n, plus kinks.

    The twist's cup and cap close a loop through the body, so most of
    these words have a cyclic core in their Fox system.  Draws whose
    twisted strand does not return to its slot, or whose colors do not
    close up, are skipped.
    """
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        n = rng.choice([3, 4])
        gens = [rng.randint(1, n - 1) * rng.choice([1, -1])
                for _ in range(rng.randint(1, 3))]
        word = from_braid_word(n, gens)
        try:
            for _ in range(rng.randint(1, 2)):
                word = add_twist(word, rng.randint(2, n))
            for _ in range(rng.randint(0, 2)):
                word = add_kink(word, rng.randint(1, n))
            gassner(word)
        except MorseError:
            continue
        words.append(word)
    return words


def is_permuted_triangular(M) -> bool:
    """Whether rows and columns of the square RatMatrix or SparseMatrix M
    permute to triangular.

    Rows that mention a single live column are peeled off with their
    column; the peeling stalls exactly when some unknowns depend on each
    other in a cycle (or M is structurally singular).
    """
    if isinstance(M, SparseMatrix):
        live = {i: set(row) for i, row in enumerate(M.cells)}
    else:
        live = {i: {j for j, x in enumerate(row) if not x.is_zero()}
                for i, row in enumerate(M.entries)}
    while live:
        single = next((i for i, cols in live.items() if len(cols) == 1), None)
        if single is None:
            return False
        (j,) = live.pop(single)
        for cols in live.values():
            cols.discard(j)
    return True


def minor_matrix(M: RatMatrix, i: int, j: int) -> RatMatrix:
    """The dense RatMatrix M with row i and column j (0-based) deleted."""
    return RatMatrix(M.num_vars, [[x for c, x in enumerate(row) if c != j]
                                  for r, row in enumerate(M.entries) if r != i])


@pytest.fixture(scope="session")
def corpus():
    return corpus_words()


@pytest.fixture(scope="session")
def pure_corpus():
    return pure_corpus_words()


@pytest.fixture(scope="session")
def braid_corpus():
    return braid_corpus_words()
