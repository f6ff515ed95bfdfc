"""Morse-word diagrams: parsing, tracing, and surgery operations."""

import pytest

from stringlinks import (
    MorseError,
    MorseWord,
    add_kink,
    add_twist,
    flip_crossing,
    from_braid_word,
    invert,
    parse_braid_line,
    parse_morse,
    stack,
    to_dsl,
    trace,
)
from stringlinks.diagram import MAX_STRANDS, CrossNeg, CrossPos, is_crossing

from conftest import corpus_paths


def test_braid_permutations():
    assert trace(from_braid_word(3, [1])).perm == (2, 1, 3)
    assert trace(from_braid_word(3, [1, 2])).perm == (3, 1, 2)
    assert trace(from_braid_word(3, [1, 2, 1])).perm == (3, 2, 1)
    assert trace(from_braid_word(2, [1, 1])).perm == (1, 2)


def test_purity():
    assert trace(from_braid_word(2, [1, 1])).is_pure
    assert not trace(from_braid_word(2, [1])).is_pure


def test_cycle_coloring_constant_on_closure_cycles():
    word = from_braid_word(3, [1, 2])  # closure is a single cycle
    assert len(set(word.colors)) == 1
    pure = from_braid_word(3, [1, 1])
    assert pure.colors == (1, 2, 3)


def test_stack_composes_permutations():
    mono = (1, 1, 1)
    a = MorseWord(3, mono, (CrossPos(1),))
    b = MorseWord(3, mono, (CrossPos(2),))
    ab = stack(a, b)
    # bottom strand 1 goes to slot 2 through a, then slot 3 through b
    assert trace(ab).perm == (3, 1, 2)


def test_stack_rejects_color_mismatch():
    a = from_braid_word(2, [1, 1])
    b = from_braid_word(3, [1, 1])
    with pytest.raises(MorseError):
        stack(a, b)


def test_invert_reverses_permutation():
    word = from_braid_word(3, [1, 2])
    perm = trace(word).perm
    inv_perm = trace(invert(word)).perm
    composed = [perm[inv_perm[i] - 1] for i in range(3)]
    assert composed == [1, 2, 3]


def test_invert_is_involutive_on_braids():
    word = from_braid_word(3, [1, -2, 1])
    assert invert(invert(word)) == word


def test_flip_crossing_toggles():
    word = from_braid_word(2, [1, 1])
    flipped = flip_crossing(word, 1)
    assert isinstance(flipped.events[0], CrossNeg)
    assert flip_crossing(flipped, 1) == word
    with pytest.raises(MorseError):
        flip_crossing(word, 3)


def test_add_kink_preserves_class_data():
    word = from_braid_word(2, [1, 1])
    kinked = add_kink(word, 2)
    assert trace(kinked).perm == trace(word).perm
    assert kinked.colors == word.colors
    assert len(kinked.events) == len(word.events) + 3


def test_add_twist_needs_fixed_strand():
    word = from_braid_word(2, [1])  # strand 1 ends on top slot 2
    with pytest.raises(MorseError):
        add_twist(word, 1)


def test_add_twist_preserves_permutation_and_colors():
    word = from_braid_word(2, [1, 1])
    for strand in (1, 2):
        twisted = add_twist(word, strand)
        assert trace(twisted).perm == trace(word).perm
        assert twisted.colors == word.colors


def test_dsl_round_trip_on_corpus():
    for path in corpus_paths():
        word = parse_morse(path.read_text())
        assert parse_morse(to_dsl(word)) == word


def test_parse_braid_line_errors():
    with pytest.raises(MorseError):
        parse_braid_line("braid 2 s1")
    with pytest.raises(MorseError):
        parse_braid_line("braid 2: s5")
    with pytest.raises(MorseError):
        parse_braid_line("braid two: s1")


HUGE = "100000000000000000000"


@pytest.mark.parametrize("text, message", [
    ("braid %s: s3" % HUGE, r"line 1: strand count %s is not in 1\.\.64" % HUGE),
    ("braid %d: s1" % (MAX_STRANDS + 1), "strand count 65 is not in"),
    ("sl %s\nend\n" % HUGE, r"line 1: strand count %s is not in 1\.\.64" % HUGE),
    ("sl 2\ncolors 1 %s\nend\n" % HUGE, r"line 2: colors must be in 1\.\.64"),
    ("sl 2\ncolors %d 1\nend\n" % (MAX_STRANDS + 1), "line 2: colors must be in"),
    ("sl 2\ncolors 0 1\nend\n", "line 2: colors must be in"),
    ("braid 0: s1", "line 1: strand count 0 is not in"),
])
def test_strand_counts_and_colors_past_the_limit_are_parse_errors(text, message):
    # only the parser runs: no stage ever sees a value past MAX_STRANDS
    with pytest.raises(MorseError, match=message):
        parse_morse(text)


def test_the_limit_itself_parses():
    assert MAX_STRANDS == 64
    assert parse_morse("braid %d: s1" % MAX_STRANDS).n == MAX_STRANDS
    word = parse_morse("sl 2\ncolors %d 1\nend\n" % MAX_STRANDS)
    assert word.colors == (MAX_STRANDS, 1)


def test_parse_morse_reports_line_numbers():
    bad = "sl 2\nx 5 +\nend\n"
    with pytest.raises(MorseError) as err:
        parse_morse(bad)
    assert "2" in str(err.value)


def test_is_crossing_classifier():
    word = add_kink(from_braid_word(1, []), 1)
    kinds = [is_crossing(ev) for ev in word.events]
    assert kinds.count(True) == 1


def test_crossing_positions_validated():
    word = from_braid_word(2, [1])
    bad = type(word)(word.n, word.colors, (CrossPos(5),))
    with pytest.raises(MorseError):
        trace(bad)


class TestOneSweep:
    @pytest.fixture
    def sweeps(self, monkeypatch):
        from stringlinks import diagram

        calls = []
        original = diagram._sweep

        def spy(word):
            calls.append(word)
            return original(word)

        monkeypatch.setattr(diagram, "_sweep", spy)
        return calls

    def test_no_lazy_strand_is_swept_once(self, sweeps):
        trace(from_braid_word(2, [1, 1]))
        assert len(sweeps) == 1

    @pytest.mark.parametrize("word", [from_braid_word(3, [1, 2, 1]), from_braid_word(2, [])],
                             ids=["one lazy strand", "two lazy strands"])
    def test_kinks_need_one_more_sweep(self, word, sweeps):
        trace(word)
        assert len(sweeps) == 2
        assert len(sweeps[1].events) > len(word.events)

    def test_kinks_go_where_add_kink_puts_them(self):
        # every lazy strand gets add_kink's curl, in strand order
        for word, lazy in [(from_braid_word(3, [1, 2, 1]), [1]), (from_braid_word(2, []), [1, 2]),
                           (from_braid_word(3, [1]), [1, 3])]:
            kinked = word
            for s in lazy:
                kinked = add_kink(kinked, s)
            assert trace(word) == trace(kinked)
