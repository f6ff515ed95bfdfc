"""Morse-word diagrams for string links.

A string link on n strands is encoded as a bottom-to-top word of Morse
events: crossings between adjacent strand positions, local minima (cups)
and local maxima (caps).  Tracing a word follows every strand through the
events, splits strands into arcs at undercrossings, and produces the
combinatorial diagram (arcs, signed crossings, boundary data) consumed by
the algebraic modules.

Conventions, fixed once and pinned by the golden tests downstream:

* positions are 1-based among the currently live strand slots;
* CrossPos(i) lets the strand in slot i pass over the strand in slot i+1
  and they swap slots; CrossNeg(i) lets it pass under;
* the sign of a crossing is s_o * s_u * eta, where s_o, s_u are +1 for
  upward and -1 for downward flow of the over/under strand and eta = +1
  exactly when the over strand enters from the left slot;
* CupL(i) inserts a local minimum oriented leftward at the bottom of the
  loop, so its left leg flows upward; CupR(i) is the mirror image;
* Cap(i) joins slots i and i+1, whose flows must oppose.

Every strand of a traced diagram passes under at least one crossing; a
strand that never does is normalized by appending a small curl (kink)
near its top endpoint, which does not change the isotopy class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union


class MorseError(ValueError):
    """Raised for malformed words, bad events, or geometric violations."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class CrossPos:
    pos: int


@dataclass(frozen=True)
class CrossNeg:
    pos: int


@dataclass(frozen=True)
class CupL:
    pos: int


@dataclass(frozen=True)
class CupR:
    pos: int


@dataclass(frozen=True)
class Cap:
    pos: int


MorseEvent = Union[CrossPos, CrossNeg, CupL, CupR, Cap]


def is_crossing(event) -> bool:
    return isinstance(event, (CrossPos, CrossNeg))


@dataclass(frozen=True)
class MorseWord:
    """A string-link word: strand count, bottom colors, events bottom-to-top."""

    n: int
    colors: Tuple[int, ...]
    events: Tuple[MorseEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        object.__setattr__(self, "events", tuple(self.events))
        if self.n < 1:
            raise MorseError("strand count must be positive")
        if len(self.colors) != self.n:
            raise MorseError(
                "expected %d colors, got %d" % (self.n, len(self.colors))
            )
        if any((not isinstance(c, int)) or c < 1 for c in self.colors):
            raise MorseError("colors must be positive integers")

    def validate(self):
        """Check slot ranges and strand-count bookkeeping for every event."""
        live = self.n
        for idx, ev in enumerate(self.events):
            pos = ev.pos
            if is_crossing(ev) or isinstance(ev, Cap):
                if not 1 <= pos <= live - 1:
                    raise MorseError(
                        "event %d: position %d out of range for %d live strands"
                        % (idx + 1, pos, live)
                    )
                if isinstance(ev, Cap):
                    live -= 2
            elif isinstance(ev, (CupL, CupR)):
                if not 1 <= pos <= live + 1:
                    raise MorseError(
                        "event %d: cup position %d out of range for %d live strands"
                        % (idx + 1, pos, live)
                    )
                live += 2
            else:
                raise MorseError("event %d: unknown event %r" % (idx + 1, ev))
            if live < self.n:
                raise MorseError(
                    "event %d: live strand count drops below %d" % (idx + 1, self.n)
                )
        if live != self.n:
            raise MorseError(
                "word ends with %d live strands, expected %d" % (live, self.n)
            )


@dataclass(frozen=True)
class Arc:
    """A maximal overpass: a strand segment between consecutive underpasses."""

    ident: int
    strand: int
    color: int


@dataclass(frozen=True)
class Crossing:
    over_arc: int
    under_in_arc: int
    under_out_arc: int
    sign: int


@dataclass(frozen=True)
class Diagram:
    """Traced string-link diagram.

    Arcs are the Wirtinger generators' geometric counterparts; edges refine
    arcs at overpasses as well, giving the 4-valent graph used by the walk
    oracle.  perm maps each bottom strand (1-based) to its top slot.
    """

    n: int
    c: int
    colors: Tuple[int, ...]
    perm: Tuple[int, ...]
    arcs: Tuple[Arc, ...]
    crossings: Tuple[Crossing, ...]
    bottom_arcs: Tuple[int, ...]
    top_arcs: Tuple[int, ...]
    num_edges: int
    edge_strand: Tuple[int, ...]
    bottom_edges: Tuple[int, ...]
    top_edges: Tuple[int, ...]
    crossing_edges: Tuple[Tuple[int, int, int, int], ...]

    @property
    def is_pure(self) -> bool:
        return all(self.perm[i] == i + 1 for i in range(self.n))

    @property
    def top_colors(self) -> Tuple[int, ...]:
        return _top_colors(self.colors, self.perm)

    def closure_colors_match(self) -> bool:
        return self.top_colors == self.colors


class _Piece:
    """A connected strand-in-progress during the sweep.

    records holds crossing passages in traversal (flow) order; bottom is
    the bottom anchor slot when the traversal starts on the bottom
    boundary, else None (the piece was born at a cup).
    """

    __slots__ = ("records", "bottom")

    def __init__(self, bottom=None):
        self.records = deque()
        self.bottom = bottom


def _record(piece, at_head, rec):
    # Head-side passages are latest in flow, tail-side passages earliest.
    if at_head:
        piece.records.append(rec)
    else:
        piece.records.appendleft(rec)


def _sweep(word: MorseWord):
    """Run the Morse sweep.

    Returns (strand_pieces, crossing_signs, perm, cap_left_up) where
    strand_pieces[i] carries the flow-ordered passage records of bottom
    strand i+1 and cap_left_up maps the index of each cap event to
    whether its left leg flows upward.
    """
    word.validate()
    n = word.n
    slots = []  # (piece, at_head) with at_head True iff the slot flows upward
    for i in range(1, n + 1):
        slots.append((_Piece(bottom=i), True))
    crossing_signs = []
    cap_left_up = {}

    for idx, ev in enumerate(word.events):
        k = ev.pos
        if is_crossing(ev):
            pl, hl = slots[k - 1]
            pr, hr = slots[k]
            over_left = isinstance(ev, CrossPos)
            d_l = 1 if hl else -1
            d_r = 1 if hr else -1
            sign = d_l * d_r * (1 if over_left else -1)
            ci = len(crossing_signs)
            crossing_signs.append(sign)
            if over_left:
                _record(pl, hl, ("o", ci))
                _record(pr, hr, ("u", ci))
            else:
                _record(pr, hr, ("o", ci))
                _record(pl, hl, ("u", ci))
            slots[k - 1], slots[k] = slots[k], slots[k - 1]
        elif isinstance(ev, (CupL, CupR)):
            q = _Piece()
            if isinstance(ev, CupL):
                pair = [(q, True), (q, False)]
            else:
                pair = [(q, False), (q, True)]
            slots[k - 1:k - 1] = pair
        else:  # Cap
            pl, hl = slots[k - 1]
            pr, hr = slots[k]
            if hl == hr:
                raise MorseError(
                    "event %d: cap joins strands with aligned orientations"
                    % (idx + 1)
                )
            if pl is pr:
                raise MorseError(
                    "event %d: cap would close an isolated loop" % (idx + 1)
                )
            cap_left_up[idx] = hl
            merged = _Piece()
            if hl:
                # Flow climbs the left leg and descends into the right piece.
                merged.records = pl.records
                merged.records.extend(pr.records)
                merged.bottom = pl.bottom
                tail_owner, head_owner = pl, pr
            else:
                merged.records = pr.records
                merged.records.extend(pl.records)
                merged.bottom = pr.bottom
                tail_owner, head_owner = pr, pl
            del slots[k - 1:k + 1]
            for j, (p, h) in enumerate(slots):
                if p is tail_owner and not h:
                    slots[j] = (merged, False)
                elif p is head_owner and h:
                    slots[j] = (merged, True)

    perm = [0] * n
    strand_pieces = [None] * n
    for j, (piece, at_head) in enumerate(slots):
        if not at_head:
            raise MorseError(
                "top slot %d flows downward; a strand cannot end there" % (j + 1)
            )
        if piece.bottom is None:
            raise MorseError("top slot %d is not connected to the bottom" % (j + 1))
        perm[piece.bottom - 1] = j + 1
        strand_pieces[piece.bottom - 1] = piece
    return strand_pieces, crossing_signs, tuple(perm), cap_left_up


def permutation(word: MorseWord) -> Tuple[int, ...]:
    """perm[i-1] = top slot reached by bottom strand i."""
    return _sweep(word)[2]


def _build_diagram(word: MorseWord, swept) -> Diagram:
    """The Diagram of a word from its `_sweep`."""
    strand_pieces, crossing_signs, perm, _ = swept
    n = word.n
    c = len(crossing_signs)
    arcs = []
    over_arc = [None] * c
    under_in = [None] * c
    under_out = [None] * c
    crossing_edges = [[None] * 4 for _ in range(c)]
    bottom_arcs = [0] * n
    top_arcs = [0] * n
    bottom_edges = [0] * n
    top_edges = [0] * n
    edge_strand = []

    def new_arc(strand):
        arc = Arc(len(arcs), strand, word.colors[strand - 1])
        arcs.append(arc)
        return arc.ident

    def new_edge(strand):
        edge_strand.append(strand)
        return len(edge_strand) - 1

    for s in range(1, n + 1):
        cur_arc = new_arc(s)
        cur_edge = new_edge(s)
        bottom_arcs[s - 1] = cur_arc
        bottom_edges[s - 1] = cur_edge
        for kind, ci in strand_pieces[s - 1].records:
            nxt_edge = new_edge(s)
            if kind == "o":
                over_arc[ci] = cur_arc
                crossing_edges[ci][0] = cur_edge
                crossing_edges[ci][1] = nxt_edge
            else:
                under_in[ci] = cur_arc
                cur_arc = new_arc(s)
                under_out[ci] = cur_arc
                crossing_edges[ci][2] = cur_edge
                crossing_edges[ci][3] = nxt_edge
            cur_edge = nxt_edge
        top_arcs[perm[s - 1] - 1] = cur_arc
        top_edges[perm[s - 1] - 1] = cur_edge

    crossings = tuple(
        Crossing(over_arc[i], under_in[i], under_out[i], crossing_signs[i])
        for i in range(c)
    )
    return Diagram(
        n=n,
        c=c,
        colors=word.colors,
        perm=perm,
        arcs=tuple(arcs),
        crossings=crossings,
        bottom_arcs=tuple(bottom_arcs),
        top_arcs=tuple(top_arcs),
        num_edges=len(edge_strand),
        edge_strand=tuple(edge_strand),
        bottom_edges=tuple(bottom_edges),
        top_edges=tuple(top_edges),
        crossing_edges=tuple(tuple(q) for q in crossing_edges),
    )


def trace(word: MorseWord) -> Diagram:
    """Trace a word into a Diagram, normalizing strands that never pass under.

    Kinks keep the permutation, so one sweep places a kink on every such
    strand; only a word that needs one is swept again.
    """
    swept = _sweep(word)
    strand_pieces, _, perm, _ = swept
    kinks = tuple(
        ev
        for s in range(word.n)
        if not any(kind == "u" for kind, _ in strand_pieces[s].records)
        for ev in _kink(perm[s])
    )
    if kinks:
        word = MorseWord(word.n, word.colors, word.events + kinks)
        swept = _sweep(word)
    return _build_diagram(word, swept)


def stack(lower: MorseWord, upper: MorseWord) -> MorseWord:
    """Stack upper on top of lower; colors must agree across the interface."""
    if lower.n != upper.n:
        raise MorseError(
            "cannot stack words with %d and %d strands" % (lower.n, upper.n)
        )
    top_colors = _top_colors(lower.colors, permutation(lower))
    if top_colors != upper.colors:
        raise MorseError(
            "color mismatch at the stacking interface: %r vs %r"
            % (top_colors, upper.colors)
        )
    return MorseWord(lower.n, lower.colors, lower.events + upper.events)


def invert(word: MorseWord) -> MorseWord:
    """Concordance inverse: reflect through the half-height plane and
    reverse every strand's orientation.

    Under the reflection each crossing keeps its over strand but trades
    CrossPos for CrossNeg, cups become caps, and a cap becomes the cup
    whose orientation at the minimum matches the reversed flow: a cap
    whose left leg flowed upward reflects to CupL, the other to CupR.
    """
    _pieces, _signs, perm, cap_left_up = _sweep(word)
    flipped = []
    for idx in range(len(word.events) - 1, -1, -1):
        ev = word.events[idx]
        if isinstance(ev, CrossPos):
            flipped.append(CrossNeg(ev.pos))
        elif isinstance(ev, CrossNeg):
            flipped.append(CrossPos(ev.pos))
        elif isinstance(ev, (CupL, CupR)):
            flipped.append(Cap(ev.pos))
        else:
            flipped.append(CupL(ev.pos) if cap_left_up[idx] else CupR(ev.pos))

    return MorseWord(word.n, _top_colors(word.colors, perm), tuple(flipped))


def _top_colors(colors, perm) -> Tuple[int, ...]:
    """The colors of the top slots, for bottom colors and permutation perm."""
    top = [0] * len(perm)
    for color, j in zip(colors, perm):
        top[j - 1] = color
    return tuple(top)


def add_kink(word: MorseWord, strand: int) -> MorseWord:
    """Append a positive curl near the top of the given bottom strand.

    The curl makes the strand pass under itself once; the isotopy class,
    the permutation and the colors are unchanged.
    """
    if not 1 <= strand <= word.n:
        raise MorseError("strand %d out of range" % strand)
    return MorseWord(word.n, word.colors, word.events + _kink(permutation(word)[strand - 1]))


def _kink(p: int) -> Tuple[MorseEvent, ...]:
    """The events of a positive curl on the strand that ends in top slot p."""
    return (CupL(p + 1), CrossPos(p), Cap(p + 1))


def add_twist(word: MorseWord, strand: int = 1) -> MorseWord:
    """Wrap the word in a negative horizontal twist on the given strand.

    A cup below the diagram opens a loop next to the strand, the strand
    crosses the loop twice (two negative self-crossings), and a cap closes
    the loop above the diagram.  While the body runs, the loop's legs are
    parked to the far left via crossings in which the legs pass over the
    intervening strands; those bridges cancel in pairs under isotopy, so
    only the two self-crossings affect the invariants.  The closure of the
    result is isotopic to the closure of the input, but the string link
    itself changes.
    """
    s = strand
    if not 1 <= s <= word.n:
        raise MorseError("strand %d out of range" % s)
    if permutation(word)[s - 1] != s:
        raise MorseError(
            "twist needs strand %d to return to its own slot" % s
        )
    events: List[MorseEvent] = [CupL(s), CrossPos(s + 1), CrossPos(s + 1)]
    events.extend(CrossNeg(k) for k in range(s - 1, 0, -1))  # park head leg
    events.extend(CrossNeg(k) for k in range(s, 1, -1))      # park tail leg
    events.extend(type(ev)(ev.pos + 2) for ev in word.events)
    events.extend(CrossPos(k) for k in range(2, s + 1))      # return tail leg
    events.extend(CrossPos(k) for k in range(1, s))          # return head leg
    events.append(Cap(s + 1))
    return MorseWord(word.n, word.colors, tuple(events))


def flip_crossing(word: MorseWord, event_index: int) -> MorseWord:
    """Toggle the crossing type of the event at the given 1-based index."""
    if not 1 <= event_index <= len(word.events):
        raise MorseError("event index %d out of range" % event_index)
    ev = word.events[event_index - 1]
    if isinstance(ev, CrossPos):
        new = CrossNeg(ev.pos)
    elif isinstance(ev, CrossNeg):
        new = CrossPos(ev.pos)
    else:
        raise MorseError("event %d is not a crossing" % event_index)
    events = list(word.events)
    events[event_index - 1] = new
    return MorseWord(word.n, word.colors, tuple(events))


def from_braid_word(n: int, word: Iterable[int]) -> MorseWord:
    """Braid word to MorseWord: +i is CrossPos(i), -i is CrossNeg(i).

    Colors are constant on the cycles of the braid permutation (so the
    closure is consistently colored), numbered by each cycle's smallest
    strand and compressed to 1..m.
    """
    events = []
    perm = list(range(n))
    for g in word:
        i = abs(g)
        if g == 0 or i >= n:
            raise MorseError("braid generator %r out of range for n=%d" % (g, n))
        events.append(CrossPos(i) if g > 0 else CrossNeg(i))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    # Cycles of the induced permutation of bottom endpoints.
    mapping = {}
    for start, target in enumerate(perm):
        mapping[target] = start
    color_of = [0] * n
    next_color = 0
    for i in range(n):
        if color_of[i]:
            continue
        next_color += 1
        j = i
        while not color_of[j]:
            color_of[j] = next_color
            j = mapping[j]
    return MorseWord(n, tuple(color_of), tuple(events))


# The largest strand count and color value the parsers accept.  A color c
# is the variable t_c, so this also bounds the variable count of every stage.
MAX_STRANDS = 64


def _strand_count(tok: str, line_no: int) -> int:
    try:
        n = int(tok)
    except ValueError:
        raise MorseError("bad strand count %r" % tok, line=line_no)
    if not 1 <= n <= MAX_STRANDS:
        raise MorseError("strand count %d is not in 1..%d" % (n, MAX_STRANDS), line=line_no)
    return n


def parse_braid_line(text: str, line_no: int = 1) -> MorseWord:
    """Parse the one-line braid shorthand `braid <n>: s1 s2' s1`."""
    body = text.strip()
    if ":" not in body:
        raise MorseError("braid line needs a colon", line=line_no)
    head, rest = body.split(":", 1)
    parts = head.split()
    if len(parts) != 2 or parts[0] != "braid":
        raise MorseError("malformed braid header %r" % head, line=line_no)
    n = _strand_count(parts[1], line_no)
    return from_braid_word(n, _braid_generators(rest, n, line_no))


def _braid_generators(text: str, n: int, line_no: Optional[int] = None) -> List[int]:
    """Signed generator indices of `s1 s2' ...`: s<i> is +i, s<i>' is -i."""
    gens = []
    for tok in text.split():
        inverse = tok.endswith("'")
        core = tok[:-1] if inverse else tok
        if not core.startswith("s"):
            raise MorseError("bad braid generator %r" % tok, line=line_no)
        try:
            i = int(core[1:])
        except ValueError:
            raise MorseError("bad braid generator %r" % tok, line=line_no)
        if not 1 <= i <= n - 1:
            raise MorseError(
                "generator %r out of range for n=%d" % (tok, n), line=line_no
            )
        gens.append(-i if inverse else i)
    return gens


def parse_morse(text: str) -> MorseWord:
    """Parse the DSL. Grammar (one item per line, `#` starts a comment):

        sl <n>
        colors <c1> ... <cn>     (optional; defaults to 1..n)
        x <i> +  |  x <i> -  |  cap <i>  |  cup <i> <  |  cup <i> >
        end

    A single `braid <n>: s1 s2' ...` line is accepted as shorthand.  The
    strand count and every color lie in 1..MAX_STRANDS.
    """
    lines = text.splitlines()
    items = []  # (line_no, tokens)
    for no, raw in enumerate(lines, 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            items.append((no, body.split()))
    if not items:
        raise MorseError("empty input")

    no, toks = items[0]
    if toks[0] == "braid":
        if len(items) > 1:
            raise MorseError("braid shorthand must be a single line", line=items[1][0])
        return parse_braid_line(" ".join(toks), no)
    if toks[0] != "sl" or len(toks) != 2:
        raise MorseError("expected `sl <n>` header", line=no)
    n = _strand_count(toks[1], no)

    colors = tuple(range(1, n + 1))
    events = []
    pos_in = 1
    live = n
    saw_end = False
    if len(items) > 1 and items[1][1][0] == "colors":
        no, toks = items[1]
        if len(toks) != n + 1:
            raise MorseError("expected %d colors" % n, line=no)
        try:
            colors = tuple(int(t) for t in toks[1:])
        except ValueError:
            raise MorseError("colors must be integers", line=no)
        if not all(1 <= c <= MAX_STRANDS for c in colors):
            raise MorseError("colors must be in 1..%d" % MAX_STRANDS, line=no)
        pos_in = 2

    def parse_pos(tok, no, upper):
        try:
            i = int(tok)
        except ValueError:
            raise MorseError("bad position %r" % tok, line=no)
        if not 1 <= i <= upper:
            raise MorseError(
                "position %d out of range (%d live strands)" % (i, live), line=no
            )
        return i

    for no, toks in items[pos_in:]:
        if toks[0] == "end":
            if len(toks) != 1:
                raise MorseError("junk after `end`", line=no)
            saw_end = True
            break
        kind = toks[0]
        if kind == "x":
            if len(toks) != 3 or toks[2] not in "+-":
                raise MorseError("expected `x <i> +` or `x <i> -`", line=no)
            i = parse_pos(toks[1], no, live - 1)
            events.append(CrossPos(i) if toks[2] == "+" else CrossNeg(i))
        elif kind == "cap":
            if len(toks) != 2:
                raise MorseError("expected `cap <i>`", line=no)
            i = parse_pos(toks[1], no, live - 1)
            events.append(Cap(i))
            live -= 2
            if live < n:
                raise MorseError("live strand count drops below %d" % n, line=no)
        elif kind == "cup":
            if len(toks) != 3 or toks[2] not in "<>":
                raise MorseError("expected `cup <i> <` or `cup <i> >`", line=no)
            i = parse_pos(toks[1], no, live + 1)
            events.append(CupL(i) if toks[2] == "<" else CupR(i))
            live += 2
        else:
            raise MorseError("unknown event %r" % kind, line=no)
    if not saw_end:
        raise MorseError("missing `end`", line=items[-1][0])
    if live != n:
        raise MorseError("word ends with %d live strands, expected %d" % (live, n))
    return MorseWord(n, colors, tuple(events))


def to_dsl(word: MorseWord) -> str:
    """Serialize a word in the DSL; parse_morse round-trips it."""
    out = ["sl %d" % word.n]
    out.append("colors " + " ".join(str(c) for c in word.colors))
    for ev in word.events:
        if isinstance(ev, CrossPos):
            out.append("x %d +" % ev.pos)
        elif isinstance(ev, CrossNeg):
            out.append("x %d -" % ev.pos)
        elif isinstance(ev, CupL):
            out.append("cup %d <" % ev.pos)
        elif isinstance(ev, CupR):
            out.append("cup %d >" % ev.pos)
        else:
            out.append("cap %d" % ev.pos)
    out.append("end")
    return "\n".join(out) + "\n"
