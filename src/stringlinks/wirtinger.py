"""Wirtinger presentations of string-link complements and their Fox matrices.

Each arc of a traced diagram contributes one meridian generator; each
crossing contributes one conjugation relator.  With s the crossing sign,
o the over arc and u_in, u_out the under arcs in flow order, the relator
is

    o^{-s} . u_in . o^{s} . u_out^{-1},

i.e. the outgoing meridian is the incoming one conjugated by the over
meridian.  The generator basis is ordered (mu_1..mu_n, z_1..z_{c-n},
mu'_1..mu'_n): bottom meridians, interior arcs, top meridians.  Fox
differentiation of the relators with respect to that basis yields the
block matrix (A B C) over the Laurent ring, with A the mu-columns, B the
z-columns and C the mu'-columns.

The Fox rules are applied to arbitrary words (d(uv) = du + eps(u) dv,
d(g)/dg = 1, d(g^{-1})/dg = -eps(g)^{-1}), so positive and negative
crossings and curl relators are all handled by one code path.  On a
relator of the literal shape a b a^{-1} c^{-1} this reproduces the
classical row: 1 - eps(b) in column a, eps(a) in column b, -1 in column
c.  Our positive-crossing relators are the inverses-conjugates of that
shape, which scales the row by a unit; the solved representation and all
determinants-up-to-units downstream are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .algebra import (
    LaurentPoly,
    RatMatrix,
    VerificationError,
    augment,
    det,
)
from .diagram import Diagram


@dataclass(frozen=True)
class Generator:
    name: str
    color: int


Relator = Tuple[Tuple[int, int], ...]  # (generator index, exponent +1/-1)


@dataclass(frozen=True)
class WirtingerPresentation:
    n: int
    c: int
    num_vars: int
    generators: Tuple[Generator, ...]
    relators: Tuple[Relator, ...]
    bottom_colors: Tuple[int, ...]
    top_colors: Tuple[int, ...]


@dataclass(frozen=True)
class FoxMatrix:
    """Blocks of the Wirtinger-Fox matrix (A B C), entries Laurent polynomials."""

    n: int
    c: int
    num_vars: int
    A: RatMatrix
    B: RatMatrix
    C: RatMatrix
    column_colors: Tuple[int, ...]  # colors of (mu, z, mu') columns in order
    bottom_colors: Tuple[int, ...]
    top_colors: Tuple[int, ...]


def presentation(diagram: Diagram) -> WirtingerPresentation:
    """Extract generators and relators from a normalized diagram."""
    n, c = diagram.n, diagram.c
    arcs = diagram.arcs
    bottom = list(diagram.bottom_arcs)
    top = list(diagram.top_arcs)
    boundary = set(bottom) | set(top)
    interior = [a.ident for a in arcs if a.ident not in boundary]
    # A top arc can never coincide with a bottom arc: the strand passes
    # under at least once, so its first and last arcs differ.
    order = bottom + interior + top

    gen_index = {}
    generators: List[Generator] = []
    for k, arc_id in enumerate(order):
        arc = arcs[arc_id]
        if k < n:
            name = "mu%d" % (k + 1)
        elif k < c:
            name = "z%d" % (k - n + 1)
        else:
            name = "mu%d'" % (k - c + 1)
        gen_index[arc_id] = len(generators)
        generators.append(Generator(name, arc.color))

    relators = []
    for cr in diagram.crossings:
        o = gen_index[cr.over_arc]
        ui = gen_index[cr.under_in_arc]
        uo = gen_index[cr.under_out_arc]
        s = cr.sign
        relators.append(((o, -s), (ui, 1), (o, s), (uo, -1)))

    return WirtingerPresentation(
        n=n,
        c=c,
        num_vars=max(diagram.colors),
        generators=tuple(generators),
        relators=tuple(relators),
        bottom_colors=diagram.colors,
        top_colors=diagram.top_colors,
    )


def fox_matrix(pres: WirtingerPresentation) -> FoxMatrix:
    """Differentiate every relator and split the rows into (A B C)."""
    n, c, nv = pres.n, pres.c, pres.num_vars
    gens = pres.generators
    total = len(gens)
    rows = []
    for rel in pres.relators:
        row = [{} for _ in range(total)]
        prefix = [0] * nv  # exponent vector of the running abelianized prefix
        for g, e in rel:
            v = gens[g].color - 1
            if e == 1:
                exps = tuple(prefix)
                row[g][exps] = row[g].get(exps, 0) + 1
                prefix[v] += 1
            elif e == -1:
                prefix[v] -= 1
                exps = tuple(prefix)
                row[g][exps] = row[g].get(exps, 0) - 1
            else:
                raise VerificationError("relator exponents must be +1 or -1")
        rows.append([LaurentPoly(nv, cell) for cell in row])

    def block(col_lo, col_hi):
        return RatMatrix(nv, [row[col_lo:col_hi] for row in rows])

    return FoxMatrix(
        n=n,
        c=c,
        num_vars=nv,
        A=block(0, n),
        B=block(n, c),
        C=block(c, c + n),
        column_colors=tuple(g.color for g in gens),
        bottom_colors=pres.bottom_colors,
        top_colors=pres.top_colors,
    )


def check_augmentation(fox: FoxMatrix) -> int:
    """augment(det(A B)), which must be +1 or -1 for any traced diagram."""
    d = det(fox.A.hstack(fox.B))
    a = augment(d)
    if abs(a) != 1:
        raise VerificationError(
            "det(A B) augments to %s, expected +1 or -1" % a
        )
    return int(a)

