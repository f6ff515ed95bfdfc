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
matrix (A B C) over the Laurent ring, with A the mu-columns, B the
z-columns and C the mu'-columns.  A relator touches three arcs, and
FoxMatrix keeps only the nonzero cells of each row.

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
from typing import Dict, List, Tuple

from .algebra import LaurentPoly, SparseMatrix, VerificationError, _finished, _layout, _zero_key
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
    """The Wirtinger-Fox matrix (A B C): per relator, its nonzero cells
    {column: LaurentPoly} in column order, columns (mu, z, mu')."""

    n: int
    c: int
    num_vars: int
    rows: Tuple[Dict[int, LaurentPoly], ...]
    column_colors: Tuple[int, ...]  # colors of (mu, z, mu') columns in order
    bottom_colors: Tuple[int, ...]
    top_colors: Tuple[int, ...]

    def ab(self) -> SparseMatrix:
        """(A B): the mu and z columns, c x c."""
        return SparseMatrix(self.num_vars, self.c,
                            [{j: p for j, p in row.items() if j < self.c} for row in self.rows])


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
    """Differentiate every relator into one sparse row of (A B C).

    A relator's abelianized prefix runs as one packed exponent key: a
    generator of color v moves t_v's field and the total-degree field.
    """
    nv = pres.num_vars
    gens = pres.generators
    field = _layout(nv)[0]
    step = [(1 << field * nv) + (1 << field * (nv - g.color)) for g in gens]
    rows = []
    for rel in pres.relators:
        cells: Dict[int, dict] = {}
        prefix = _zero_key(nv)
        for g, e in rel:
            if e == -1:
                prefix -= step[g]
            elif e != 1:
                raise VerificationError("relator exponents must be +1 or -1")
            cell = cells.setdefault(g, {})
            cell[prefix] = cell.get(prefix, 0) + e
            if e == 1:
                prefix += step[g]
        rows.append({g: p for g in sorted(cells) if (p := _finished(cells[g], nv)).terms})

    return FoxMatrix(
        n=pres.n,
        c=pres.c,
        num_vars=nv,
        rows=tuple(rows),
        column_colors=tuple(g.color for g in gens),
        bottom_colors=pres.bottom_colors,
        top_colors=pres.top_colors,
    )
