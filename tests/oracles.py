"""Independent oracles the tests check the library against; the library never
calls them."""

import itertools
import math
from fractions import Fraction

from pgturan.construction import Hypergraph
from pgturan.geometry import bits, mask_of
from pgturan.structures import ArcRecord, _bisecant_cover, _shared_profile, frame_point_ids


def field_dot(f, u, v) -> int:
    """Dot product of two coordinate vectors over the field table `f`."""
    acc = 0
    for a, b in zip(u, v):
        acc = f.add_table[acc][f.mul_table[a][b]]
    return acc


def complete_arc_reference(g, mask: int) -> bool:
    """Whether the point set is an arc (no three collinear) that no outside
    point extends to a larger arc, tried point by point."""
    def is_arc(m):
        return all((m & lm).bit_count() <= 2 for lm in g.line_point_incidence)
    return is_arc(mask) and not any(is_arc(mask | 1 << p) for p in range(g.n_points)
                                    if not mask >> p & 1)


def exhaustive_cover_exists(universe: int, family, size: int) -> bool:
    """Whether some `size`-subset of the universe hits every family line.

    Independent check of the branch-and-bound optimality certificate: plain
    depth-limited exhaustion over the first uncovered line, no bounds.
    """
    fam = [lm & universe for lm in family]

    def go(remaining: list[int], depth: int) -> bool:
        if not remaining:
            return True
        if depth == 0:
            return False
        first = remaining[0]
        for p in bits(first):
            pb = 1 << p
            rest = [lm for lm in remaining[1:] if not lm & pb]
            if go(rest, depth - 1):
                return True
        return False

    return go(sorted(fam, key=lambda m: m.bit_count()), size)


def complete_hypergraph(n: int, r: int) -> Hypergraph:
    """K_n^r, every r-set an edge, with no partition spec, so an embedding
    search on it runs the generic backtracking."""
    return Hypergraph(n=n, r=r, edges=list(map(mask_of, itertools.combinations(range(n), r))))


def segment_evaluator(poly):
    """Float evaluator of a segment polynomial's unexpanded form: the sum, in
    monomial order, of c * alpha**i * beta**j with beta = 1 - t*alpha."""
    t = poly.constraint[1]
    terms = [(float(c), e) for e, c in poly.monomials.items()]

    def ev(alpha: float) -> float:
        beta = 1.0 - t * alpha
        return sum(c * alpha ** e[0] * beta ** e[1] for c, e in terms)

    return ev


def simplex_evaluator(poly):
    """Float evaluator of a simplex polynomial's unexpanded form: the sum, in
    monomial order, of c * alpha**i * beta**j * gamma**k with
    gamma = (1 - alpha - beta) / (M - 1)."""
    m_val = poly.constraint[1]
    terms = [(float(c), e) for e, c in poly.monomials.items()]

    def ev(alpha: float, beta: float) -> float:
        gamma = (1.0 - alpha - beta) / (m_val - 1)
        return sum(c * alpha ** e[0] * beta ** e[1] * gamma ** e[2] for c, e in terms)

    return ev


def bernstein_reference(coeffs):
    """Bernstein coefficients on [0, 1] of sum_d coeffs[d] x^d, one Fraction
    term C(r, d) / C(n, d) * coeffs[d] at a time."""
    n = len(coeffs) - 1
    return [sum(Fraction(math.comb(r, d), math.comb(n, d)) * coeffs[d]
                for d in range(r + 1)) for r in range(n + 1)]


def complete_arcs_reference(g):
    """The frame-anchored complete arcs of a plane, sorted by mask, from a
    search that calls every child: each call computes its own candidates,
    records itself when it has none and recurses on those above its newest
    point."""
    q = g.q
    frame = frame_point_ids(g)
    all_mask = g.all_points_mask
    all_lines = (1 << g.n_lines) - 1
    lines = g.line_point_incidence
    incidence = g.point_line_incidence
    found = []

    def extend(arc_mask, arc_ids, cover, met, min_next):
        cand = all_mask & ~cover
        if cand == 0:
            found.append(ArcRecord(arc_mask, True, _shared_profile(q, len(arc_ids)),
                                   all_lines & ~met))
            return
        for p in bits(cand & -(1 << min_next)):
            add = 0
            for a in arc_ids:
                add |= lines[g.pair_line[p][a]]
            extend(arc_mask | (1 << p), arc_ids + (p,), cover | add,
                   met | incidence[p], p + 1)

    frame_mask = mask_of(frame)
    met = 0
    for p in frame:
        met |= incidence[p]
    extend(frame_mask, frame, _bisecant_cover(g, frame_mask), met, 0)
    found.sort(key=lambda a: a.mask)
    return found
