"""Blocking sets, arcs, secant profiles and complete-arc classification.

Point and line sets are integer bitmasks over the ids of a fixed Geometry;
an arc record holds its points and its passants as masks.
Complete arcs are enumerated frame-anchored: the projective group is
transitive on ordered frames, so every complete arc of size >= 4 is
equivalent to one containing {(1,0,0),(0,1,0),(0,0,1),(1,1,1)}.

The two exact searches carry line masks down their recursion instead of
rescanning every line at each node: the arc enumeration carries the lines
its arc meets, so each result is complete by construction and its secant
profile is read off the unmet lines; the blocking-set search carries the
uncovered lines and the lines through banned points.  Collineations work
on 3x3 matrices through the field's add, mul, neg and inv tables.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from .geometry import Geometry, SearchTimeout, bits, mask_of


ARC_ENUMERATION_MAX_Q = 8


class StructureError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class ArcRecord:
    mask: int                          # the arc's points
    is_complete: bool
    secant_profile: MappingProxyType   # i-secant counts for i = 0, 1, 2, shared per (q, k)
    passants: int                      # mask of the lines missing the arc

    @property
    def size(self) -> int:
        return self.mask.bit_count()


@cache
def _shared_profile(q: int, k: int) -> MappingProxyType:
    """The read-only {0: passants, 1: tangents, 2: secants} of every k-arc in
    PG_2(q): a k-arc has k(q+2-k) tangents and k(k-1)/2 secants, and the
    other lines of the q^2+q+1 miss it."""
    tangents, secants = k * (q + 2 - k), k * (k - 1) // 2
    return MappingProxyType({0: q * q + q + 1 - tangents - secants,
                             1: tangents, 2: secants})


@dataclass(frozen=True, slots=True)
class BlockingSearchResult:
    size: int | None        # None when no blocking set exists
    witness: int            # bitmask, 0 when none
    exact: bool             # False when the search hit its budget
    explored_nodes: int


def is_blocking_set(g: Geometry, mask: int) -> bool:
    """True iff the set meets every line in at least 1 and at most q points."""
    q = g.q
    for lm in g.line_point_incidence:
        c = (mask & lm).bit_count()
        if c == 0 or c > q:
            return False
    return True


def max_blocking_set_size(g: Geometry, budget: float | None = None) -> BlockingSearchResult:
    """Exact maximum blocking set size, with witness.

    Uses the complement duality of blocking sets (every line has q+1 points,
    so a set blocks iff its complement does): the complement of a minimum
    blocking set is a maximum one.  The minimum comes from iterative-deepening
    branch and bound, within an optional time budget.  For each size target
    the search branches on the most deficient uncovered line (fewest
    remaining candidate points, lowest line id on ties), bans tried points
    on the other branches, and prunes with ceil(uncovered / lines through a
    point); a partial set dies as soon as it fully contains a line.

    Each node carries two line masks: `uncov`, the lines with no chosen
    point, and `touched`, the lines through some banned point.  Only a line
    through the newest point can have become full, and only a line of
    `uncov & touched` can have fewer than q+1 candidates; when there is
    none, the lowest uncovered line, whose q+1 points are all candidates, is
    the branch line.  A line with no candidate left has the fewest, so it
    becomes the branch line and its node has no child.
    """
    deadline = time.monotonic() + budget if budget is not None else None
    q = g.q
    lines = g.line_point_incidence
    incidence = g.point_line_incidence
    # lines through a point, the most uncovered lines a new point can meet
    per_point = incidence[0].bit_count()
    nodes = 0

    def search(chosen: int, banned: int, uncov: int, touched: int, recheck: int,
               size: int, target: int) -> int | None:
        # recheck: the lines through the newest point that held a chosen point
        nonlocal nodes
        nodes += 1
        if (deadline is not None and (nodes == 1 or nodes % 4096 == 0)
                and time.monotonic() > deadline):
            raise SearchTimeout(nodes)
        # the two scans walk their masks inline; bits() costs about 15% here
        if size > q:   # a full line needs q+1 chosen points
            while recheck:
                low = recheck & -recheck
                if lines[low.bit_length() - 1] & ~chosen == 0:
                    return None  # contains a full line
                recheck ^= low
        if uncov == 0:
            return chosen
        if size + (uncov.bit_count() + per_point - 1) // per_point > target:
            return None
        scan = uncov & touched or uncov & -uncov
        fewest = q + 2   # more than any line's q+1 candidates
        while scan:
            low = scan & -scan
            opts = lines[low.bit_length() - 1] & ~banned
            c = opts.bit_count()
            if c < fewest:
                picked, fewest = opts, c
            scan ^= low
        for p in bits(picked):
            inc = incidence[p]
            got = search(chosen | (1 << p), banned, uncov & ~inc, touched,
                         inc & ~uncov, size + 1, target)
            if got is not None:
                return got
            banned |= 1 << p  # later branches must meet the line elsewhere
            touched |= inc
        return None

    all_lines = (1 << g.n_lines) - 1
    try:
        for target in range(1, g.n_points + 1):
            wmin = search(0, 0, all_lines, 0, 0, 0, target)
            if wmin is not None:
                witness = g.all_points_mask & ~wmin
                return BlockingSearchResult(witness.bit_count(), witness, True, nodes)
    except SearchTimeout:
        return BlockingSearchResult(None, 0, False, nodes)
    return BlockingSearchResult(None, 0, True, nodes)


def is_arc(g: Geometry, mask: int) -> bool:
    if g.m != 2:
        raise StructureError("arcs are defined here only for planes (m=2)")
    for lm in g.line_point_incidence:
        if (mask & lm).bit_count() > 2:
            return False
    return True


def _bisecant_cover(g: Geometry, mask: int) -> int:
    """Union of all 2-secant lines' point sets."""
    cover = 0
    ids = list(bits(mask))
    pair_line = g.pair_line
    lines = g.line_point_incidence
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            cover |= lines[pair_line[a][b]]
    return cover


def _closed(g: Geometry, arc_mask: int) -> bool:
    """Whether the arc's bisecant cover, empty below 2 points, holds every
    point off the arc: then no outside point can extend it."""
    return g.all_points_mask & ~_bisecant_cover(g, arc_mask) & ~arc_mask == 0


def is_complete_arc(g: Geometry, mask: int) -> bool:
    """An arc is complete when no outside point can extend it."""
    return is_arc(g, mask) and _closed(g, mask)


def secant_profile(g: Geometry, mask: int) -> ArcRecord:
    """Passant/tangent/secant counts and completeness of an arc, with its
    passants' mask.  Every line is scanned, to reject a non-arc and to
    collect the passants; the counts are the shared profile of its size."""
    if g.m != 2:
        raise StructureError("secant profiles are defined only for planes")
    passants = 0
    for lid, lm in enumerate(g.line_point_incidence):
        c = (mask & lm).bit_count()
        if c > 2:
            raise StructureError("point set is not an arc")
        if c == 0:
            passants |= 1 << lid
    return ArcRecord(mask, _closed(g, mask), _shared_profile(g.q, mask.bit_count()),
                     passants)


def frame_point_ids(g: Geometry) -> tuple[int, ...]:
    one = 1
    m = g.m
    e = []
    for i in range(m + 1):
        v = [0] * (m + 1)
        v[i] = one
        e.append(g.point_index[tuple(v)])
    u = g.point_index[(1,) * (m + 1)]
    return (*e, u)


def enumerate_complete_arcs(g: Geometry, force: bool = False) -> list[ArcRecord]:
    """All complete arcs containing the standard frame, sorted by mask.

    Every complete arc of size >= 4 is collineation-equivalent to at least one
    of the outputs.  Guarded to q <= ARC_ENUMERATION_MAX_Q; pass force=True to
    override.

    The search adds points in increasing id order, each off every bisecant
    of the arc so far, so each result is an arc, found once.  A leaf is a
    state with no point off the bisecant cover, which is completeness.  The
    search carries the mask of lines met by the arc: at a leaf the unmet
    lines are the passants, and every record of one size shares one
    read-only profile, so each record comes without a pass over the lines.
    """
    if g.m != 2:
        raise StructureError("complete-arc enumeration needs m=2")
    if g.q > ARC_ENUMERATION_MAX_Q and not force:
        raise StructureError(f"q={g.q} is beyond the arc enumeration limit "
                             f"q <= {ARC_ENUMERATION_MAX_Q}")
    q = g.q
    frame = frame_point_ids(g)
    frame_mask = mask_of(frame)
    all_mask = g.all_points_mask
    all_lines = (1 << g.n_lines) - 1
    lines = g.line_point_incidence
    incidence = g.point_line_incidence
    pair_line = g.pair_line

    met = 0
    for p in frame:
        met |= incidence[p]
    found: list[ArcRecord] = []

    def extend(arc_mask: int, arc_ids: tuple[int, ...], cover: int, met: int,
               min_next: int):
        cand = all_mask & ~cover   # the bisecant cover holds the arc itself
        if cand == 0:
            found.append(ArcRecord(arc_mask, True, _shared_profile(q, len(arc_ids)),
                                   all_lines & ~met))
            return
        for p in bits(cand & -(1 << min_next)):
            add = 0
            for a in arc_ids:
                add |= lines[pair_line[p][a]]
            extend(arc_mask | (1 << p), arc_ids + (p,), cover | add,
                   met | incidence[p], p + 1)

    extend(frame_mask, frame, _bisecant_cover(g, frame_mask), met, 0)
    found.sort(key=lambda a: a.mask)
    return found


# --- collineations -----------------------------------------------------------

def _matvec(f, mat, vec):
    """mat @ vec for a 3x3 matrix over the field, by table lookups."""
    add, mul = f.add_table, f.mul_table
    mx, my, mz = mul[vec[0]], mul[vec[1]], mul[vec[2]]
    return tuple(add[add[mx[a]][my[b]]][mz[c]] for a, b, c in mat)


def _mat_inverse(f, mat):
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    (a, b, c), (d, e, g_), (h, i, j) = mat

    def m2(x, y, z, w):  # det of 2x2
        return add[mul[x][w]][neg[mul[y][z]]]
    ca, cb, cc = m2(e, g_, i, j), neg[m2(d, g_, h, j)], m2(d, e, h, i)
    det = add[add[mul[a][ca]][mul[b][cb]]][mul[c][cc]]
    if det == 0:
        raise StructureError("singular matrix")
    s = mul[f.inv_table[det]]
    cd, ce, cf_ = neg[m2(b, c, i, j)], m2(a, c, h, j), neg[m2(a, b, h, i)]
    cg, ch, ci = m2(b, c, e, g_), neg[m2(a, c, d, g_)], m2(a, b, d, e)
    return ((s[ca], s[cd], s[cg]), (s[cb], s[ce], s[ch]), (s[cc], s[cf_], s[ci]))


def projectivity_from_frame(g: Geometry, pts: tuple[int, int, int, int]):
    """The unique projectivity sending the standard frame to the given 4 points.

    The points must be in general position (no 3 collinear).
    """
    f = g.field
    p1, p2, p3, p4 = (g.points[i] for i in pts)
    inv = _mat_inverse(f, tuple(zip(p1, p2, p3)))  # columns p1,p2,p3
    l1, l2, l3 = _matvec(f, inv, p4)
    if not (l1 and l2 and l3):
        raise StructureError("points not in general position")
    mul = f.mul_table
    m1, m2, m3 = mul[l1], mul[l2], mul[l3]
    return tuple((m1[x], m2[y], m3[z]) for x, y, z in zip(p1, p2, p3))  # rows


def apply_projectivity(g: Geometry, mat, mask: int) -> int:
    f = g.field
    out = 0
    for p in bits(mask):
        img = g.point_id(_matvec(f, mat, g.points[p]))
        out |= 1 << img
    return out


def apply_field_automorphism(g: Geometry, power: int, mask: int) -> int:
    """Apply coordinate-wise a -> a^(p^power)."""
    f = g.field
    out = 0
    for p in bits(mask):
        coords = tuple(f.pow(c, f.p ** power) for c in g.points[p])
        out |= 1 << g.point_id(coords)
    return out


def collineation_to_frame(g: Geometry, pts: tuple[int, int, int, int]):
    """Projectivity mapping the given general-position quadruple onto the frame."""
    f = g.field
    fwd = projectivity_from_frame(g, pts)
    return _mat_inverse(f, fwd)


def arcs_equivalent(g: Geometry, mask_a: int, mask_b: int) -> bool:
    """Whether two arcs of size >= 4 lie in the same PGammaL(3,q) orbit."""
    if mask_a.bit_count() != mask_b.bit_count():
        return False
    ids_a = tuple(bits(mask_a))
    ids_b = tuple(bits(mask_b))
    if len(ids_a) < 4:
        raise StructureError("classification needs arcs of size >= 4")
    f = g.field
    frame_mask = mask_of(frame_point_ids(g))
    # each field-automorphism image of mask_a, moved so its first four points
    # are the frame; a projectivity from the frame sends those four into its
    # quad, so only the other points need testing
    rests = []
    for aut in range(f.k):
        m_aut = apply_field_automorphism(g, aut, mask_a)
        back = collineation_to_frame(g, tuple(bits(m_aut))[:4])
        moved = apply_projectivity(g, back, m_aut)
        rests.append([g.points[p] for p in bits(moved & ~frame_mask)])
    for quad in itertools.permutations(ids_b, 4):
        try:
            fwd = projectivity_from_frame(g, quad)
        except StructureError:
            continue
        # a projectivity is injective and the sizes match, so the image
        # equals mask_b once every point lands in it; stop at the first miss
        for rest in rests:
            if all(mask_b >> g.point_id(_matvec(f, fwd, v)) & 1 for v in rest):
                return True
    return False


def classify_up_to_collineation(g: Geometry, masks) -> list[list[int]]:
    """Partition arcs into PGammaL(3,q) equivalence classes.

    Returns a list of classes, each a list of the input masks; the first
    element of each class is its representative.
    """
    classes: list[list[int]] = []
    for m in masks:
        for cls in classes:
            if arcs_equivalent(g, cls[0], m):
                cls.append(m)
                break
        else:
            classes.append([m])
    return classes


def max_concurrency(g: Geometry, lines: int) -> int:
    """Largest number of the lines in the mask passing through a common point."""
    best = 0
    for inc in g.point_line_incidence:
        c = (inc & lines).bit_count()
        if c > best:
            best = c
    return best
