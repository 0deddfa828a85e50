"""Blocking sets, arcs, secant profiles and complete-arc classification.

Point sets are integer bitmasks over the point ids of a fixed Geometry.
Complete arcs are enumerated frame-anchored: the projective group is
transitive on ordered frames, so every complete arc of size >= 4 is
equivalent to one containing {(1,0,0),(0,1,0),(0,0,1),(1,1,1)}.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .geometry import Geometry


ARC_ENUMERATION_MAX_Q = 8


class StructureError(ValueError):
    pass


def bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(ids) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


@dataclass
class ArcRecord:
    points: tuple[int, ...]
    mask: int
    is_complete: bool
    secant_profile: dict[int, int]     # i-secant counts for i = 0, 1, 2
    passant_ids: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass
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


def _min_blocking_branch_and_bound(g: Geometry, deadline: float | None):
    """Exact minimum blocking set via iterative-deepening branch and bound.

    For each size target the search branches on the most deficient uncovered
    line (fewest remaining candidate points), bans tried points on the other
    branches, and prunes with ceil(uncovered / lines through a point); a
    partial set dies as soon as it fully contains a line.  Returns
    (witness, exact, nodes); the witness is None when no blocking set exists
    or the deadline passed.
    """
    lines = g.line_point_incidence
    # lines through a point, the most uncovered lines a new point can meet
    per_point = g.point_line_incidence[0].bit_count()
    nodes = 0
    timed_out = False

    def search(chosen: int, banned: int, target: int) -> int | None:
        nonlocal nodes, timed_out
        nodes += 1
        if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
            timed_out = True
            return None
        size = chosen.bit_count()
        picked = None
        picked_opts = None
        uncovered = 0
        for lm in lines:
            inter = chosen & lm
            if inter == lm:
                return None  # contains a full line
            if inter:
                continue
            uncovered += 1
            opts = lm & ~banned
            if opts == 0:
                return None
            c = opts.bit_count()
            if picked_opts is None or c < picked_opts:
                picked, picked_opts = opts, c
        if picked is None:
            return chosen
        if size + (uncovered + per_point - 1) // per_point > target:
            return None
        for p in bits(picked):
            got = search(chosen | (1 << p), banned, target)
            if got is not None or timed_out:
                return got
            banned |= 1 << p  # later branches must meet the line elsewhere
        return None

    for target in range(1, g.n_points + 1):
        got = search(0, 0, target)
        if got is not None or timed_out:
            return got, not timed_out, nodes
    return None, True, nodes


def max_blocking_set_size(g: Geometry, budget: float | None = None) -> BlockingSearchResult:
    """Exact maximum blocking set size, with witness.

    Uses the complement duality of blocking sets (every line has q+1 points,
    so a set blocks iff its complement does): the complement of a minimum
    blocking set is a maximum one.  Branch and bound finds the minimum, within
    an optional time budget.
    """
    deadline = time.monotonic() + budget if budget is not None else None
    wmin, exact, nodes = _min_blocking_branch_and_bound(g, deadline)
    if wmin is None:
        return BlockingSearchResult(None, 0, exact, nodes)
    witness = g.all_points_mask & ~wmin
    return BlockingSearchResult(witness.bit_count(), witness, True, nodes)


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


def is_complete_arc(g: Geometry, mask: int) -> bool:
    """An arc is complete when no outside point can extend it."""
    if not is_arc(g, mask):
        return False
    if mask.bit_count() < 2:
        return False
    extendable = g.all_points_mask & ~_bisecant_cover(g, mask) & ~mask
    return extendable == 0


def secant_profile(g: Geometry, mask: int) -> ArcRecord:
    """Passant/tangent/secant counts of an arc, with the passant line ids."""
    if g.m != 2:
        raise StructureError("secant profiles are defined only for planes")
    profile = {0: 0, 1: 0, 2: 0}
    passants = []
    for lid, lm in enumerate(g.line_point_incidence):
        c = (mask & lm).bit_count()
        if c > 2:
            raise StructureError("point set is not an arc")
        profile[c] += 1
        if c == 0:
            passants.append(lid)
    return ArcRecord(
        points=tuple(bits(mask)),
        mask=mask,
        is_complete=is_complete_arc(g, mask),
        secant_profile=profile,
        passant_ids=tuple(passants),
    )


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
    """All complete arcs containing the standard frame, deduplicated as sets.

    Every complete arc of size >= 4 is collineation-equivalent to at least one
    of the outputs.  Guarded to q <= ARC_ENUMERATION_MAX_Q; pass force=True to
    override.
    """
    if g.m != 2:
        raise StructureError("complete-arc enumeration needs m=2")
    if g.q > ARC_ENUMERATION_MAX_Q and not force:
        raise StructureError(f"q={g.q} beyond enumeration budget (force=True to override)")
    frame = frame_point_ids(g)
    frame_mask = mask_of(frame)
    all_mask = g.all_points_mask
    lines = g.line_point_incidence
    pair_line = g.pair_line

    cover = _bisecant_cover(g, frame_mask)
    found: set[int] = set()

    def extend(arc_mask: int, arc_ids: tuple[int, ...], cover: int, min_next: int):
        cand = all_mask & ~cover & ~arc_mask
        if cand == 0:
            found.add(arc_mask)
            return
        for p in bits(cand):
            if p < min_next:
                continue
            add = 0
            for a in arc_ids:
                add |= lines[pair_line[p][a]]
            extend(arc_mask | (1 << p), arc_ids + (p,), cover | add, p + 1)

    extend(frame_mask, frame, cover, 0)
    return [secant_profile(g, m) for m in sorted(found)]


# --- collineations -----------------------------------------------------------

def _matvec(f, mat, vec):
    return tuple(f.dot(row, vec) for row in mat)


def _mat_inverse(f, mat):
    (a, b, c), (d, e, g_), (h, i, j) = mat
    def m2(x, y, z, w):  # det of 2x2
        return f.sub(f.mul(x, w), f.mul(y, z))
    ca, cb, cc = m2(e, g_, i, j), f.neg(m2(d, g_, h, j)), m2(d, e, h, i)
    det = f.add(f.add(f.mul(a, ca), f.mul(b, cb)), f.mul(c, cc))
    if det == 0:
        raise StructureError("singular matrix")
    s = f.inv(det)
    cd, ce, cf_ = f.neg(m2(b, c, i, j)), m2(a, c, h, j), f.neg(m2(a, b, h, i))
    cg, ch, ci = m2(b, c, e, g_), f.neg(m2(a, c, d, g_)), m2(a, b, d, e)
    adj = ((ca, cd, cg), (cb, ce, ch), (cc, cf_, ci))
    return tuple(tuple(f.mul(s, x) for x in row) for row in adj)


def projectivity_from_frame(g: Geometry, pts: tuple[int, int, int, int]):
    """The unique projectivity sending the standard frame to the given 4 points.

    The points must be in general position (no 3 collinear).
    """
    f = g.field
    p1, p2, p3, p4 = (g.points[i].coords for i in pts)
    base = (p1, p2, p3)
    inv = _mat_inverse(f, tuple(zip(*base)))  # columns p1,p2,p3
    lam = _matvec(f, inv, p4)
    if 0 in lam:
        raise StructureError("points not in general position")
    cols = tuple(tuple(f.mul(lam[j], base[j][i]) for j in range(3)) for i in range(3))
    return cols  # 3x3 matrix as rows


def apply_projectivity(g: Geometry, mat, mask: int) -> int:
    f = g.field
    out = 0
    for p in bits(mask):
        img = g.point_id(_matvec(f, mat, g.points[p].coords))
        out |= 1 << img
    return out


def apply_field_automorphism(g: Geometry, power: int, mask: int) -> int:
    """Apply coordinate-wise a -> a^(p^power)."""
    f = g.field
    out = 0
    for p in bits(mask):
        coords = tuple(f.pow(c, f.p ** power) for c in g.points[p].coords)
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
    # each field-automorphism image of mask_a, moved so its first four points
    # are the frame
    rests = []
    for aut in range(f.k):
        m_aut = apply_field_automorphism(g, aut, mask_a)
        back = collineation_to_frame(g, tuple(bits(m_aut))[:4])
        rests.append([g.points[p].coords
                      for p in bits(apply_projectivity(g, back, m_aut))])
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


def max_concurrency(g: Geometry, line_ids) -> int:
    """Largest number of the given lines passing through a common point."""
    sel = 0
    for lid in line_ids:
        sel |= 1 << lid
    best = 0
    for inc in g.point_line_incidence:
        c = (inc & sel).bit_count()
        if c > best:
            best = c
    return best
