"""Blocking sets, arcs, enumeration and classification against known structure."""

import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pgturan.geometry import build_geometry, point_of
from pgturan.structures import (
    StructureError,
    apply_field_automorphism,
    apply_projectivity,
    arcs_equivalent,
    bits,
    classify_up_to_collineation,
    collineation_to_frame,
    enumerate_complete_arcs,
    frame_point_ids,
    is_arc,
    is_blocking_set,
    is_complete_arc,
    mask_of,
    max_blocking_set_size,
    max_concurrency,
    projectivity_from_frame,
    secant_profile,
    _mat_inverse,
    _matvec,
)


def points(g, labels):
    return mask_of(point_of(g, s) for s in labels)


# --- blocking sets ------------------------------------------------------------

def test_fano_has_no_blocking_set():
    g = build_geometry(2, 2)
    assert all(not is_blocking_set(g, m) for m in range(1 << g.n_points))


def test_all_points_never_block():
    for q in (2, 3, 4):
        g = build_geometry(2, q)
        assert not is_blocking_set(g, g.all_points_mask)


def brute_force_extremes_q3():
    g = build_geometry(2, 3)
    sizes = [m.bit_count() for m in range(1 << g.n_points) if is_blocking_set(g, m)]
    return min(sizes), max(sizes)


def test_q3_exhaustive_scan_freezes_extremes():
    assert brute_force_extremes_q3() == (6, 7)


def min_blocking_scan(g):
    """Reference: (size, mask) of the first smallest blocking set in mask order,
    or None; scans every subset, so only for planes of at most 15 points."""
    best = None
    for mask in range(1 << g.n_points):
        if best is not None and mask.bit_count() >= best[0]:
            continue
        if is_blocking_set(g, mask):
            best = (mask.bit_count(), mask)
    return best


@pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (3, 2)])
def test_branch_and_bound_matches_subset_scan(m, q):
    g = build_geometry(m, q)
    res = max_blocking_set_size(g)
    scan = min_blocking_scan(g)
    assert res.exact and res.explored_nodes > 0
    if scan is None:
        assert (res.size, res.witness) == (None, 0)
    else:
        assert res.size == g.n_points - scan[0]
        assert res.witness.bit_count() == res.size
        assert is_blocking_set(g, res.witness)


def test_blocking_search_node_counts():
    # the bound divides the uncovered lines by the lines through a point
    # (q+1 in a plane, 7 in PG(3,2)); dividing by q+1 in PG(3,2) over-prunes
    # to 459 nodes, which no reachable instance turns into a wrong answer
    for m, q, nodes in ((2, 2, 187), (2, 3, 490), (3, 2, 1040), (2, 4, 3804),
                        (2, 5, 148_865)):
        assert max_blocking_set_size(build_geometry(m, q)).explored_nodes == nodes


def min_blocking_reference(g, deadline):
    """The blocking-set branch and bound that rescans every line at each
    node, kept as the oracle for the incremental line masks: same branch
    line, bans, bound and deadline, so it must agree on witness, exactness
    and node count."""
    lines = g.line_point_incidence
    per_point = g.point_line_incidence[0].bit_count()
    nodes = 0
    timed_out = False

    def search(chosen, banned, target):
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
            banned |= 1 << p
        return None

    for target in range(1, g.n_points + 1):
        got = search(0, 0, target)
        if got is not None or timed_out:
            return got, not timed_out, nodes
    return None, True, nodes


@pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_blocking_search_matches_rescanning_reference(m, q):
    g = build_geometry(m, q)
    res = max_blocking_set_size(g)
    wmin, exact, nodes = min_blocking_reference(g, None)
    witness = 0 if wmin is None else g.all_points_mask & ~wmin
    assert (res.witness, res.exact, res.explored_nodes) == (witness, exact, nodes)


def test_blocking_search_zero_budget_times_out():
    # the deadline is read at the root and then every 4096 nodes
    res = max_blocking_set_size(build_geometry(2, 5), budget=0)
    assert (res.size, res.witness, res.exact, res.explored_nodes) == (None, 0, False, 1)


def test_blocking_search_times_out_at_its_first_periodic_read(stalled_clock):
    # the clock passes the deadline after the root read; the q=5 search
    # needs 148,865 nodes, so it stops at the read of node 4096
    stalled_clock("pgturan.structures")
    res = max_blocking_set_size(build_geometry(2, 5), budget=1)
    assert (res.size, res.witness, res.exact, res.explored_nodes) == (None, 0, False, 4096)


def test_blocking_search_zero_budget_stops_before_a_short_search_ends():
    # the q=3 search ends after 490 nodes, before any periodic read
    res = max_blocking_set_size(build_geometry(2, 3), budget=0)
    assert (res.size, res.exact, res.explored_nodes) == (None, False, 1)


def test_max_blocking_sizes():
    assert max_blocking_set_size(build_geometry(2, 2)).size is None
    r3 = max_blocking_set_size(build_geometry(2, 3))
    assert (r3.size, r3.exact) == (7, True)
    assert is_blocking_set(build_geometry(2, 3), r3.witness)
    r4 = max_blocking_set_size(build_geometry(2, 4))
    assert (r4.size, r4.exact) == (14, True)
    assert is_blocking_set(build_geometry(2, 4), r4.witness)


def test_blocking_size_bound_small_q():
    # k <= floor(q^2 - sqrt(q)): 7 for q=3, 14 for q=4
    assert max_blocking_set_size(build_geometry(2, 3)).size <= 7
    assert max_blocking_set_size(build_geometry(2, 4)).size <= 14


def test_q4_minimum_by_cardinality_oracle():
    """Independent proof that the q=4 maximum is 14: no blocking set of size
    <= 6 exists (scan by increasing cardinality), one of size 7 does, and
    complements of blocking sets block."""
    import itertools
    g = build_geometry(2, 4)
    r4 = max_blocking_set_size(build_geometry(2, 4))
    complement = g.all_points_mask & ~r4.witness
    assert complement.bit_count() == 7
    assert is_blocking_set(g, complement)
    hits = [lm for lm in g.line_point_incidence]
    # lower sizes are impossible: every line must be met, so count a cheap
    # necessary condition first (cover), then the full predicate
    for size in (5, 6):
        found = False
        for combo in itertools.combinations(range(g.n_points), size):
            m = mask_of(combo)
            if all(m & lm for lm in hits) and is_blocking_set(g, m):
                found = True
                break
        assert not found, f"unexpected blocking set of size {size}"


@pytest.mark.slow
def test_q5_max_blocking():
    g = build_geometry(2, 5)
    r5 = max_blocking_set_size(g)
    assert r5.exact and r5.size == 22   # floor(25 - sqrt(5)) = 22
    assert is_blocking_set(g, r5.witness)


@given(st.integers(0, (1 << 13) - 1))
@settings(max_examples=200, deadline=None)
def test_complement_duality_q3(mask):
    g = build_geometry(2, 3)
    comp = g.all_points_mask & ~mask
    assert is_blocking_set(g, mask) == is_blocking_set(g, comp)


# --- arcs ----------------------------------------------------------------------

def test_conic_style_complete_arc_q3():
    g = build_geometry(2, 3)
    k = points(g, ["(-1,1,1)", "(1,1,1)", "(1,-1,1)", "(-1,-1,1)"])
    assert is_arc(g, k)
    assert is_complete_arc(g, k)


def test_two_point_sets_are_incomplete_arcs():
    for q in (3, 5, 7):
        g = build_geometry(2, q)
        two = mask_of([0, 1])
        assert is_arc(g, two)
        assert not is_complete_arc(g, two)


def test_k1_is_complete_six_arc():
    g = build_geometry(2, 7)
    k1 = points(g, ["(-1,1,1)", "(1,1,1)", "(1,-1,1)", "(-1,-1,1)", "(0,2,1)", "(0,3,1)"])
    assert is_complete_arc(g, k1)
    assert secant_profile(g, k1).secant_profile[0] == 24


@pytest.mark.parametrize("q", [3, 5, 7])
def test_secant_profile_completeness_matches_is_complete_arc(q):
    """secant_profile reads completeness off the bisecant cover; is_complete_arc
    checks the arc condition first.  Dropping one point of a complete arc
    leaves an incomplete arc, and 0, 1 or 2 points are never complete."""
    g = build_geometry(2, q)
    masks = [0, 1, mask_of([0, 1])]
    for a in enumerate_complete_arcs(g):
        masks.append(a.mask)
        masks += [a.mask & ~(1 << p) for p in bits(a.mask)]
    for mask in masks:
        assert secant_profile(g, mask).is_complete == is_complete_arc(g, mask)
    assert any(secant_profile(g, m).is_complete for m in masks)


def test_secant_profile_rejects_non_arcs():
    g = build_geometry(2, 3)
    line0 = g.line_point_incidence[0]
    with pytest.raises(StructureError):
        secant_profile(g, line0)


def test_profile_counts_q3():
    g = build_geometry(2, 3)
    arcs = enumerate_complete_arcs(g)
    rec = arcs[0]
    assert rec.secant_profile == {0: 3, 1: 4, 2: 6}


@pytest.mark.parametrize("q,sizes", [(3, {4}), (4, {6}), (5, {6}), (7, {6, 8}), (8, {6, 10})])
def test_complete_arc_sizes(q, sizes):
    g = build_geometry(2, q)
    arcs = enumerate_complete_arcs(g)
    assert {a.size for a in arcs} == sizes
    frame = set(frame_point_ids(g))
    for a in arcs:
        assert frame <= set(bits(a.mask))
        assert a.is_complete
        cap = q + 1 if q % 2 else q + 2
        assert a.size <= cap


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_standard_secant_identities(q):
    g = build_geometry(2, q)
    for a in enumerate_complete_arcs(g):
        k = a.size
        assert a.secant_profile[2] == k * (k - 1) // 2
        assert a.secant_profile[1] == k * (q + 2 - k)
        assert sum(a.secant_profile.values()) == g.n_lines


@pytest.mark.parametrize("q,big,passants,cap", [
    (3, 4, 3, 2), (4, 6, 6, 2), (5, 6, 10, 3), (7, 8, 21, 4), (8, 10, 28, 4)])
def test_passant_counts_and_concurrency(q, big, passants, cap):
    g = build_geometry(2, q)
    for a in enumerate_complete_arcs(g):
        if a.size != big:
            continue
        assert a.secant_profile[0] == passants
        assert max_concurrency(g, a.passants) <= cap


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 11])
def test_enumeration_records_match_secant_profile(q):
    """Each record is built from the search's line masks; secant_profile
    recounts it from the point set, completeness check included."""
    g = build_geometry(2, q)
    arcs = enumerate_complete_arcs(g, force=True)
    for a in arcs:
        ref = secant_profile(g, a.mask)
        assert a == ref
        assert list(a.secant_profile) == list(ref.secant_profile)
    if q == 11:
        assert Counter(a.size for a in arcs) == {7: 40, 8: 5103, 9: 3024, 10: 84, 12: 9}


def test_arc_records_are_compact_and_share_profiles():
    """At q=11 (8,260 arcs) a record holds at most 200 bytes: its masks and
    slots, while every record of one size points at one read-only profile."""
    g = build_geometry(2, 11)
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        arcs = enumerate_complete_arcs(g, force=True)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(arcs) == 8260
    assert held / len(arcs) <= 200
    by_size = {}
    for a in arcs:
        assert by_size.setdefault(a.size, a.secant_profile) is a.secant_profile
    assert secant_profile(g, arcs[0].mask).secant_profile is arcs[0].secant_profile
    for profile in by_size.values():
        with pytest.raises(TypeError):
            profile[0] = 0
        with pytest.raises(TypeError):
            profile[3] = 0


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_shared_profile_matches_a_line_count(q):
    g = build_geometry(2, q)
    for a in enumerate_complete_arcs(g):
        counts = [0, 0, 0]
        for lm in g.line_point_incidence:
            counts[(a.mask & lm).bit_count()] += 1
        assert list(a.secant_profile.items()) == list(enumerate(counts))
        assert a.secant_profile[0] == a.passants.bit_count()


def test_enumeration_budget_guard():
    g = build_geometry(2, 9)
    with pytest.raises(StructureError):
        enumerate_complete_arcs(g)


# --- classification -------------------------------------------------------------

def test_classification_counts():
    g5 = build_geometry(2, 5)
    cls5 = classify_up_to_collineation(g5, [a.mask for a in enumerate_complete_arcs(g5)])
    assert len(cls5) == 1

    g7 = build_geometry(2, 7)
    six7 = [a.mask for a in enumerate_complete_arcs(g7) if a.size == 6]
    cls7 = classify_up_to_collineation(g7, six7)
    assert len(cls7) == 2

    g8 = build_geometry(2, 8)
    six8 = [a.mask for a in enumerate_complete_arcs(g8) if a.size == 6]
    assert len(classify_up_to_collineation(g8, six8)) == 1


def test_named_arcs_represent_the_two_classes():
    g = build_geometry(2, 7)
    k1 = points(g, ["(-1,1,1)", "(1,1,1)", "(1,-1,1)", "(-1,-1,1)", "(0,2,1)", "(0,3,1)"])
    k2 = points(g, ["(-1,1,1)", "(1,1,1)", "(1,-1,1)", "(-1,-1,1)", "(0,2,1)", "(0,-3,1)"])
    assert not arcs_equivalent(g, k1, k2)
    six = [a.mask for a in enumerate_complete_arcs(g) if a.size == 6]
    cls = classify_up_to_collineation(g, six)
    hits1 = [i for i, c in enumerate(cls) if arcs_equivalent(g, c[0], k1)]
    hits2 = [i for i, c in enumerate(cls) if arcs_equivalent(g, c[0], k2)]
    assert len(hits1) == 1 and len(hits2) == 1 and hits1 != hits2


# The collineation helpers written with FieldTable methods, kept as the
# oracle for the table-driven ones in the library.

def _ref_matvec(f, mat, vec):
    return tuple(f.dot(row, vec) for row in mat)


def _ref_mat_inverse(f, mat):
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


def _ref_projectivity_from_frame(g, pts):
    f = g.field
    p1, p2, p3, p4 = (g.points[i] for i in pts)
    base = (p1, p2, p3)
    inv = _ref_mat_inverse(f, tuple(zip(*base)))  # columns p1,p2,p3
    lam = _ref_matvec(f, inv, p4)
    if 0 in lam:
        raise StructureError("points not in general position")
    return tuple(tuple(f.mul(lam[j], base[j][i]) for j in range(3)) for i in range(3))


def _ref_point_id(g, vec):
    f = g.field
    lead = next(c for c in vec if c != 0)
    return g.point_index[tuple(f.mul(f.inv(lead), c) for c in vec)]


def _ref_apply_projectivity(g, mat, mask):
    out = 0
    for p in bits(mask):
        out |= 1 << _ref_point_id(g, _ref_matvec(g.field, mat, g.points[p]))
    return out


def _ref_collineation_to_frame(g, pts):
    return _ref_mat_inverse(g.field, _ref_projectivity_from_frame(g, pts))


def _arcs_equivalent_reference(g, mask_a, mask_b):
    """arcs_equivalent with the field automorphisms in the outer loop: every
    ordered quad of mask_b is tried against one automorphism image of
    mask_a before the next image is built.  It uses only the reference
    collineation helpers above."""
    if mask_a.bit_count() != mask_b.bit_count():
        return False
    f = g.field
    for aut in range(f.k):
        m_aut = apply_field_automorphism(g, aut, mask_a)
        back = _ref_collineation_to_frame(g, tuple(bits(m_aut))[:4])
        rest = [g.points[p] for p in bits(_ref_apply_projectivity(g, back, m_aut))]
        for quad in itertools.permutations(tuple(bits(mask_b)), 4):
            try:
                fwd = _ref_projectivity_from_frame(g, quad)
            except StructureError:
                continue
            if all(mask_b >> _ref_point_id(g, _ref_matvec(f, fwd, v)) & 1 for v in rest):
                return True
    return False


def _classify_reference(g, masks):
    classes = []
    for m in masks:
        for cls in classes:
            if _arcs_equivalent_reference(g, cls[0], m):
                cls.append(m)
                break
        else:
            classes.append([m])
    return classes


@pytest.mark.parametrize("q", [5, 7, 8, pytest.param(9, marks=pytest.mark.slow)])
def test_classification_matches_automorphism_outer_reference(q):
    g = build_geometry(2, q)
    masks = [a.mask for a in enumerate_complete_arcs(g, force=True)]
    assert classify_up_to_collineation(g, masks) == _classify_reference(g, masks)


def _random_collineation_image(g, rng, mask):
    """mask under a seeded projectivity, then a seeded field automorphism."""
    while True:
        quad = tuple(rng.sample(range(g.n_points), 4))
        try:
            mat = projectivity_from_frame(g, quad)
        except StructureError:
            continue
        return apply_field_automorphism(g, rng.randrange(g.field.k),
                                        apply_projectivity(g, mat, mask))


@pytest.mark.parametrize("q", [7, 8])
def test_equivalence_matches_reference_on_seeded_pairs(q):
    rng = random.Random(q)
    g = build_geometry(2, q)
    arcs = [a.mask for a in enumerate_complete_arcs(g)]
    pairs = [tuple(rng.sample(arcs, 2)) for _ in range(12)]
    pairs += [(a, _random_collineation_image(g, rng, b))
              for a, b in (rng.sample(arcs, 2) for _ in range(12))]
    if q == 7:
        # the two six-arc classes, in both orders
        k1 = points(g, ["(-1,1,1)", "(1,1,1)", "(1,-1,1)", "(-1,-1,1)", "(0,2,1)", "(0,3,1)"])
        k2 = points(g, ["(-1,1,1)", "(1,1,1)", "(1,-1,1)", "(-1,-1,1)", "(0,2,1)", "(0,-3,1)"])
        pairs += [(k1, k2), (k2, k1), (k1, _random_collineation_image(g, rng, k2))]
    got = [arcs_equivalent(g, a, b) for a, b in pairs]
    assert got == [_arcs_equivalent_reference(g, a, b) for a, b in pairs]
    assert True in got and False in got


@pytest.mark.parametrize("q", [4, 7, 8, 9])
def test_table_driven_collineations_match_field_method_copies(q):
    rng = random.Random(1000 + q)
    g = build_geometry(2, q)
    f = g.field
    mats = [tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
            for _ in range(200)]
    mats.append(((1, 2 % q, 3 % q), (1, 2 % q, 3 % q), (0, 1, 1)))  # repeated row
    singular = 0
    for mat in mats:
        try:
            want = _ref_mat_inverse(f, mat)
        except StructureError:
            singular += 1
            with pytest.raises(StructureError):
                _mat_inverse(f, mat)
            continue
        assert _mat_inverse(f, mat) == want
        vec = tuple(rng.randrange(q) for _ in range(3))
        assert _matvec(f, mat, vec) == _ref_matvec(f, mat, vec)

    line = tuple(bits(g.line_point_incidence[0]))
    quads = [tuple(rng.sample(range(g.n_points), 4)) for _ in range(200)]
    quads.append(line[:3] + (next(p for p in range(g.n_points) if p not in line),))
    degenerate = 0
    for quad in quads:
        try:
            want = _ref_projectivity_from_frame(g, quad)
        except StructureError:
            degenerate += 1
            with pytest.raises(StructureError):
                projectivity_from_frame(g, quad)
            with pytest.raises(StructureError):
                collineation_to_frame(g, quad)
            continue
        got = projectivity_from_frame(g, quad)
        assert got == want
        assert collineation_to_frame(g, quad) == _ref_collineation_to_frame(g, quad)
        mask = rng.getrandbits(g.n_points)
        assert apply_projectivity(g, got, mask) == _ref_apply_projectivity(g, want, mask)
    assert 0 < singular < len(mats) and 0 < degenerate < len(quads)


def test_classification_rejects_small_arcs():
    g = build_geometry(2, 3)
    with pytest.raises(StructureError):
        arcs_equivalent(g, mask_of([0, 1, 2]), mask_of([0, 1, 3]))


def test_any_arc_maps_onto_frame():
    g = build_geometry(2, 7)
    arcs = enumerate_complete_arcs(g)
    frame = set(frame_point_ids(g))
    for a in arcs[:6]:
        quad = tuple(bits(a.mask))[1:5]    # any four arc points are in general position
        mat = collineation_to_frame(g, quad)
        image = apply_projectivity(g, mat, a.mask)
        assert frame <= set(bits(image))
        assert is_complete_arc(g, image)


def test_field_automorphism_preserves_arcs():
    g = build_geometry(2, 8)
    arcs = enumerate_complete_arcs(g)
    a = arcs[0]
    img = apply_field_automorphism(g, 1, a.mask)
    assert is_complete_arc(g, img)
    assert img.bit_count() == a.size


def test_max_concurrency_counts_pencils():
    g = build_geometry(2, 3)
    incident = mask_of(l for l, lm in enumerate(g.line_point_incidence) if lm & 1)
    assert max_concurrency(g, incident) == incident.bit_count()
    assert max_concurrency(g, 0) == 0
