"""Exact minimum covers: solver vs brute force, M(q), and the pencil analysis."""

import itertools
import random
import time
import types

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pgturan.covering import (
    CoveringError,
    HittingSetResult,
    compute_Mq,
    m_of_arc,
    min_hitting_set,
    passant_analysis,
    render_claims,
    verify_appendix,
)
from pgturan import refdata
from pgturan.construction import contains_subgeometry
from pgturan.geometry import build_geometry, format_coords, point_of
from pgturan.structures import (
    apply_projectivity,
    bits,
    enumerate_complete_arcs,
    mask_of,
    max_blocking_set_size,
    projectivity_from_frame,
    StructureError,
    secant_profile,
)

from oracles import complete_hypergraph, exhaustive_cover_exists


def brute_minimum(universe, family):
    pts = [p for p in bits(universe)]
    for size in range(len(pts) + 1):
        for combo in itertools.combinations(pts, size):
            m = mask_of(combo)
            if all(m & lm for lm in family):
                return size
    return None


def reference_witness(family, size):
    """The cover min_hitting_set must return when `size` is the minimum.

    The greedy incumbent when it is that small (the search only replaces it by
    strictly smaller covers), else the first cover of that size in the
    unpruned depth-first order: the uncovered line with fewest points (lowest
    index on ties), its points ascending.
    """
    points = sorted(set().union(*(bits(lm) for lm in family)))
    greedy = 0
    while not all(greedy & lm for lm in family):
        gain = [sum(1 for lm in family if lm >> p & 1 and not lm & greedy) for p in points]
        greedy |= 1 << points[gain.index(max(gain))]
    if greedy.bit_count() == size:
        return greedy

    def first(chosen, depth):
        rem = [i for i, lm in enumerate(family) if not lm & chosen]
        if not rem:
            return chosen
        if depth == size:
            return None
        line = family[min(rem, key=lambda i: (family[i].bit_count(), i))]
        for p in bits(line):
            got = first(chosen | 1 << p, depth + 1)
            if got is not None:
                return got
        return None

    return first(0, 0)


def line_family(g, universe, lines):
    """The point sets the general oracles take: each line of the mask, cut
    to the universe, in ascending line id."""
    return [g.line_point_incidence[lid] & universe for lid in bits(lines)]


def plane_instance(rng, q, point_share, line_share):
    """A seeded random universe of PG(2,q) and a random share of the lines
    that meet it."""
    g = build_geometry(2, q)
    universe = mask_of(p for p in range(g.n_points) if rng.random() < point_share)
    lines = mask_of(lid for lid, lm in enumerate(g.line_point_incidence)
                    if lm & universe and rng.random() < line_share)
    return g, universe, lines


def test_empty_family_is_free():
    g = build_geometry(2, 2)
    res = min_hitting_set(g, g.all_points_mask, 0)
    assert (res.minimum_size, res.witness, res.optimal) == (0, 0, True)


def test_disjoint_line_rejected():
    # the universe is the complement of line 3
    g = build_geometry(2, 2)
    universe = g.all_points_mask & ~g.line_point_incidence[3]
    with pytest.raises(CoveringError, match="^line 3 does not meet the universe$"):
        min_hitting_set(g, universe, 0b1001)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_solver_matches_brute_force(data):
    g = build_geometry(2, data.draw(st.sampled_from([2, 3])))
    universe = mask_of(data.draw(st.sets(st.integers(0, g.n_points - 1), min_size=1)))
    meeting = [lid for lid, lm in enumerate(g.line_point_incidence) if lm & universe]
    lines = mask_of(data.draw(st.sets(st.sampled_from(meeting), min_size=1)))
    family = line_family(g, universe, lines)
    res = min_hitting_set(g, universe, lines)
    assert res.optimal
    assert res.minimum_size == brute_minimum(universe, family)
    assert res.witness.bit_count() == res.minimum_size
    assert all(res.witness & lm for lm in family)
    assert not exhaustive_cover_exists(universe, family, res.minimum_size - 1)
    # pruning never changes which optimal cover is returned
    assert res.witness == reference_witness(family, res.minimum_size)


@pytest.mark.parametrize("q,expect", [(3, 2), (4, 3), (5, 4), (7, 6), (8, 7)])
def test_m_of_arc_values(q, expect):
    g = build_geometry(2, q)
    rep = compute_Mq(g)
    assert rep.M_q == expect
    assert all(c.cover.optimal for c in rep.per_class)
    # removing arc and witness leaves no full line
    left = g.all_points_mask & ~rep.witness_arc.mask & ~rep.witness_cover.witness
    assert not any(lm & left == lm for lm in g.line_point_incidence)
    # independent exhaustion: no cover of size M(q) - 1 for the witness class
    fam = [g.line_point_incidence[l] for l in bits(rep.witness_arc.passants)]
    universe = g.all_points_mask & ~rep.witness_arc.mask
    assert not exhaustive_cover_exists(universe, fam, expect - 1)


# The covers `pgturan mq` prints: per class, the representative's points, m(K)
# and the witness cover, as the branch and bound returns them.
PRINTED_COVERS = {
    7: [((0, 8, 18, 23, 49, 56), 6, (1, 2, 3, 4, 5, 6)),
        ((0, 8, 17, 25, 49, 56), 6, (1, 2, 3, 4, 5, 6)),
        ((0, 8, 20, 26, 31, 39, 49, 56), 6, (1, 2, 3, 4, 5, 6))],
    8: [((0, 9, 19, 26, 64, 72), 7, (1, 8, 18, 27, 65, 69, 71)),
        ((0, 9, 20, 29, 39, 46, 51, 58, 64, 72), 7, (1, 2, 3, 4, 5, 6, 7))],
}


@pytest.mark.parametrize("q", [7, 8])
def test_mq_witness_covers_pinned(q):
    rep = compute_Mq(build_geometry(2, q))
    got = [(tuple(bits(c.representative.mask)), c.cover.minimum_size,
            tuple(bits(c.cover.witness)))
           for c in rep.per_class]
    assert got == PRINTED_COVERS[q]


def test_mq_q9_from_forced_arcs():
    # past the enumeration limit, M(q) runs on arcs the caller enumerated
    g9 = build_geometry(2, 9)
    rep = compute_Mq(g9, arcs=enumerate_complete_arcs(g9, force=True))
    assert rep.M_q == rep.max_over_classes == 8
    assert [(c.representative.size, c.class_size) for c in rep.per_class] == \
        [(6, 6), (8, 210), (7, 40), (10, 7)]
    assert sum(c.class_size for c in rep.per_class) == 263
    assert all(c.cover.optimal and c.cover.minimum_size == 8 for c in rep.per_class)


def min_hitting_set_reference(universe, family, budget=None, dead_lines=False):
    """The hitting-set kernel that recounts every unbanned point's uncovered
    lines at each node, kept as the oracle for the incremental counts: same
    branching, bound and deadline, so it must agree on size, witness and
    node count.

    `dead_lines=True` adds a rule the kernel omits: a node dies as soon as
    some uncovered line has no unbanned point left."""
    fam = [lm & universe for lm in family]
    if not fam:
        return HittingSetResult(0, 0, True, 1)
    deadline = time.monotonic() + budget if budget is not None else None
    n_fam = len(fam)
    fam_size = [lm.bit_count() for lm in fam]

    # point -> bitmask over family indices it covers
    cover_of: dict[int, int] = {}
    for i, lm in enumerate(fam):
        for p in bits(lm):
            cover_of[p] = cover_of.get(p, 0) | (1 << i)
    candidate_points = sorted(cover_of)
    point_covers = [(1 << p, cover_of[p]) for p in candidate_points]

    all_lines = (1 << n_fam) - 1
    nodes = 0
    timed_out = False

    # greedy incumbent: most new lines covered, lowest point index on ties
    covered = 0
    greedy: list[int] = []
    while covered != all_lines:
        best_p, best_c = None, -1
        for p in candidate_points:
            c = (cover_of[p] & ~covered).bit_count()
            if c > best_c:
                best_p, best_c = p, c
        greedy.append(best_p)
        covered |= cover_of[best_p]
    best_size = len(greedy)
    best_set = mask_of(greedy)

    def search(chosen: int, covered: int, banned: int, depth: int):
        nonlocal best_size, best_set, nodes, timed_out
        nodes += 1
        if timed_out or (deadline is not None and nodes % 4096 == 0
                         and time.monotonic() > deadline):
            timed_out = True
            return
        if covered == all_lines:
            if depth < best_size:
                best_size, best_set = depth, chosen
            return
        # branch on the uncovered line with fewest candidate points; with
        # dead_lines, a line whose points are all banned ends the node
        rem = all_lines & ~covered
        pick, pick_sz = None, None
        for i in bits(rem):
            if dead_lines and not fam[i] & ~banned:
                return
            if pick_sz is None or fam_size[i] < pick_sz:
                pick, pick_sz = i, fam_size[i]
        # top-k bound: the best_size - depth - 1 unbanned points that meet the
        # most uncovered lines must together meet them all
        counts = sorted([(c & rem).bit_count() for pb, c in point_covers
                         if not banned & pb], reverse=True)
        if sum(counts[:max(best_size - depth - 1, 0)]) < rem.bit_count():
            return
        for p in bits(fam[pick] & ~banned):
            search(chosen | (1 << p), covered | cover_of[p], banned, depth + 1)
            if timed_out:
                return
            banned |= 1 << p  # later branches must meet the line elsewhere

    search(0, 0, 0, 0)
    return HittingSetResult(best_size, best_set, not timed_out, nodes)


@pytest.fixture(scope="module")
def q9_frame_arcs():
    g = build_geometry(2, 9)
    return g, enumerate_complete_arcs(g, force=True)


def test_frame_anchored_q9_arcs_need_eight_points(q9_frame_arcs):
    g, arcs = q9_frame_arcs
    results = [m_of_arc(g, a) for a in arcs]
    assert len(results) == 263
    assert all(r.optimal and r.minimum_size == 8 for r in results)
    # sibling exclusion and the top-k bound keep the tree small
    assert sum(r.explored_nodes for r in results) == 18_325


def assert_matches_reference(g, universe, lines):
    """The kernel equals the reference; returns the kernel's result and the
    reference's with the dead-line rule."""
    got = min_hitting_set(g, universe, lines)
    family = line_family(g, universe, lines)
    want = min_hitting_set_reference(universe, family)
    assert (got.minimum_size, got.witness, got.explored_nodes) == \
        (want.minimum_size, want.witness, want.explored_nodes)
    return got, min_hitting_set_reference(universe, family, dead_lines=True)


def assert_dead_lines_cut_nothing(g, arc):
    # every line of a plane-arc family is a passant: q+1 points off the arc,
    # so no line can lose its last candidate before depth q+1
    got, dead = assert_matches_reference(g, g.all_points_mask & ~arc.mask, arc.passants)
    assert (dead.minimum_size, dead.witness, dead.explored_nodes) == \
        (got.minimum_size, got.witness, got.explored_nodes)


def test_hitting_set_matches_reference_on_q9_arcs(q9_frame_arcs):
    g, arcs = q9_frame_arcs
    for arc in arcs:
        assert_dead_lines_cut_nothing(g, arc)


@pytest.mark.parametrize("q,step", [(7, 1), (8, 1),
                                    pytest.param(11, 40, marks=pytest.mark.slow)])
def test_hitting_set_matches_reference_on_plane_arcs(q, step):
    # every complete arc at q=7 and 8, every 40th frame-anchored one at q=11
    g = build_geometry(2, q)
    arcs = enumerate_complete_arcs(g, force=True)[::step]
    assert arcs
    for arc in arcs:
        assert_dead_lines_cut_nothing(g, arc)


def test_greedy_tie_takes_the_lower_point():
    # the sides of the Fano triangle 1, 4, 6: each vertex meets two sides and
    # every other point one, so the greedy takes vertex 1, then the lowest
    # point of the opposite side, 4; two points are optimal
    g = build_geometry(2, 2)
    pair = g.pair_line
    sides = mask_of((pair[1][4], pair[4][6], pair[6][1]))
    res = min_hitting_set(g, g.all_points_mask, sides)
    assert (res.minimum_size, tuple(bits(res.witness)), res.optimal) == (2, (1, 4), True)
    assert res.witness == reference_witness(line_family(g, g.all_points_mask, sides), 2)


def star(n_lines):
    """A stand-in for a geometry: `n_lines` two-point lines through point 0.
    No plane has a point on more than 255 lines."""
    return types.SimpleNamespace(
        line_point_incidence=tuple(1 | 1 << i for i in range(1, n_lines + 1)),
        point_line_incidence=((1 << n_lines) - 1, *(1 << i for i in range(n_lines))),
        all_points_mask=(1 << n_lines + 1) - 1)


def test_point_on_more_than_255_members_rejected():
    # point 0 lies on every line; its uncovered-line count must fit a byte
    big = star(256)
    with pytest.raises(CoveringError, match="255"):
        min_hitting_set(big, big.all_points_mask, (1 << 256) - 1)
    fits = star(255)
    res = min_hitting_set(fits, fits.all_points_mask, (1 << 255) - 1)
    assert (res.minimum_size, res.witness, res.optimal) == (1, 1, True)


def test_hitting_set_matches_reference_on_short_lines():
    # plane lines cut to a sparse universe are short and share points, so
    # the bound bites often and a stale count changes node counts here; they
    # are also the only families where the dead-line rule cuts nodes, and it
    # changes no size or witness
    rng = random.Random(1)
    nodes = dead_nodes = 0
    for _ in range(1000):
        g, universe, lines = plane_instance(rng, rng.choice([4, 5, 7]),
                                            rng.uniform(0.15, 0.4), rng.uniform(0.5, 1))
        got, dead = assert_matches_reference(g, universe, lines)
        assert (dead.minimum_size, dead.witness) == (got.minimum_size, got.witness)
        nodes += got.explored_nodes
        dead_nodes += dead.explored_nodes
    assert (nodes, dead_nodes) == (11_828, 11_793)


def test_mq_report_bounds():
    for q in (3, 4, 5, 7, 8):
        rep = compute_Mq(build_geometry(2, q))
        assert rep.M_q <= q - 1
        assert rep.max_over_classes >= rep.M_q


def test_result_records_are_frozen():
    g = build_geometry(2, 3)
    rep = compute_Mq(g)
    records = {
        "ArcRecord": (rep.witness_arc, "mask"),
        "HittingSetResult": (rep.witness_cover, "minimum_size"),
        "ClassCover": (rep.per_class[0], "class_size"),
        "MqReport": (rep, "M_q"),
        "PassantAnalysis": (passant_analysis(g, rep.witness_arc), "peak_multiplicity"),
        "BlockingSearchResult": (max_blocking_set_size(build_geometry(2, 2)), "size"),
        "SubgeometryResult": (contains_subgeometry(complete_hypergraph(7, 3),
                                                   build_geometry(2, 2)), "status"),
    }
    for name, (record, field) in records.items():
        assert type(record).__name__ == name
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert getattr(record, field) == before
        assert not hasattr(record, "__dict__")   # slotted


def test_m_of_arc_requires_complete():
    g = build_geometry(2, 5)
    two = secant_profile(g, mask_of([0, 1]))
    with pytest.raises(CoveringError):
        m_of_arc(g, two)


def test_m_invariant_under_collineation():
    g = build_geometry(2, 7)
    arcs = enumerate_complete_arcs(g)
    rec = next(a for a in arcs if a.size == 6)
    base = m_of_arc(g, rec).minimum_size
    # four points of the 8-arc are in general position, so they define a map
    big = next(a for a in arcs if a.size == 8)
    mat = projectivity_from_frame(g, tuple(bits(big.mask))[2:6])
    moved = secant_profile(g, apply_projectivity(g, mat, rec.mask))
    assert moved.is_complete
    assert m_of_arc(g, moved).minimum_size == base


def k1_record(g):
    k1 = mask_of(point_of(g, s) for s in
                 ("(-1,1,1)", "(1,1,1)", "(1,-1,1)", "(-1,-1,1)", "(0,2,1)", "(0,3,1)"))
    return secant_profile(g, k1)


def test_passant_analysis_k1():
    g = build_geometry(2, 7)
    ana = passant_analysis(g, k1_record(g))
    assert ana.arc.secant_profile[0] == 24
    assert ana.peak_multiplicity == 5
    expected = {point_of(g, s) for s in
                ("(0,1,0)", "(1,2,6)", "(1,6,5)", "(1,5,1)", "(0,0,1)", "(1,1,2)")}
    assert set(ana.peak_points) == expected
    # every passant has q+1 points, all off the arc
    assert sum(ana.per_point.values()) == 24 * 8
    for lid in bits(ana.arc.passants):
        assert g.line_point_incidence[lid] & ana.arc.mask == 0


def test_pencil_of_named_point_k2():
    g = build_geometry(2, 7)
    k2 = mask_of(point_of(g, s) for s in
                 ("(-1,1,1)", "(1,1,1)", "(1,-1,1)", "(-1,-1,1)", "(0,2,1)", "(0,-3,1)"))
    ana = passant_analysis(g, secant_profile(g, k2))
    p5 = point_of(g, "(0,0,1)")
    got = {format_coords(g, "line", l) for l in bits(ana.pencils[p5])}
    assert got == {"[1,3,0]", "[1,2,0]", "[0,1,0]", "[1,5,0]", "[1,4,0]"}


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_peak_multiplicity_is_the_most_passants_through_any_point(q):
    # the concurrency claims read the peak over the points off the arc; arc
    # points lie on no passant, so it is the peak over every point
    g = build_geometry(2, q)
    for arc in enumerate_complete_arcs(g):
        through = [(inc & arc.passants).bit_count() for inc in g.point_line_incidence]
        assert passant_analysis(g, arc).peak_multiplicity == max(through)
        assert not any(through[p] for p in bits(arc.mask))


def test_lemma_floor_by_independent_exhaustion():
    # no 5 points cover the 24 passants (q=7), no 6 cover the 34 (q=8)
    g7 = build_geometry(2, 7)
    rec = k1_record(g7)
    fam = [g7.line_point_incidence[l] for l in bits(rec.passants)]
    assert not exhaustive_cover_exists(g7.all_points_mask & ~rec.mask, fam, 5)

    g8 = build_geometry(2, 8)
    k = mask_of(point_of(g8, s) for s in
                ("(1,0,0)", "(0,1,0)", "(0,0,1)", "(1,1,1)", "(ω^3,ω^2,1)", "(ω^2,ω^3,1)"))
    rec8 = secant_profile(g8, k)
    fam8 = [g8.line_point_incidence[l] for l in bits(rec8.passants)]
    assert not exhaustive_cover_exists(g8.all_points_mask & ~rec8.mask, fam8, 6)


@pytest.mark.parametrize("which,q", [("A", 7), ("B", 8)])
def test_appendix_reproduces(which, q):
    # the catalog entry alone names the plane the claims run on
    assert refdata.APPENDICES[which]["q"] == q
    claims = verify_appendix(which)
    failing = [c for c in claims if c.status != "pass"]
    assert not failing, [f"{c.claim_id}: {c.expected} vs {c.computed}" for c in failing]


def test_appendix_claim_inventory():
    claims_a = verify_appendix("A")
    ids = {c.claim_id for c in claims_a}
    # both arcs, all six pencils each, both union caps, and the cover floor
    assert "appendixA.K1.pencil.P1" in ids and "appendixA.K2.pencil.P6" in ids
    assert "appendixA.K1.union.I4" in ids and "appendixA.K2.union.I5" in ids
    assert "appendixA.K1.mincover" in ids
    assert sum(c.claim_id.endswith("mincover") for c in claims_a) == 2

    claims_b = verify_appendix("B")
    ids_b = {c.claim_id for c in claims_b}
    assert {"appendixB.K.union.I4", "appendixB.K.union.I5", "appendixB.K.union.I6",
            "appendixB.K.mincover"} <= ids_b
    assert sum("tripleint" in c.claim_id for c in claims_b) == 4


def test_appendix_wrong_plane_rejected():
    # the letter picks the plane, so only a letter naming no appendix is wrong
    with pytest.raises(CoveringError, match="appendix must be A or B"):
        verify_appendix("C")
    assert render_claims(verify_appendix("a")) == render_claims(verify_appendix("A"))


def test_mq_budget_guard():
    # without given arcs, M(q) stops at the arc enumeration's own limit
    with pytest.raises(StructureError,
                       match=r"^q=9 is beyond the arc enumeration limit q <= 8$"):
        compute_Mq(build_geometry(2, 9))


def hard_plane_instance():
    """About 70% of PG(2,9) and 80% of the lines meeting it: 7,248 nodes."""
    return plane_instance(random.Random(2), 9, 0.7, 0.8)


def test_hitting_set_zero_budget_stops_at_root():
    g, universe, lines = hard_plane_instance()
    res = min_hitting_set(g, universe, lines, budget=0)
    assert (res.optimal, res.explored_nodes) == (False, 1)
    res = min_hitting_set(g, universe, lines)
    assert (res.optimal, res.explored_nodes) == (True, 7_248)


def test_hitting_set_times_out_at_its_first_periodic_read(stalled_clock):
    # the clock passes the deadline after the root read, so the search stops
    # at the read of node 4096
    g, universe, lines = hard_plane_instance()
    stalled_clock("pgturan.covering")
    res = min_hitting_set(g, universe, lines, budget=1)
    assert (res.optimal, res.explored_nodes) == (False, 4096)
    # the incumbent is still a cover of its stated size
    assert res.witness.bit_count() == res.minimum_size
    assert not res.witness & ~universe
    assert all(res.witness & lm for lm in line_family(g, universe, lines))


def test_zero_budget_bounds_the_whole_call():
    claims = verify_appendix("A", budget=0)
    status = {c.claim_id: c.status for c in claims}
    assert [cid for cid, s in status.items() if s != "pass"] == \
        ["appendixA.K1.mincover", "appendixA.K2.mincover"]
    assert {status[cid] for cid in status if cid.endswith("mincover")} == {"timeout"}
    rep = compute_Mq(build_geometry(2, 8), budget=0)
    assert rep.per_class and not any(c.cover.optimal for c in rep.per_class)


def test_cover_searches_get_the_time_left(monkeypatch):
    given = []

    def recording(g, arc, budget=None):
        given.append(budget)
        return m_of_arc(g, arc, budget)

    monkeypatch.setattr("pgturan.covering.m_of_arc", recording)
    rep = compute_Mq(build_geometry(2, 8), budget=60)
    assert len(given) == len(rep.per_class) == 2
    assert 0 < given[1] <= given[0] < 60
    given.clear()
    verify_appendix("A", budget=60)
    assert len(given) == 2 and 0 < given[1] <= given[0] < 60
