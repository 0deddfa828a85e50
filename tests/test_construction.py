"""Partition hypergraphs: rounding, exact counting vs enumeration, freeness."""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from pgturan.construction import (
    ConstructionError,
    Hypergraph,
    _edge_count,
    _pattern_order,
    build_hypergraph,
    complete_hypergraph,
    contains_subgeometry,
    count_edges_exact,
    displayed_lower_bound,
    make_partition,
    part_pattern,
)
from pgturan.bounds import theorem2_polynomial, theorem3_polynomial
from pgturan.geometry import bits, build_geometry, mask_of


def random_spec(rng, q=None):
    """A random desk-scale plane partition as (scheme, rates, spec); t2 rates
    are (alpha, beta), t3 rates (alpha, beta, gamma)."""
    q = rng.choice([2, 3]) if q is None else q
    n = rng.randint(q + 2, 20 if q == 2 else 16)
    if rng.random() < 0.5:
        s = sum(q ** i for i in range(1, 3))
        k = rng.randint(0, s - 2)
        t = s - k
        alpha = rng.uniform(0, 1.0 / t)
        rates = (alpha, 1.0 - t * alpha)
        return "t2", rates, make_partition(n, q, 2, "t2", rates, k=k)
    M = rng.randint(2, 5)
    alpha = rng.uniform(0.05, 0.9)
    beta = rng.uniform(0, 1 - alpha)
    rates = (alpha, beta, (1 - alpha - beta) / (M - 1))
    return "t3", rates, make_partition(n, q, 2, "t3", rates, M=M)


# --- partitions ---------------------------------------------------------------

def test_partition_sizes_near_targets():
    spec = make_partition(100, 3, 2, "t3",
                          (0.5948588940, 0.3216013121, 0.0835397939), M=2)
    assert sum(spec.sizes) == 100
    targets = (59.48588940, 32.16013121, 8.35397939)
    for size, target in zip(spec.sizes, targets):
        assert abs(size - target) <= 1


def test_partition_t2_alpha_zero_boundary():
    spec = make_partition(14, 2, 2, "t2", (0.0,), k=0)
    assert spec.sizes[0] == 14
    assert all(s == 0 for s in spec.sizes[1:])


def test_partition_t2_table_rates():
    spec = make_partition(1000, 3, 2, "t2", (0.0809,), k=7)
    assert spec.caps == (3, 1, 1, 1, 1, 1)
    assert abs(spec.sizes[0] - 595.5) <= 1
    assert all(abs(y - 80.9) <= 1 for y in spec.sizes[1:])


def test_partition_rejects_bad_rates():
    with pytest.raises(ConstructionError):
        make_partition(10, 3, 2, "t3", (0.5, 0.6, 0.1), M=2)       # sums past 1
    with pytest.raises(ConstructionError):
        make_partition(10, 3, 2, "t3", (-0.1, 1.05, 0.05), M=2)    # negative
    with pytest.raises(ConstructionError):
        make_partition(10, 3, 2, "t2", (0.02, 0.5), k=7)           # beta mismatch
    with pytest.raises(ConstructionError):
        make_partition(10, 3, 2, "t2", (0.05,))                    # k missing
    with pytest.raises(ConstructionError, match="t2 takes 2 rates"):
        make_partition(14, 2, 2, "t2", (1 / 12, 0.5, 0.7, "junk"), k=0)   # extra rates
    with pytest.raises(ConstructionError, match="t2 takes 2 rates"):
        make_partition(14, 2, 2, "t2", (), k=0)                    # no rates
    for rates in ((0.5, 0.5), (0.5, 0.3, 0.1, 0.1)):
        with pytest.raises(ConstructionError, match="t3 takes 3 rates"):
            make_partition(10, 3, 2, "t3", rates, M=2)
    with pytest.raises(ConstructionError, match="unknown scheme"):
        make_partition(10, 3, 2, "t4", (0.5,))
    with pytest.raises(ConstructionError, match="t3 needs M >= 1"):
        make_partition(10, 3, 2, "t3", (0.5, 0.5, 0.3), M=0)       # M below 1


def test_displayed_bound_floors_a_negative_target_at_zero():
    # make_partition allows a rate just below zero; its target must count as
    # an empty part, not floor to -1
    spec = make_partition(10, 3, 2, "t3", (1 + 1e-13, -1e-13, 0.0), M=2)
    assert spec.sizes == (10, 0, 0)
    assert count_edges_exact(spec) == 0
    assert displayed_lower_bound(spec) == 0


def test_edge_count_differences_equal_the_density_polynomial():
    # Part sizes rho * D * k with rational rates rho of common denominator D
    # make the edge count a polynomial of degree r = q+1 in k whose leading
    # coefficient is D^r P(rho) / r!, so its r-th difference is D^r P(rho):
    # the hypergraph and the bound polynomial meet exactly, from any k.
    rng = random.Random(5)
    for case in range(30):
        q, D = rng.choice([2, 3, 4, 5]), rng.randint(5, 40)
        if case % 2:
            t = rng.randint(1, 9)
            poly, (caps, var) = theorem2_polynomial(q, t), part_pattern(q, "t2", t)
            alpha = rng.randint(0, D // t)
            nums = (alpha, D - t * alpha)
        else:
            M = rng.randint(1, q + 2)
            poly, (caps, var) = theorem3_polynomial(q, M), part_pattern(q, "t3", M)
            gamma = rng.randint(0, D // (M - 1)) if M > 1 else 0
            alpha = rng.randint(0, D - (M - 1) * gamma)
            nums = (alpha, D - (M - 1) * gamma - alpha, gamma)
        r, k0 = q + 1, rng.randint(0, 6)
        counts = [_edge_count([nums[v] * k for v in var], caps, r)
                  for k in range(k0, k0 + r + 1)]
        difference = sum((-1) ** (r - i) * math.comb(r, i) * c for i, c in enumerate(counts))
        assert difference == D ** r * poly.evaluate([Fraction(x, D) for x in nums]), (q, nums)


def test_partition_sizes_sum_randomized():
    rng = random.Random(11)
    for _ in range(40):
        scheme, rates, spec = random_spec(rng)
        assert sum(spec.sizes) == spec.n
        n, parts = spec.n, len(spec.sizes) - 1
        if scheme == "t2":
            targets = [rates[1] * n] + [rates[0] * n] * parts
        else:
            targets = [rates[0] * n, rates[1] * n] + [rates[2] * n] * (parts - 1)
        assert list(spec.targets) == targets
        for size, target in zip(spec.sizes, targets):
            assert abs(size - target) <= 1


# --- explicit edges vs exact counting ------------------------------------------

def test_count_matches_enumeration_on_50_random_specs():
    rng = random.Random(20260809)
    for _ in range(55):
        _, _, spec = random_spec(rng)
        h = build_hypergraph(spec)
        assert count_edges_exact(spec) == len(h.edges), spec


def test_displayed_bound_never_exceeds_exact():
    rng = random.Random(5)
    for _ in range(40):
        _, _, spec = random_spec(rng)
        assert displayed_lower_bound(spec) <= count_edges_exact(spec)


def test_every_edge_respects_scheme():
    rng = random.Random(3)
    for _ in range(15):
        _, _, spec = random_spec(rng)
        h = build_hypergraph(spec)
        part_of = spec.part_of_vertex()
        for e in h.edges:
            counts = [0] * len(spec.sizes)
            for v in bits(e):
                counts[part_of[v]] += 1
            assert spec.edge_ok(counts)
            assert e.bit_count() == spec.r


def scheme_edge_rule(scheme, q, counts):
    """The per-scheme form of the edge rule, kept as the reference for caps."""
    if not 1 <= counts[0] <= q:
        return False
    if scheme == "t2":
        return all(c <= 1 for c in counts[1:])
    return counts[1] <= 2 and all(c <= 1 for c in counts[2:])


def scheme_displayed_bound(scheme, n, q, rates, parts):
    """The per-scheme floor-rate formulas the displayed bound was first written
    with, kept as the reference for the count at floored targets.  `parts` is
    t, the number of alpha parts, for t2 and M for t3."""
    r = q + 1
    if scheme == "t2":
        alpha, beta = rates
        fb, fa = math.floor(beta * n), math.floor(alpha * n)
        return sum(math.comb(fb, i) * math.comb(parts, r - i) * fa ** (r - i)
                   for i in range(1, q + 1))
    alpha, beta, gamma = rates
    M = parts
    fa, fb, fg = math.floor(alpha * n), math.floor(beta * n), math.floor(gamma * n)
    total = 0
    for i in range(1, q + 1):
        for j in range(max(0, q + 2 - M - i), min(2, q + 1 - i) + 1):
            k = r - i - j
            total += (math.comb(M - 1, k) * math.comb(fa, i)
                      * math.comb(fb, j) * fg ** k)
    return total


def count_vectors(total, parts):
    """Every vector of `parts` nonnegative counts summing to at most `total`."""
    for bars in itertools.combinations(range(total + parts), parts):
        cuts = (-1, *bars)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


def test_caps_rule_matches_scheme_rule():
    rng = random.Random(41)
    for q in (2, 3, 4):
        for _ in range(8):
            scheme, _, spec = random_spec(rng, q)
            assert len(spec.caps) == len(spec.sizes)
            for counts in count_vectors(spec.r, len(spec.sizes)):
                assert spec.edge_ok(counts) == scheme_edge_rule(scheme, q, counts), \
                    (spec, counts)


def test_displayed_bound_matches_scheme_formulas():
    rng = random.Random(8)
    drawn = set()
    for _ in range(240):
        q = rng.choice([2, 3, 4, 5, 7, 8])
        n = rng.randint(q + 2, 400)
        if rng.random() < 0.5:
            m = rng.choice([2, 3])
            k = rng.randint(0, q + q * q - 1)
            t = sum(q ** i for i in range(1, m + 1)) - k
            alpha = rng.uniform(0, 1.0 / t)
            rates = (alpha, 1.0 - t * alpha)
            scheme, parts = "t2", t
            spec = make_partition(n, q, m, scheme, rates, k=k)
            drawn.add((scheme, m))
        else:
            M = rng.randint(1, q + 2)
            alpha = rng.uniform(0.05, 0.9)
            beta = rng.uniform(0, 1 - alpha) if M > 1 else 1 - alpha
            gamma = (1 - alpha - beta) / (M - 1) if M > 1 else 0.0
            rates = (alpha, beta, gamma)
            scheme, parts = "t3", M
            spec = make_partition(n, q, 2, scheme, rates, M=M)
            drawn.add((scheme, min(M, 2)))
        assert displayed_lower_bound(spec) == \
            scheme_displayed_bound(scheme, n, q, rates, parts), (scheme, rates, spec)
    assert drawn == {("t2", 2), ("t2", 3), ("t3", 1), ("t3", 2)}


def test_count_matches_enumeration_at_q4():
    rng = random.Random(4)
    for _ in range(16):
        _, _, spec = random_spec(rng, 4)
        h = build_hypergraph(spec)
        assert count_edges_exact(spec) == len(h.edges), spec


def test_tiny_n_gives_empty_edge_set():
    spec = make_partition(3, 3, 2, "t3", (0.5, 0.4, 0.1), M=2)
    assert build_hypergraph(spec).edges == []
    assert count_edges_exact(spec) == 0


def test_empty_parts_contribute_nothing():
    # all singleton-capped parts empty: every edge needs one, so none exist
    spec = make_partition(10, 2, 2, "t2", (0.01,), k=0)
    assert set(spec.sizes[1:]) == {0}
    assert count_edges_exact(spec) == len(build_hypergraph(spec).edges) == 0
    # an empty part alongside populated ones changes no count
    spec2 = make_partition(10, 2, 2, "t2", (0.05,), k=0)
    assert 0 in spec2.sizes[1:] and set(spec2.sizes[1:]) != {0}
    assert count_edges_exact(spec2) == len(build_hypergraph(spec2).edges)


def test_equal_size_specialization():
    # with every singleton part of equal size a, choosing j of them is C(t,j)*a^j
    spec = make_partition(23, 3, 2, "t2", (2 / 23,), k=7)
    assert set(spec.sizes[1:]) == {2}
    a = 2
    t = len(spec.sizes) - 1
    expect = sum(math.comb(spec.sizes[0], i) * math.comb(t, 4 - i) * a ** (4 - i)
                 for i in range(1, 4))
    assert count_edges_exact(spec) == expect


def test_budget_guard():
    spec = make_partition(30, 3, 2, "t3", (0.6, 0.3, 0.1), M=2)
    with pytest.raises(ConstructionError):
        build_hypergraph(spec)   # default cap for q=3 is 25


# --- embedding search -----------------------------------------------------------

def test_complete_host_contains_fano():
    fano = build_geometry(2, 2)
    res = contains_subgeometry(complete_hypergraph(7, 3), fano)
    assert res.status == "yes"
    image = set(res.witness.values())
    assert len(image) == 7
    for line in fano.line_point_incidence:
        assert len({res.witness[p] for p in bits(line)}) == 3


def test_uniformity_mismatch_rejected():
    with pytest.raises(ConstructionError):
        contains_subgeometry(complete_hypergraph(7, 3), build_geometry(2, 3))


def test_too_small_host_is_trivially_free():
    res = contains_subgeometry(complete_hypergraph(5, 3), build_geometry(2, 2))
    assert res.status == "no"


def test_blocking_partition_host_is_fano_free():
    spec = make_partition(14, 2, 2, "t2", (1 / 12,), k=0)
    h = build_hypergraph(spec)
    res = contains_subgeometry(h, build_geometry(2, 2), budget=600)
    assert res.status == "no"


def test_arc_partition_host_is_free():
    spec = make_partition(16, 3, 2, "t3",
                          (0.5948588940, 0.3216013121, 0.0835397939), M=2)
    h = build_hypergraph(spec)
    res = contains_subgeometry(h, build_geometry(2, 3), budget=600)
    assert res.status == "no"


def pattern_order_reference(n_points, lines):
    """The point order over Python sets, kept as the reference for the mask
    form of `_pattern_order`.  `lines` are point-id tuples."""
    remaining = set(range(n_points))
    order = []
    placed = set()

    def gain(p):
        closes = sum(1 for ln in lines if p in ln and all(x in placed or x == p for x in ln))
        almost = sum(1 for ln in lines if p in ln
                     and sum(1 for x in ln if x in placed) == len(ln) - 2)
        support = sum(1 for ln in lines if p in ln
                      and any(x in placed for x in ln))
        return (closes, almost, support)

    # seed with every point of the lexicographically first line
    first = min(lines, key=lambda ln: tuple(ln))
    for p in sorted(first):
        order.append(p)
        placed.add(p)
        remaining.discard(p)
    while remaining:
        best = max(sorted(remaining), key=gain)
        order.append(best)
        placed.add(best)
        remaining.discard(best)
    return order


def line_tuples(g):
    return [tuple(bits(ln)) for ln in g.line_point_incidence]


@pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_pattern_order_matches_set_reference(m, q):
    g = build_geometry(m, q)
    want = pattern_order_reference(g.n_points, line_tuples(g))
    assert _pattern_order(g.n_points, g.line_point_incidence) == want
    assert sorted(want) == list(range(g.n_points))


def search_colored_reference(h, pattern_lines, n_pts):
    """The part-count search that recounts every part on every line through
    the new point, kept as the reference for the search that checks only the
    part that changed.  Also returns the parts above X whose cap cut a
    branch.  `pattern_lines` are point-id tuples."""
    sizes, caps = h.spec.sizes, h.spec.caps
    n_parts = len(sizes)
    order = pattern_order_reference(n_pts, pattern_lines)
    lines_through = [[ln for ln in pattern_lines if p in ln] for p in range(n_pts)]
    color = [-1] * n_pts
    used = [0] * n_parts
    nodes = 0
    cut_parts = set()

    def feasible_partial(p_new):
        for ln in lines_through[p_new]:
            counts = [0] * n_parts
            mapped = 0
            for p in ln:
                part = color[p]
                if part >= 0:
                    counts[part] += 1
                    if counts[part] > caps[part]:
                        if part:
                            cut_parts.add(part)
                        return False
                    mapped += 1
            if mapped == len(ln) and counts[0] == 0:
                return False
        return True

    def rec(step):
        nonlocal nodes
        if step == n_pts:
            return True
        nodes += 1
        p = order[step]
        for part in range(n_parts):
            if used[part] >= sizes[part]:
                continue
            color[p] = part
            used[part] += 1
            if feasible_partial(p) and rec(step + 1):
                return True
            used[part] -= 1
            color[p] = -1
        return False

    if not rec(0):
        return ("no", nodes, None), cut_parts
    next_free = [sum(sizes[:i]) for i in range(n_parts)]
    witness = {}
    for p in order:
        witness[p] = next_free[color[p]]
        next_free[color[p]] += 1
    return ("yes", nodes, witness), cut_parts


def inflated_arc_spec(rng):
    """A q=3 arc partition with X near 7 vertices and four or five parts,
    which mostly admits a copy of PG(2,3)."""
    n = rng.randint(13, 15)
    M = rng.randint(4, 5)
    alpha = rng.uniform(6.6, 7.4) / n
    gamma = rng.uniform(1.0, 1.2) / n
    return make_partition(n, 3, 2, "t3", (alpha, 1 - alpha - (M - 1) * gamma, gamma), M=M)


@pytest.mark.slow
def test_part_search_matches_full_recount_on_partition_hosts():
    rng = random.Random(47)
    specs = []
    while len(specs) < 24:
        spec = random_spec(rng)[2]
        if spec.n >= spec.q * spec.q + spec.q + 1:    # smaller hosts skip the search
            specs.append(spec)
    specs += [inflated_arc_spec(rng) for _ in range(8)]
    statuses, cut = [], False
    for spec in specs:
        h = build_hypergraph(spec)
        g = build_geometry(2, spec.q)
        res = contains_subgeometry(h, g)
        want, cut_parts = search_colored_reference(h, line_tuples(g), g.n_points)
        assert (res.status, res.nodes, res.witness) == want, spec
        statuses.append(want[0])
        cut = cut or bool(cut_parts)
    assert statuses.count("yes") >= 4 and statuses.count("no") >= 20
    assert cut      # some cap above X's pruned a branch


def search_generic_reference(h, pattern_lines, n_pts, deadline=None, break_symmetry=True):
    """The generic embedding search over frozenset edges, kept as the oracle
    for the bitmask search: same point order, vertex order, forward check and
    symmetry breaking, so it must agree on status, node count and witness.
    With break_symmetry=False every injection is tried, the check that the
    symmetry breaking loses no embedding.  `pattern_lines` are point-id
    tuples."""
    edge_set = {frozenset(bits(e)) for e in h.edges}
    order = pattern_order_reference(n_pts, pattern_lines)
    k = len(pattern_lines[0])     # points per line; order starts with the first line's

    def floor(step):
        """The vertex this step's image must exceed: steps 1 and 2 follow the
        step before, the rest of the first line and the first point off it
        follow step 0, later points off the first line the first of them."""
        if break_symmetry and step in (1, 2):
            return image[order[step - 1]]
        if break_symmetry and 3 <= step <= k:
            return image[order[0]]
        if break_symmetry and step > k:
            return image[order[k]]
        return -1

    pos = {p: i for i, p in enumerate(order)}
    closing = [[] for _ in range(n_pts)]     # lines fully mapped at this step
    pending = [[] for _ in range(n_pts)]     # lines missing one point after this step
    for ln in pattern_lines:
        steps = sorted(pos[p] for p in ln)
        closing[steps[-1]].append(ln)
        pending[steps[-2]].append(ln)

    image = [-1] * n_pts
    used: set[int] = set()
    nodes = 0
    out_status = "no"
    host_vertices = list(range(h.n))

    def rec(step: int) -> bool:
        nonlocal nodes, out_status
        if step == n_pts:
            return True
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            out_status = "timeout"
            return False
        p = order[step]
        low = floor(step)
        for v in host_vertices:
            if v in used or v <= low:
                continue
            image[p] = v
            ok = True
            for ln in closing[step]:
                if frozenset(image[x] for x in ln) not in edge_set:
                    ok = False
                    break
            if ok:
                # forward check: almost-complete lines must still be completable
                for ln in pending[step]:
                    mapped = [image[x] for x in ln if image[x] >= 0]
                    if len(mapped) != len(ln) - 1:
                        continue
                    base = frozenset(mapped)
                    if not any(base | {w} in edge_set
                               for w in host_vertices if w not in used and w != v):
                        ok = False
                        break
            if ok:
                used.add(v)
                if rec(step + 1):
                    return True
                used.discard(v)
                if out_status == "timeout":
                    return False
            image[p] = -1
        return False

    if rec(0):
        return "yes", nodes, {p: image[p] for p in range(n_pts)}
    return out_status, nodes, None


def assert_generic_matches_reference(h, pattern):
    res = contains_subgeometry(h, pattern, force_generic=True)
    want = search_generic_reference(h, line_tuples(pattern), pattern.n_points)
    assert (res.status, res.nodes, res.witness) == want
    return want


def random_host(rng, n, r, density, planted=None, drop=None):
    """Each r-set an edge with the given probability; a `planted` pattern adds
    the image of each of its lines but line `drop` under a random injection."""
    edges = {mask_of(e) for e in itertools.combinations(range(n), r) if rng.random() < density}
    if planted is not None:
        image = rng.sample(range(n), planted.n_points)
        edges |= {mask_of(image[p] for p in bits(ln))
                  for i, ln in enumerate(planted.line_point_incidence) if i != drop}
    return Hypergraph(n=n, r=r, edges=sorted(edges))


def test_generic_search_matches_reference_on_random_hosts():
    fano = build_geometry(2, 2)
    rng = random.Random(31)
    statuses = []
    for _ in range(40):
        n = rng.randint(7, 11)
        density = rng.choice([0.3, 0.5, 0.7, 0.9])
        statuses.append(assert_generic_matches_reference(random_host(rng, n, 3, density),
                                                         fano)[0])
    assert {"yes", "no"} <= set(statuses)


@pytest.mark.parametrize("scheme,n,q,rates,kw,status,nodes", [
    ("t2", 11, 2, (1 / 12,), {"k": 0}, "no", 5_962),
    ("t3", 14, 3, (6 / 14, 4 / 14, 1 / 14), {"M": 5}, "yes", 8_389),
])
def test_generic_search_matches_reference_on_partition_hosts(scheme, n, q, rates, kw,
                                                             status, nodes):
    h = build_hypergraph(make_partition(n, q, 2, scheme, rates, **kw))
    got = assert_generic_matches_reference(h, build_geometry(2, q))
    assert got[:2] == (status, nodes)


def test_generic_search_symmetry_breaking_loses_no_embedding():
    """The search tries only embeddings whose first point takes the smallest
    vertex, whose first three points ascend and whose first point off the
    first line takes the smallest vertex of any point off it.  Every status must equal that of the reference trying every
    injection, and every witness must be an embedding."""
    def check(h, pattern):
        res = contains_subgeometry(h, pattern, force_generic=True)
        want = search_generic_reference(h, line_tuples(pattern), pattern.n_points,
                                        break_symmetry=False)
        assert res.status == want[0]
        if res.witness is not None:
            assert len(set(res.witness.values())) == pattern.n_points
            assert {mask_of(res.witness[p] for p in bits(ln))
                    for ln in pattern.line_point_incidence} <= set(h.edges)
        return res.status, res.nodes < want[1]

    fano, g3 = build_geometry(2, 2), build_geometry(2, 3)
    rng = random.Random(26)
    got = [check(random_host(rng, rng.randint(7, 11), 3, rng.choice([0.3, 0.5, 0.7, 0.9])),
                 fano) for _ in range(300)]
    # PG(2,3) hosts the unconstrained reference settles in under a second:
    # a planted copy among sparse random edges, or one with a line taken out
    rng = random.Random(27)
    got += [check(random_host(rng, rng.randint(13, 14), 4, rng.choice([0.05, 0.1, 0.2]),
                              planted=g3), g3) for _ in range(12)]
    got += [check(random_host(rng, 13, 4, 0.01, planted=g3, drop=rng.randrange(13)), g3)
            for _ in range(2)]
    got.append(check(complete_hypergraph(15, 3), build_geometry(3, 2)))
    statuses = Counter(status for status, _ in got)
    assert statuses["yes"] >= 100 and statuses["no"] >= 50, statuses
    assert sum(fewer for _, fewer in got) >= 50    # the constraints do prune


def test_generic_search_zero_budget_times_out():
    # the generic search reads the deadline at the root
    h = build_hypergraph(make_partition(11, 2, 2, "t2", (1 / 12,), k=0))
    res = contains_subgeometry(h, build_geometry(2, 2), budget=0, force_generic=True)
    assert (res.status, res.nodes, res.witness) == ("timeout", 1, None)


def test_generic_search_times_out_at_its_first_periodic_read(stalled_clock):
    # the clock passes the deadline after the root read; the generic search
    # reads it every 1024 nodes
    h = build_hypergraph(make_partition(11, 2, 2, "t2", (1 / 12,), k=0))
    stalled_clock("pgturan.construction")
    res = contains_subgeometry(h, build_geometry(2, 2), budget=1, force_generic=True)
    assert (res.status, res.nodes, res.witness) == ("timeout", 1024, None)


def test_generic_search_zero_budget_stops_before_an_easy_yes():
    # K_7^3 holds a Fano plane within 7 nodes, before any periodic read
    res = contains_subgeometry(complete_hypergraph(7, 3), build_geometry(2, 2), budget=0)
    assert (res.status, res.nodes, res.witness) == ("timeout", 1, None)


def test_generic_search_agrees_with_part_search():
    fano = build_geometry(2, 2)
    rng = random.Random(17)
    yes = no = 0
    for _ in range(12):
        s = sum(2 ** i for i in range(1, 3))
        k = rng.randint(0, 4)
        alpha = rng.uniform(0.02, 1.0 / (s - k))
        spec = make_partition(rng.randint(8, 11), 2, 2, "t2", (alpha,), k=k)
        h = build_hypergraph(spec)
        a = contains_subgeometry(h, fano)
        b = contains_subgeometry(h, fano, force_generic=True)
        assert a.status == b.status == "no"   # blocking-set-free pattern
        no += 1
    assert no == 12
    # arc partitions too: X must meet every line in 1..q points, i.e. be a
    # blocking set, and the Fano plane has none
    rng = random.Random(23)
    for _ in range(10):
        M = rng.randint(2, 7)
        alpha = rng.uniform(0.1, 0.8)
        beta = rng.uniform(0, 1 - alpha)
        spec = make_partition(rng.randint(7, 9), 2, 2, "t3",
                              (alpha, beta, (1 - alpha - beta) / (M - 1)), M=M)
        h = build_hypergraph(spec)
        a = contains_subgeometry(h, fano)
        b = contains_subgeometry(h, fano, force_generic=True)
        assert a.status == b.status == "no", spec
    # PG(2,3) has 6-point blocking sets, so with X near 7 and a few singleton
    # parts the arc partitions admit copies; the generic search is only run
    # where the part search says yes, since it is slow to exhaust a q=3 host
    g3 = build_geometry(2, 3)
    rng = random.Random(29)
    yes = 0
    for _ in range(8):
        n = rng.randint(13, 15)
        M = rng.randint(4, 5)
        alpha = rng.uniform(6.6, 7.4) / n
        gamma = rng.uniform(1.0, 1.2) / n
        spec = make_partition(n, 3, 2, "t3",
                              (alpha, 1 - alpha - (M - 1) * gamma, gamma), M=M)
        h = build_hypergraph(spec)
        a = contains_subgeometry(h, g3)
        if a.status != "yes":
            continue
        b = contains_subgeometry(h, g3, force_generic=True)
        assert b.status == "yes", spec
        edges = {frozenset(bits(e)) for e in h.edges}
        for res in (a, b):
            assert len(set(res.witness.values())) == g3.n_points
            for line in g3.line_point_incidence:
                assert frozenset(res.witness[p] for p in bits(line)) in edges
        yes += 1
    assert yes >= 6


@pytest.mark.parametrize("scheme,n,q,rates,kw,status,nodes,image", [
    ("t2", 14, 2, (1 / 12,), {"k": 0}, "no", 4893, None),
    ("t3", 16, 3, (0.5948588940, 0.3216013121, 0.0835397939), {"M": 2}, "no", 4526, None),
    ("t3", 25, 3, (0.5948588940, 0.3216013121, 0.0835397939), {"M": 2}, "no", 4526, None),
    ("t3", 14, 3, (6 / 14, 4 / 14, 1 / 14), {"M": 5}, "yes", 3077,
     (0, 1, 2, 3, 7, 10, 4, 11, 9, 8, 5, 12, 6)),
])
def test_part_search_pinned_hosts(scheme, n, q, rates, kw, status, nodes, image):
    spec = make_partition(n, q, 2, scheme, rates, **kw)
    res = contains_subgeometry(build_hypergraph(spec), build_geometry(2, q))
    assert (res.status, res.nodes) == (status, nodes)
    assert res.witness == (None if image is None else dict(enumerate(image)))


def test_part_search_finds_copies_when_constraints_allow():
    """Inflating the cover parameter admits embeddings: the plane of order 3
    splits into a 6-point blocking set, a 4-arc and three leftovers, which is
    exactly an edge-legal coloring when four singleton parts are offered."""
    g3 = build_geometry(2, 3)
    spec = make_partition(14, 3, 2, "t3", (6 / 14, 4 / 14, 1 / 14), M=5)
    assert spec.sizes == (6, 4, 1, 1, 1, 1)
    h = build_hypergraph(spec)
    res = contains_subgeometry(h, g3)
    gen = contains_subgeometry(h, g3, force_generic=True)
    assert res.status == gen.status
    if res.status == "yes":
        part_of = spec.part_of_vertex()
        for line in g3.line_point_incidence:
            counts = [0] * len(spec.sizes)
            for p in bits(line):
                counts[part_of[res.witness[p]]] += 1
            assert spec.edge_ok(counts)


def test_witness_determinism():
    fano = build_geometry(2, 2)
    r1 = contains_subgeometry(complete_hypergraph(8, 3), fano)
    r2 = contains_subgeometry(complete_hypergraph(8, 3), fano)
    assert r1.witness == r2.witness


def test_zero_budget_times_out():
    # the deadline is read at the root, and this host needs 4526 nodes to say no
    spec = make_partition(16, 3, 2, "t3",
                          (0.5948588940, 0.3216013121, 0.0835397939), M=2)
    h = build_hypergraph(spec)
    res = contains_subgeometry(h, build_geometry(2, 3), budget=0)
    assert (res.status, res.nodes, res.witness) == ("timeout", 1, None)


def test_colored_search_times_out_at_its_first_periodic_read(stalled_clock):
    # the clock passes the deadline after the root read; the colored search
    # reads it every 2048 nodes, and this host needs 4526 to say no
    spec = make_partition(16, 3, 2, "t3",
                          (0.5948588940, 0.3216013121, 0.0835397939), M=2)
    h = build_hypergraph(spec)
    stalled_clock("pgturan.construction")
    res = contains_subgeometry(h, build_geometry(2, 3), budget=1)
    assert (res.status, res.nodes, res.witness) == ("timeout", 2048, None)
