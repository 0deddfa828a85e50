"""The two partition constructions of PG-free hypergraphs, at desk scale.

A partition is its part sizes and caps (`PartitionSpec`): a (q+1)-set is an
edge iff it meets X, part 0, in at least 1 vertex and every part in at most
its cap.  Only `part_pattern` tells the paper's two constructions apart: it
gives each part's cap and rate variable, which `make_partition` rounds into
part sizes and `density_monomials` expands into the limit edge density.
Edge counting is exact combinatorics over the part sizes; PG-freeness is
audited by explicit embedding search.  Hypergraph edges are vertex masks,
and the search reads pattern lines and part members as point masks.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Geometry, SearchTimeout, bits, mask_of


class ConstructionError(ValueError):
    pass


DEFAULT_MAX_N = {2: 40, 3: 25}


@dataclass(frozen=True)
class PartitionSpec:
    """n vertices split into parts for (q+1)-uniform edges, X first.

    `sizes` are the integer part sizes, `caps` the most vertices an edge may
    take from each part, and `targets` the real part sizes that `sizes`
    rounds.
    """
    n: int
    q: int
    sizes: tuple[int, ...]
    caps: tuple[int, ...]
    targets: tuple[float, ...]

    @property
    def r(self) -> int:
        return self.q + 1

    def part_of_vertex(self) -> list[int]:
        """Part index per vertex: 0 is X, then the remaining parts in order."""
        out = []
        for part, size in enumerate(self.sizes):
            out.extend([part] * size)
        return out

    def edge_ok(self, counts) -> bool:
        """Whether a (q+1)-set with the given per-part counts is an edge."""
        return counts[0] >= 1 and all(map(operator.le, counts, self.caps))


def _largest_remainder(n: int, targets: list[float]) -> list[int]:
    floors = [math.floor(t) for t in targets]
    rem = n - sum(floors)
    if rem < 0 or rem > len(targets):
        raise ConstructionError("rates do not sum to 1")
    order = sorted(range(len(targets)),
                   key=lambda i: (-(targets[i] - floors[i]), i))
    for i in order[:rem]:
        floors[i] += 1
    return floors


RATE_NAMES = {"t2": ("alpha", "beta"), "t3": ("alpha", "beta", "gamma")}


def part_pattern(q: int, scheme: str, parts: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Each part's cap and rate variable (an index into `RATE_NAMES[scheme]`), X first.

    t2 (parts = t): X of cap q at rate beta, then t parts of cap 1 at alpha.
    t3 (parts = M): X of cap q at alpha, Y of cap 2 at beta, M-1 of cap 1 at gamma.
    """
    if scheme == "t2":
        return (q,) + (1,) * parts, (1,) + (0,) * parts
    if scheme == "t3":
        return (q, 2) + (1,) * (parts - 1), (0, 1) + (2,) * (parts - 1)
    raise ConstructionError(f"unknown scheme {scheme!r}")


def make_partition(n: int, q: int, m: int, scheme: str, rates,
                   k: int | None = None, M: int | None = None) -> PartitionSpec:
    """Integer part sizes from rates by largest-remainder rounding.

    t2 has t = sum_{i=1..m} q^i - k parts of cap 1, t3 has M-1.  `rates`
    holds one rate per name in `RATE_NAMES[scheme]`, nonnegative and summing
    to 1 over the parts; t2 may leave out beta, X's rate, which is then what
    the other parts leave.  Part sizes land within 1 of their targets and sum to n.
    """
    parts = M                                       # t3; t2 counts its parts below
    if scheme == "t2":
        if k is None:
            raise ConstructionError("t2 needs k, the maximum blocking-set size")
        parts = sum(q ** i for i in range(1, m + 1)) - k
        if parts < 0:
            raise ConstructionError("k exceeds the part budget")
    elif scheme == "t3":
        if M is None or M < 1:
            raise ConstructionError("t3 needs M >= 1, the minimum passant-cover value")
        if m != 2:
            raise ConstructionError("t3 is a plane construction (m=2)")
    caps, var = part_pattern(q, scheme, parts)      # raises on an unknown scheme
    names = RATE_NAMES[scheme]
    if len(rates) == len(names) - 1 == var[0]:         # X's rate, the last, left out
        rates = (*rates, 1.0 - sum(float(x) * var.count(v) for v, x in enumerate(rates)))
    if len(rates) != len(names):
        raise ConstructionError(f"{scheme} takes {len(names)} rates ({', '.join(names)}), "
                                f"not {len(rates)}")
    rates = [float(r) for r in rates]
    if min(rates) < -1e-12:
        raise ConstructionError("rates must be nonnegative")
    if abs(sum(x * var.count(v) for v, x in enumerate(rates)) - 1.0) > 1e-9:
        raise ConstructionError("rates summed over the parts must make 1")
    targets = [rates[v] * n for v in var]
    return PartitionSpec(n=n, q=q, sizes=tuple(_largest_remainder(n, targets)),
                         caps=caps, targets=tuple(targets))


@dataclass
class Hypergraph:
    n: int
    r: int
    edges: list[int]                  # vertex masks
    spec: PartitionSpec | None = None


def complete_hypergraph(n: int, r: int) -> Hypergraph:
    return Hypergraph(n=n, r=r, edges=list(map(mask_of, itertools.combinations(range(n), r))))


def build_hypergraph(spec: PartitionSpec) -> Hypergraph:
    """Explicit edge list of the partition construction (desk scale only)."""
    cap = DEFAULT_MAX_N.get(spec.q, 18)
    if spec.n > cap:
        raise ConstructionError(f"n={spec.n} beyond enumeration budget {cap}")
    part_of = spec.part_of_vertex()
    n_parts = len(spec.sizes)
    edges = []
    for combo in itertools.combinations(range(spec.n), spec.r):
        counts = [0] * n_parts
        for v in combo:
            counts[part_of[v]] += 1
        if spec.edge_ok(counts):
            edges.append(mask_of(combo))
    return Hypergraph(n=spec.n, r=spec.r, edges=edges, spec=spec)


def _edge_count(sizes, caps, r: int) -> int:
    """The x^r coefficient of the product over parts of sum_c C(size, c) x^c,
    with c running over 0..cap (1..cap for X)."""
    coef = [1] + [0] * r
    for part, (size, cap) in enumerate(zip(sizes, caps)):
        low = 1 if part == 0 else 0
        coef = [sum(coef[k - c] * math.comb(size, c) for c in range(low, min(cap, k) + 1))
                for k in range(r + 1)]
    return coef[r]


def _placements(cap: int, count: int, r: int) -> list[int]:
    """Ways to place k = 0..r labelled vertices in `count` parts of cap `cap`:
    k! [y^k] (sum_{c=0..cap} y^c / c!)^count, by J.C.P. Miller's power recurrence."""
    ways = [1]
    for k in range(1, r + 1):
        ways.append(sum(((count + 1) * j - k) * math.comb(k, j) * ways[k - j]
                        for j in range(1, min(k, cap) + 1)) // k)
    return ways


def density_monomials(caps, var, n_vars: int, r: int) -> dict[tuple[int, ...], Fraction]:
    """The limit edge density of parts with caps `caps` and rate variables
    `var`: r! [x^r] of the product over parts of sum_c (rho x)^c / c!, c over
    0..cap (1..cap for X), counting placements of r labelled vertices run by
    run of equal parts.  The parts of one rate variable must form one run.
    Keys (n_vars exponents) ascend with the exponents read in order of first
    appearance, the order the float evaluators sum in.

    A run places at least enough vertices that the later runs, filled to
    their caps, can bring the degree to r; terms that cannot reach r are
    never formed.
    """
    lows = (1,) + (0,) * (len(caps) - 1)            # X takes at least one vertex
    runs = [(cap, v, low, len(list(run)))
            for (cap, v, low), run in itertools.groupby(zip(caps, var, lows))]
    rest = sum(cap * count for cap, _, _, count in runs)  # what the runs left can hold
    terms = [((0,) * n_vars, 0, 1)]      # exponents, their sum d, placements of d vertices
    for cap, v, low, count in runs:
        ways = _placements(cap, count, r)
        rest -= cap * count
        terms = [(expo[:v] + (expo[v] + e,) + expo[v + 1:], d + e, c * math.comb(r - d, e) * w)
                 for expo, d, c in terms for e in range(max(low, r - d - rest), r - d + 1)
                 if (w := ways[e])]
    return {expo: Fraction(c) for expo, d, c in terms}


def count_edges_exact(spec: PartitionSpec) -> int:
    """Exact edge count from the part sizes alone (no enumeration)."""
    return _edge_count(spec.sizes, spec.caps, spec.r)


def displayed_lower_bound(spec: PartitionSpec) -> int:
    """The floor-rate undercount the constructions are quoted with: the edge
    count with every part size set to its floored target.

    Always at most count_edges_exact for partitions produced by
    make_partition, since every part size is at least the floored target.
    A target just below zero, which make_partition allows, floors to 0.
    """
    return _edge_count([max(0, math.floor(t)) for t in spec.targets], spec.caps, spec.r)


# --- embedding search ---------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SubgeometryResult:
    status: str                       # "yes" | "no" | "timeout"
    witness: dict[int, int] | None    # pattern point -> host vertex
    nodes: int


def _pattern_order(n_points: int, lines) -> list[int]:
    """Point order that closes fully-mapped lines as early as possible.

    Starts with the points of the lexicographically first line, ascending.
    Each later point closes the most lines, then leaves the most lines one
    point short, then meets the most lines with a placed point; ties go to
    the lowest point.
    """
    first = min(lines, key=lambda ln: tuple(bits(ln)))
    order = list(bits(first))
    placed = first
    # per point, each line through it without the point itself
    others = [[ln ^ 1 << p for ln in lines if ln >> p & 1] for p in range(n_points)]

    def gain(p):
        left = [(o & ~placed).bit_count() for o in others[p]]
        return (left.count(0), left.count(1), sum(1 for o in others[p] if o & placed))

    remaining = [p for p in range(n_points) if not placed >> p & 1]
    while remaining:
        best = max(remaining, key=gain)
        order.append(best)
        placed |= 1 << best
        remaining.remove(best)
    return order


def _search_colored(h: Hypergraph, pattern_lines, n_pts: int,
                    deadline) -> SubgeometryResult:
    """Embedding search for partition hosts, factored through part counts.

    Vertices inside one part are interchangeable, so an embedding exists iff
    pattern points can be assigned parts, within capacity, such that every
    line's per-part count vector is an edge type.  `members[j]` is the mask
    of points in part j.  Placing a point moves only its own part's count on
    the lines through it, so only that count is checked, and X must meet the
    lines it closes: every other count was checked when it last moved.
    """
    sizes, caps = h.spec.sizes, h.spec.caps
    order = _pattern_order(n_pts, pattern_lines)
    through = [[ln for ln in pattern_lines if ln >> p & 1] for p in order]  # per step
    # the lines each step's point closes: all their points are placed by then
    closing = [[ln for ln in through[s] if not ln & ~mask_of(order[:s + 1])]
               for s in range(n_pts)]

    members = [0] * len(sizes)
    nodes = 0

    def rec(step: int) -> bool:
        nonlocal nodes
        if step == n_pts:
            return True
        nodes += 1
        if (deadline is not None and (nodes == 1 or nodes % 2048 == 0)
                and time.monotonic() > deadline):
            raise SearchTimeout(nodes)
        pb = 1 << order[step]
        for part, (size, cap) in enumerate(zip(sizes, caps)):
            m = members[part]
            if m.bit_count() >= size:
                continue
            m |= pb
            if any((ln & m).bit_count() > cap for ln in through[step]):
                continue
            members[part] = m
            if all(ln & members[0] for ln in closing[step]) and rec(step + 1):
                return True
            members[part] = m ^ pb
        return False

    if rec(0):
        # materialize: each part's points take its vertices in placement order
        starts = itertools.accumulate(sizes, initial=0)
        witness = {p: start + i for start, m in zip(starts, members)
                   for i, p in enumerate(sorted(bits(m), key=order.index))}
        return SubgeometryResult("yes", witness, nodes)
    return SubgeometryResult("no", None, nodes)


def _search_generic(h: Hypergraph, pattern_lines, n_pts: int,
                    deadline) -> SubgeometryResult:
    """Backtracking over pattern points mapping into arbitrary hosts.

    Reads only `h.n` and `h.edges`, so it stays an independent check of the
    part-count search.  Host vertex sets are bitmasks: `completions[base]` is
    the set of vertices w for which base plus w is an edge, over every base
    that is an edge minus one vertex.  A point's candidates are the unused
    vertices that complete every line the point closes, tried lowest first;
    a candidate survives when every line left one point short still has a
    free completion.

    The pattern is a PG(m,q), and the search breaks its symmetry.  The order
    starts with the points of a line l.  The collineations are transitive on
    flags (a point and a line through it); those fixing the flag (first
    point, l) act on l's other q points as AGL(1,q), which is sharply
    2-transitive; and those fixing l pointwise are transitive on the points
    off l.  So some image of any embedding maps the first point to its
    smallest vertex, the next two to the two smallest vertices left on l,
    ascending, and the first point off l to the smallest vertex off l.  Only
    those embeddings are searched: steps 1 and 2 take vertices above the
    step before, the rest of l and the first point off l vertices above step
    0, and later points off l vertices above the first of them.
    """
    completions: dict[int, int] = {}
    for e in h.edges:
        for v in bits(e):
            base = e ^ 1 << v
            completions[base] = completions.get(base, 0) | 1 << v
    order = _pattern_order(n_pts, pattern_lines)
    pos = {p: i for i, p in enumerate(order)}
    closing = [[] for _ in range(n_pts)]     # other points of lines closed at this step
    pending = [[] for _ in range(n_pts)]     # mapped points of lines left one point short
    for ln in pattern_lines:
        steps = sorted(pos[p] for p in bits(ln))
        closing[steps[-1]].append([order[s] for s in steps[:-1]])
        pending[steps[-2]].append([order[s] for s in steps[:-2]])
    # the point whose vertex each step's vertex must exceed, if any
    k = pattern_lines[0].bit_count()         # order starts with the k points of l
    above = [None, order[0], order[1], *[order[0]] * (k - 2), *[order[k]] * (n_pts - k - 1)]

    image = [0] * n_pts                    # each mapped point's host vertex, as one bit
    all_vertices = (1 << h.n) - 1
    get = completions.get
    nodes = 0

    def rec(step: int, used: int) -> bool:
        nonlocal nodes
        if step == n_pts:
            return True
        nodes += 1
        if (deadline is not None and (nodes == 1 or nodes % 1024 == 0)
                and time.monotonic() > deadline):
            raise SearchTimeout(nodes)
        unused = all_vertices & ~used
        cand = unused
        if above[step] is not None:
            cand &= -(image[above[step]] << 1)
        for others in closing[step]:
            base = 0
            for x in others:
                base |= image[x]
            cand &= get(base, 0)
        bases = []
        for others in pending[step]:
            base = 0
            for x in others:
                base |= image[x]
            bases.append(base)
        p = order[step]
        while cand:
            vb = cand & -cand
            cand ^= vb
            free = unused ^ vb
            # forward check: almost-complete lines must still be completable
            for base in bases:
                if not get(base | vb, 0) & free:
                    break
            else:
                image[p] = vb
                if rec(step + 1, used | vb):
                    return True
        return False

    if rec(0, 0):
        return SubgeometryResult("yes", {p: image[p].bit_length() - 1 for p in range(n_pts)},
                                 nodes)
    return SubgeometryResult("no", None, nodes)


def contains_subgeometry(h: Hypergraph, pattern: Geometry,
                         budget: float | None = None,
                         force_generic: bool = False) -> SubgeometryResult:
    """Search for a copy of the geometry inside the hypergraph.

    A witness is an injection of pattern points into host vertices mapping
    every line to an edge; "no" is only reported on exhausted search, and
    "timeout" when the search passes its deadline first.  Partition-built
    hosts use the part-count factorization unless force_generic is set.
    """
    if pattern.q + 1 != h.r:
        raise ConstructionError("pattern uniformity differs from the host's")
    n_pts = pattern.n_points
    if h.n < n_pts:
        return SubgeometryResult("no", None, 0)
    deadline = time.monotonic() + budget if budget is not None else None
    search = _search_generic if h.spec is None or force_generic else _search_colored
    try:
        return search(h, pattern.line_point_incidence, n_pts, deadline)
    except SearchTimeout as stop:
        return SubgeometryResult("timeout", None, stop.nodes)
