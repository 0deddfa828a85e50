"""The two partition constructions of PG-free hypergraphs, at desk scale.

A partition is its part sizes and caps (`PartitionSpec`): a (q+1)-set is an
edge iff it meets X, part 0, in at least 1 vertex and every part in at most
its cap.  Only `part_pattern` tells the paper's two constructions apart: it
gives each part's cap and rate variable, which `make_partition` rounds into
part sizes and `density_monomials` expands into the limit edge density.
Edge counting is exact combinatorics over the part sizes; PG-freeness is
audited by explicit embedding search.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Geometry


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
    edges: list[tuple[int, ...]]
    spec: PartitionSpec | None = None


def complete_hypergraph(n: int, r: int) -> Hypergraph:
    return Hypergraph(n=n, r=r,
                      edges=[tuple(e) for e in itertools.combinations(range(n), r)])


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
            edges.append(combo)
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
    """
    terms = [((0,) * n_vars, 0, 1)]      # exponents, their sum d, placements of d vertices
    lows = (1,) + (0,) * (len(caps) - 1)            # X takes at least one vertex
    for (cap, v, low), run in itertools.groupby(zip(caps, var, lows)):
        ways = _placements(cap, len(list(run)), r)
        terms = [(expo[:v] + (expo[v] + e,) + expo[v + 1:], d + e, c * math.comb(r - d, e) * w)
                 for expo, d, c in terms for e, w in enumerate(ways[:r + 1 - d])
                 if w and e >= low]
    return {expo: Fraction(c) for expo, d, c in terms if d == r}


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

@dataclass
class SubgeometryResult:
    status: str                       # "yes" | "no" | "timeout"
    witness: dict[int, int] | None    # pattern point -> host vertex
    nodes: int


def _pattern_order(n_points: int, lines) -> list[int]:
    """Point order that closes fully-mapped lines as early as possible."""
    remaining = set(range(n_points))
    order: list[int] = []
    placed: set[int] = set()

    def gain(p):
        closes = sum(1 for ln in lines if p in ln and all(x in placed or x == p for x in ln))
        almost = sum(1 for ln in lines if p in ln
                     and sum(1 for x in ln if x in placed) == len(ln) - 2)
        support = sum(1 for ln in lines if p in ln
                      and any(x in placed for x in ln))
        return (closes, almost, support)

    # seed with the two highest-degree points of the first line
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


def _search_colored(h: Hypergraph, pattern_lines, n_pts: int,
                    deadline) -> SubgeometryResult:
    """Embedding search for partition hosts, factored through part counts.

    Vertices inside one part are interchangeable, so an embedding exists iff
    pattern points can be assigned parts, within capacity, such that every
    line's per-part count vector is an edge type.
    """
    sizes, caps = h.spec.sizes, h.spec.caps
    n_parts = len(sizes)
    order = _pattern_order(n_pts, pattern_lines)
    lines_through = [[ln for ln in pattern_lines if p in ln] for p in range(n_pts)]

    color = [-1] * n_pts
    used = [0] * n_parts
    nodes = 0
    out_status = "no"

    def feasible_partial(p_new) -> bool:
        # caps are monotone, so only lines through the new point can break
        for ln in lines_through[p_new]:
            counts = [0] * n_parts
            mapped = 0
            for p in ln:
                part = color[p]
                if part >= 0:
                    counts[part] += 1
                    if counts[part] > caps[part]:
                        return False
                    mapped += 1
            if mapped == len(ln) and counts[0] == 0:
                return False
        return True

    def rec(step: int) -> bool:
        nonlocal nodes, out_status
        if step == n_pts:
            return True
        nodes += 1
        if deadline is not None and nodes % 2048 == 0 and time.monotonic() > deadline:
            out_status = "timeout"
            return False
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
            if out_status == "timeout":
                return False
        return False

    if rec(0):
        # materialize: fresh vertices per part in index order
        starts = [sum(sizes[:i]) for i in range(n_parts)]
        next_free = list(starts)
        witness = {}
        for p in order:
            part = color[p]
            witness[p] = next_free[part]
            next_free[part] += 1
        return SubgeometryResult("yes", witness, nodes)
    return SubgeometryResult(out_status, None, nodes)


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
    """
    completions: dict[int, int] = {}
    for e in h.edges:
        em = 0
        for v in e:
            em |= 1 << v
        for v in e:
            base = em & ~(1 << v)
            completions[base] = completions.get(base, 0) | (1 << v)
    order = _pattern_order(n_pts, pattern_lines)
    pos = {p: i for i, p in enumerate(order)}
    closing = [[] for _ in range(n_pts)]     # other points of lines closed at this step
    pending = [[] for _ in range(n_pts)]     # mapped points of lines left one point short
    for ln in pattern_lines:
        steps = sorted(pos[p] for p in ln)
        closing[steps[-1]].append([order[s] for s in steps[:-1]])
        pending[steps[-2]].append([order[s] for s in steps[:-2]])

    image = [0] * n_pts                    # each mapped point's host vertex, as one bit
    all_vertices = (1 << h.n) - 1
    get = completions.get
    nodes = 0
    out_status = "no"

    def rec(step: int, used: int) -> bool:
        nonlocal nodes, out_status
        if step == n_pts:
            return True
        nodes += 1
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            out_status = "timeout"
            return False
        unused = all_vertices & ~used
        cand = unused
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
                if out_status == "timeout":
                    return False
        return False

    if rec(0, 0):
        return SubgeometryResult("yes", {p: image[p].bit_length() - 1 for p in range(n_pts)},
                                 nodes)
    return SubgeometryResult(out_status, None, nodes)


def contains_subgeometry(h: Hypergraph, pattern: Geometry,
                         budget: float | None = None,
                         force_generic: bool = False) -> SubgeometryResult:
    """Search for a copy of the geometry inside the hypergraph.

    A witness is an injection of pattern points into host vertices mapping
    every line to an edge; "no" is only reported on exhausted search.
    Partition-built hosts use the part-count factorization unless
    force_generic is set.
    """
    if pattern.q + 1 != h.r:
        raise ConstructionError("pattern uniformity differs from the host's")
    if h.n < len(pattern.points):
        return SubgeometryResult("no", None, 0)
    pattern_lines = [tuple(ln.point_ids) for ln in pattern.lines]
    n_pts = len(pattern.points)
    deadline = time.monotonic() + budget if budget is not None else None
    if h.spec is not None and not force_generic:
        return _search_colored(h, pattern_lines, n_pts, deadline)
    return _search_generic(h, pattern_lines, n_pts, deadline)
