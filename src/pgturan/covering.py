"""Minimum passant covers: m(K), M(q), and the appendix-style pencil analysis.

The central primitive is an exact minimum hitting set over a mask of a
plane's lines, solved by deterministic branch and bound on the plane's own
incidence: branch on the candidate points of an uncovered line (fewest
candidates first, points in ascending index order), ban each tried point in
its later siblings, and prune with depth + k, where k is the fewest unbanned
points whose uncovered-line counts can add up to the uncovered count.
Those counts are packed in a single int, byte p holding point p's count (so
at most 255 lines through a point), and kept incrementally: each child
subtracts, in one big-int step, the lines its point newly covers, a banned
point's byte is cleared, and the bound reads the k largest counts level by
level with `bytes.count`.

A cover is a point mask; an arc's passants and each passant pencil are line
masks, intersected and united as such.  Ids are formed only to print a claim.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from typing import NamedTuple

from .geometry import (Geometry, SearchTimeout, bits, build_geometry, format_coords,
                       line_of, mask_of, point_of, time_left)
from .structures import (
    ArcRecord,
    secant_profile,
    enumerate_complete_arcs,
    classify_up_to_collineation,
)
from . import refdata


class CoveringError(ValueError):
    pass


class HittingSetResult(NamedTuple):
    minimum_size: int
    witness: int                 # bitmask of chosen points
    optimal: bool                # search exhausted (False only under a budget)
    explored_nodes: int


class ClassCover(NamedTuple):
    representative: ArcRecord
    class_size: int
    cover: HittingSetResult


class MqReport(NamedTuple):
    q: int
    per_class: list[ClassCover]
    M_q: int
    max_over_classes: int
    witness_arc: ArcRecord
    witness_cover: HittingSetResult


class PassantAnalysis(NamedTuple):
    arc: ArcRecord
    per_point: dict[int, int]            # point id -> passants through it
    peak_multiplicity: int
    peak_points: tuple[int, ...]
    pencils: dict[int, int]              # peak point id -> mask of its passants


@functools.cache
def _packed_lines(line_point_incidence: tuple[int, ...]) -> tuple[int, ...]:
    """Each line of a geometry with a 1 in the byte of each of its points."""
    return tuple(sum(1 << 8 * p for p in bits(lm)) for lm in line_point_incidence)


def min_hitting_set(g: Geometry, universe: int, lines: int,
                    budget: float | None = None) -> HittingSetResult:
    """Exact minimum set of universe points meeting every line of the mask.

    `lines` is a mask of line ids of `g`.  Depth-first branch and bound from
    a greedy incumbent, with the points off the universe banned from the
    root.  Each node branches on the uncovered line with the fewest universe
    points (lowest line id on ties), trying its points in ascending order;
    once the branch that picks p returns, p is banned in the later siblings.
    The bound is top-k coverage: prune when the `best_size - depth - 1`
    unbanned points that meet the most uncovered lines cannot meet them all.

    Each node carries its per-point uncovered-line counts packed in one int,
    byte p holding point p's count, so a point of `g` may lie on at most 255
    lines (more raises `CoveringError`).  A line's packed form, built once
    per geometry, holds a 1 in the byte of each of its points.  A child
    subtracts from its parent's counts the packed lines its point newly
    covers, masked by `live` (0xFF in each unbanned byte); a ban clears the
    point's byte in `live` and in the counts.  The bound walks the count
    levels from the largest root count down, counting the bytes at each
    level, until k points are taken or their sum reaches the uncovered count.

    The witness is the greedy cover when that is optimal, and otherwise the
    first optimal cover in the unpruned branching order, so pruning never
    changes it.  A search past its deadline returns its incumbent with
    optimal=False.  Raises when some line misses the universe entirely.
    """
    if not lines:
        return HittingSetResult(0, 0, True, 1)
    line_points, point_lines = g.line_point_incidence, g.point_line_incidence
    # line ids grouped by their number of universe points, smallest first
    size_masks: dict[int, int] = {}
    for lid in bits(lines):
        size = (line_points[lid] & universe).bit_count()
        if not size:
            raise CoveringError(f"line {lid} does not meet the universe")
        size_masks[size] = size_masks.get(size, 0) | (1 << lid)
    if max(map(int.bit_count, point_lines)) > 255:
        raise CoveringError("a point lies on more than 255 lines, "
                            "the limit of the one-byte uncovered-line counts")
    deadline = time.monotonic() + budget if budget is not None else None
    lines_by_size = [size_masks[size] for size in sorted(size_masks)]
    packed = _packed_lines(line_points)
    width = len(point_lines)
    banned = g.all_points_mask & ~universe
    live = (1 << 8 * width) - 1
    for p in bits(banned):
        live ^= 0xFF << 8 * p
    root = sum(packed[lid] for lid in bits(lines)) & live
    levels = range(max(root.to_bytes(width, "little")), 0, -1)
    nodes = 0

    # greedy incumbent: most new lines covered, lowest point on ties
    rem = lines
    count = root
    greedy: list[int] = []
    while rem:
        b = count.to_bytes(width, "little")
        p = b.index(max(b))
        greedy.append(p)
        count -= sum(packed[lid] for lid in bits(point_lines[p] & rem)) & live
        rem &= ~point_lines[p]
    best_size = len(greedy)
    best_set = mask_of(greedy)

    def search(chosen: int, rem: int, banned: int, live: int, depth: int, count: int):
        nonlocal best_size, best_set, nodes
        nodes += 1
        # the deadline is read at the root and then every 4096 nodes
        if (deadline is not None and (nodes == 1 or nodes % 4096 == 0)
                and time.monotonic() > deadline):
            raise SearchTimeout(nodes)
        if not rem:
            if depth < best_size:
                best_size, best_set = depth, chosen
            return
        # top-k bound: the best_size - depth - 1 unbanned points that meet the
        # most uncovered lines must together meet them all
        k = best_size - depth - 1
        if k <= 0:
            return
        need = rem.bit_count()
        b = count.to_bytes(width, "little")
        for level in levels:  # the k largest counts, level by level
            c = b.count(level)
            if c >= k:
                need -= k * level
                break
            need -= c * level
            if need <= 0:
                break
            k -= c
        if need > 0:
            return
        # branch on the uncovered line with fewest points, lowest id on ties
        for size_mask in lines_by_size:
            open_lines = rem & size_mask
            if open_lines:
                break
        pick = (open_lines & -open_lines).bit_length() - 1
        for p in bits(line_points[pick] & ~banned):
            # drop the lines p newly covers; bits() written out, as this
            # loop runs once per child
            drop, m = 0, point_lines[p] & rem
            while m:
                low = m & -m
                drop += packed[low.bit_length() - 1]
                m ^= low
            search(chosen | (1 << p), rem & ~point_lines[p], banned, live, depth + 1,
                   count - (drop & live))
            banned |= 1 << p  # later branches must meet the line elsewhere
            live &= ~(0xFF << 8 * p)
            count &= live

    try:
        search(0, lines, banned, live, 0, root)
    except SearchTimeout:
        return HittingSetResult(best_size, best_set, False, nodes)
    return HittingSetResult(best_size, best_set, True, nodes)


def m_of_arc(g: Geometry, arc: ArcRecord, budget: float | None = None) -> HittingSetResult:
    """m(K): minimum points covering every passant of a complete arc.

    Arc points lie on no passant, so the universe is the arc's complement.
    """
    if not arc.is_complete:
        raise CoveringError("m(K) is defined here only for complete arcs")
    return min_hitting_set(g, g.all_points_mask & ~arc.mask, arc.passants, budget)


def compute_Mq(g: Geometry, budget: float | None = None,
               arcs: list[ArcRecord] | None = None) -> MqReport:
    """M(q): minimum of m(K) over the complete-arc classes of the plane.

    `arcs` is the plane's `enumerate_complete_arcs(g)`, when the caller
    already holds it; otherwise it is enumerated here, within that
    enumeration's q limit.  `budget` bounds the whole call: each cover search
    gets the time left of it.
    """
    deadline = time.monotonic() + budget if budget is not None else None
    if arcs is None:
        arcs = enumerate_complete_arcs(g)
    records = {a.mask: a for a in arcs}
    classes = classify_up_to_collineation(g, list(records))
    per_class = []
    for cls in classes:
        rep = records[cls[0]]
        cover = m_of_arc(g, rep, time_left(deadline))
        per_class.append(ClassCover(rep, len(cls), cover))
    best = min(per_class, key=lambda c: c.cover.minimum_size)
    worst = max(per_class, key=lambda c: c.cover.minimum_size)
    return MqReport(
        q=g.q,
        per_class=per_class,
        M_q=best.cover.minimum_size,
        max_over_classes=worst.cover.minimum_size,
        witness_arc=best.representative,
        witness_cover=best.cover,
    )


def passant_analysis(g: Geometry, arc: ArcRecord) -> PassantAnalysis:
    """Per-point passant incidence of an arc, with the peak points' pencils."""
    incidence = g.point_line_incidence
    per_point = {p: (incidence[p] & arc.passants).bit_count()
                 for p in bits(g.all_points_mask & ~arc.mask)}
    peak = max(per_point.values(), default=0)
    peaks = tuple(p for p, c in sorted(per_point.items()) if c == peak)
    return PassantAnalysis(
        arc=arc,
        per_point=per_point,
        peak_multiplicity=peak,
        peak_points=peaks,
        pencils={p: incidence[p] & arc.passants for p in peaks},
    )


class Claim(NamedTuple):
    claim_id: str
    anchor: str
    source: str          # reference | trivial | derived
    expected: str
    computed: str
    status: str          # pass | fail | timeout
    seconds: float = 0.0


def claim_status(ok: bool | None) -> str:
    """A claim's status from its verdict; None is a search that ran out of time."""
    return "timeout" if ok is None else "pass" if ok else "fail"


def render_claims(claims: list[Claim], fmt: str = "json",
                  timings: bool = False) -> str:
    if fmt == "json":
        rows = []
        for c in claims:
            d = {"claim": c.claim_id, "anchor": c.anchor, "source": c.source,
                 "expected": c.expected, "computed": c.computed, "status": c.status}
            if timings:
                d["seconds"] = round(c.seconds, 3)
            rows.append(d)
        return json.dumps({"claims": rows,
                           "failures": sum(c.status == "fail" for c in claims),
                           "timeouts": sum(c.status == "timeout" for c in claims)},
                          indent=2, ensure_ascii=False)
    cols = ["claim", "expected", "computed", "status"] + ["seconds"] * timings
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for c in claims:
        cells = [c.claim_id, c.expected, c.computed, c.status]
        cells += [round(c.seconds, 3)] * timings
        lines.append("| " + " | ".join(map(str, cells)) + " |")
    return "\n".join(lines)


def _claim(claims, cid, anchor, source, expected, computed, ok):
    claims.append(Claim(cid, anchor, source, str(expected), str(computed),
                        claim_status(ok)))


def _line_labels(g: Geometry, lines: int) -> list[str]:
    return sorted(format_coords(g, "line", lid) for lid in bits(lines))


def verify_appendix(which: str, budget: float | None = None) -> list[Claim]:
    """Reproduce the passant-pencil analysis of the complete 6-arcs, claim by claim.

    `which` is "A" or "B", case-insensitive; its catalog entry names the
    plane.  Returns one Claim per checked statement; the caller decides how
    to render or aggregate them.  `budget` bounds the whole call: each cover
    search gets the time left of it.
    """
    which = which.upper()
    data = refdata.APPENDICES.get(which)
    if data is None:
        raise CoveringError("appendix must be A or B")
    g = build_geometry(2, data["q"])
    deadline = time.monotonic() + budget if budget is not None else None
    tag = f"appendix{which}"
    claims: list[Claim] = []
    for name, case in data["cases"].items():
        pre = f"{tag}.{name}"
        arc = secant_profile(g, mask_of(point_of(g, s) for s in case["arc"]))
        _claim(claims, f"{pre}.complete", tag, "reference",
               True, arc.is_complete, arc.is_complete)
        _claim(claims, f"{pre}.passants", tag, "reference",
               data["passant_count"], arc.secant_profile[0],
               arc.secant_profile[0] == data["passant_count"])

        ana = passant_analysis(g, arc)
        _claim(claims, f"{pre}.peak.multiplicity", tag, "reference",
               data["peak_multiplicity"], ana.peak_multiplicity,
               ana.peak_multiplicity == data["peak_multiplicity"])

        named_peaks = [point_of(g, s) for s in case["peaks"]]
        _claim(claims, f"{pre}.peak.points", tag, "reference",
               sorted(format_coords(g, "point", p) for p in named_peaks),
               sorted(format_coords(g, "point", p) for p in ana.peak_points),
               set(named_peaks) == set(ana.peak_points))

        pencils = {}   # pencil number -> mask of its passants
        for idx, (peak_label, lines) in enumerate(zip(case["peaks"], case["pencils"]), 1):
            expected = mask_of(line_of(g, s) for s in lines)
            got = ana.pencils.get(point_of(g, peak_label), 0)
            pencils[idx] = got
            _claim(claims, f"{pre}.pencil.P{idx}", tag, "reference",
                   _line_labels(g, expected), _line_labels(g, got), expected == got)

        for i, j, common in case.get("pair_intersections", ()):
            expect = 1 << line_of(g, common)
            got = pencils[i] & pencils[j]
            _claim(claims, f"{pre}.pairint.P{i}P{j}", tag, "reference",
                   _line_labels(g, expect), _line_labels(g, got), got == expect)

        for pairs, common in case.get("triple_intersections", ()):
            expect = 1 << line_of(g, common)
            seen = 0
            for i, j in pairs:
                seen |= pencils[i] & pencils[j]
            ok = all(pencils[i] & pencils[j] == expect for i, j in pairs)
            cid = f"{pre}.tripleint.{format_coords(g, 'line', line_of(g, common))}"
            _claim(claims, cid, tag, "reference",
                   _line_labels(g, expect), _line_labels(g, seen), ok)

        for size, cap in sorted(data["union_caps"].items()):
            worst = 0
            for combo in itertools.combinations(sorted(pencils), size):
                u = 0
                for i in combo:
                    u |= pencils[i]
                worst = max(worst, u.bit_count())
            _claim(claims, f"{pre}.union.I{size}", tag, "reference",
                   f"<= {cap}", worst, worst <= cap)

        t0 = time.perf_counter()
        cover = m_of_arc(g, arc, time_left(deadline))
        ok = cover.minimum_size >= data["min_cover_at_least"] if cover.optimal else None
        claims.append(Claim(f"{pre}.mincover", tag, "reference",
                            f">= {data['min_cover_at_least']}", str(cover.minimum_size),
                            claim_status(ok), time.perf_counter() - t0))
    return claims
