"""One-shot verification driver: every reproducible claim, one pass/fail line each.

Claims are small closures over the library, identified by structural ids
("table1.q3.cor1", "lemma8.mincover.K1", "M.q7", ...).  Search- and
optimizer-backed claims respect a shared time budget and report "timeout"
instead of failing when it runs out: a search claim does not start past the
deadline, and every search engine it runs gets the time left of it.
Results that several claims read (the comparison tables, arc-partition
optima, complete arcs, M(q), appendix sub-claims) are computed once per
`build_claim_specs` call, by whichever claim reads them first.  Output
ordering and formatting are deterministic.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from . import bounds, refdata
# render_claims lives beside Claim; it stays importable from here
from .covering import (Claim, claim_status, compute_Mq, passant_analysis,
                       render_claims, verify_appendix)
from .construction import (
    PartitionSpec,
    build_hypergraph,
    contains_subgeometry,
    make_partition,
)
from .geometry import build_geometry, time_left
from .structures import enumerate_complete_arcs, max_blocking_set_size


@dataclass
class ClaimSpec:
    claim_id: str
    anchor: str
    source: str        # reference | trivial | derived
    expected: str
    search: bool       # consumes meaningful budget; may time out
    run: callable      # () -> (computed, ok); ok is None when a search ran out of time


def _geometry_claims(corrupt: bool = False) -> list[ClaimSpec]:
    rows = [(2, 2, 7, 7), (2, 3, 13, 13), (2, 4, 21, 21), (2, 5, 31, 31),
            (2, 7, 57, 57), (2, 8, 73, 73), (3, 2, 15, 35), (3, 3, 40, 130)]
    claims = []
    for m, q, npts, nlin in rows:
        def run(m=m, q=q, npts=npts, nlin=nlin):
            g = build_geometry(m, q)
            if corrupt:
                g = _corrupted_copy(g)
            deg = (q ** m - 1) // (q - 1)
            ok = (g.n_points, g.n_lines) == (npts, nlin)
            ok = ok and all(inc.bit_count() == deg for inc in g.point_line_incidence)
            ok = ok and all(lm.bit_count() == q + 1 for lm in g.line_point_incidence)
            ok = ok and all(
                g.pair_line[a][b] >= 0
                for a in range(0, g.n_points, max(1, g.n_points // 6))
                for b in range(a + 1, g.n_points)
            )
            # rescaled coordinates must normalize back to the same point
            s = g.field.primitive
            ok = ok and all(
                g.point_id(tuple(g.field.mul(s, c) for c in g.points[i])) == i
                for i in range(0, g.n_points, max(1, g.n_points // 8))
            )
            return f"({g.n_points},{g.n_lines})", ok
        claims.append(ClaimSpec(
            f"geometry.counts.m{m}q{q}", f"plane m={m} q={q}", "trivial",
            f"({npts},{nlin})", False, run))
    return claims


def _corrupted_copy(g):
    """A copy of `g` with broken field tables, for the negative control."""
    f = g.field
    mul_table = (f.mul_table[0], (f.mul_table[1][0], 0, *f.mul_table[1][2:]),
                 *f.mul_table[2:])
    lines = g.line_point_incidence
    return replace(g, field=replace(f, mul_table=mul_table),
                   line_point_incidence=(lines[0] ^ 1, *lines[1:]))


def _classification_claims(arcs, mq) -> list[ClaimSpec]:
    data = {
        3: ("lemma3", {4}, 3, 2),
        4: ("lemma4", {6}, 6, 2),
        5: ("lemma5", {6}, 10, 3),
        7: ("lemma6", {6, 8}, 21, 4),
        8: ("lemma7", {6, 10}, 28, 4),
    }
    claims = []
    for q, (tag, sizes, passants, cap) in data.items():
        def sizes_run(q=q, sizes=sizes):
            got = {a.size for a in arcs(q)}
            return str(sorted(got)), got == sizes
        claims.append(ClaimSpec(f"{tag}.sizes.q{q}", tag, "reference",
                                str(sorted(sizes)), True, sizes_run))

        def passant_run(q=q, big=max(sizes), passants=passants):
            got = {a.secant_profile[0] for a in arcs(q) if a.size == big}
            return str(sorted(got)), got == {passants}
        claims.append(ClaimSpec(f"{tag}.passants.q{q}", tag, "reference",
                                str(passants), True, passant_run))

        def conc_run(q=q, big=max(sizes), cap=cap):
            g = build_geometry(2, q)
            # arc points lie on no passant, so the peak over the points off
            # the arc is the most passants through any point
            worst = max(passant_analysis(g, a).peak_multiplicity
                        for a in arcs(q) if a.size == big)
            return str(worst), worst <= cap
        claims.append(ClaimSpec(f"{tag}.concurrency.q{q}", tag, "reference",
                                f"<= {cap}", True, conc_run))

    for q, nclasses in ((7, 2), (8, 1)):
        def class_run(q=q, nclasses=nclasses):
            # collineations preserve arc size, so each class is all 6-arcs or none
            got = sum(c.representative.size == 6 for c in mq(q).per_class)
            return str(got), got == nclasses
        claims.append(ClaimSpec(f"classes.sixarcs.q{q}", f"complete 6-arcs q={q}",
                                "reference", str(nclasses), True, class_run))
    return claims


def _blocking_claims(left) -> list[ClaimSpec]:
    rows = [(2, None, "derived"), (3, 7, "derived"), (4, 14, "derived")]
    claims = []
    for q, expect, src in rows:
        def run(q=q, expect=expect):
            res = max_blocking_set_size(build_geometry(2, q), budget=left())
            got = res.size
            return str(got), (got == expect if res.exact else None)
        claims.append(ClaimSpec(f"blocking.max.q{q}", f"blocking sets q={q}", src,
                                str(expect), True, run))
    return claims


def _mq_claims(mq) -> list[ClaimSpec]:
    claims = []
    for q, (expect, _, _) in refdata.ARC_BOUND_OPTIMA.items():
        def run(q=q, expect=expect):
            rep = mq(q)
            certif = all(c.cover.optimal for c in rep.per_class)
            return str(rep.M_q), (rep.M_q == expect if certif else None)
        claims.append(ClaimSpec(f"M.q{q}", f"passant covers q={q}", "reference",
                                str(expect), True, run))
    return claims


def _verdict(claims: list[Claim]) -> bool | None:
    """The verdict of a claim built from sub-claims: fail if any failed, else
    timeout if any timed out (an unproven incumbent bounds nothing), else pass."""
    statuses = {c.status for c in claims}
    return False if "fail" in statuses else None if "timeout" in statuses else True


def _appendix_claims(appendix) -> list[ClaimSpec]:
    claims = []
    for which, lemma in (("A", "lemma8"), ("B", "lemma9")):
        def run(which=which):
            sub = appendix(which)
            bad = [c.claim_id for c in sub if c.status == "fail"]
            return f"{len(sub)} claims, failing: {bad or 'none'}", _verdict(sub)
        claims.append(ClaimSpec(f"appendix{which}.all", f"appendix {which}",
                                "reference", "all claims reproduce", True, run))

        def run_mincover(which=which):
            covers = [c for c in appendix(which) if c.claim_id.endswith(".mincover")]
            return str(min(int(c.computed) for c in covers)), _verdict(covers)
        floor = refdata.APPENDICES[which]["min_cover_at_least"]
        claims.append(ClaimSpec(f"{lemma}.mincover", f"appendix {which}", "reference",
                                f">= {floor}", True, run_mincover))
    return claims


def _poly_claims() -> list[ClaimSpec]:
    claims = []
    for q, (M, _, _) in refdata.ARC_BOUND_OPTIMA.items():
        def run(q=q, M=M):
            poly = bounds.theorem3_polynomial(q, M)
            expect = {e: Fraction(c) for e, c in refdata.POLY_EXPANSIONS[q].items()}
            ok = poly.monomials == expect
            return f"{len(poly.monomials)} monomials", ok
        claims.append(ClaimSpec(f"poly.q{q}.coeffs", f"arc-partition polynomial q={q}",
                                "reference", "exact coefficient match", False, run))
    return claims


def _optima_claims(optima) -> list[ClaimSpec]:
    claims = []
    for q, (_, printed, _) in refdata.ARC_BOUND_OPTIMA.items():
        def run(q=q):
            r = optima()[q]
            return f"{r['value']:.10f}", r["value_ok"] and r["argmax_ok"]
        claims.append(ClaimSpec(f"optima.q{q}", f"optimized arc bound q={q}", "reference",
                                printed, True, run))
    return claims


def _table_claims(tables) -> list[ClaimSpec]:
    claims = []
    for name, table in (("table1", refdata.TABLE1_M2), ("table2", refdata.TABLE2_M3)):
        for q, printed in table.items():
            def run(name=name, q=q):
                r = tables()[name][q]
                return (f"thm1={r.thm1:.10f} cor1={r.cor1:.10f} alpha={r.alpha:.10f}",
                        r.ok)
            claims.append(ClaimSpec(f"{name}.q{q}", f"{name} row q={q}", "reference",
                                    f"thm1~{printed[0]} cor1~{printed[1]} alpha~{printed[2]}",
                                    True, run))
    for q in refdata.TABLE2_GENERAL_WINS:
        def run(q=q):
            r = tables()["table2"][q]
            return r.larger, r.larger == "thm1"
        claims.append(ClaimSpec(f"table2.q{q}.larger", f"table2 row q={q}", "reference",
                                "thm1", True, run))
    return claims


def _closed_form_claims() -> list[ClaimSpec]:
    cf = refdata.CLOSED_FORMS
    items = [
        ("closedform.thm1lower.m2q3", "general lower bound",
         cf["general_lower_m2_q3"], lambda: bounds.theorem1_lower(2, 3)),
        ("closedform.chromatic.q3", "chromatic bound",
         cf["chromatic_q3_chi3"], lambda: bounds.chromatic_lower(3, 3)),
        ("closedform.chromatic.q4", "chromatic bound",
         cf["chromatic_q4_chi3"], lambda: bounds.chromatic_lower(4, 3)),
        ("closedform.binaryupper.m3", "binary upper bound",
         cf["binary_upper_m3"], lambda: bounds.pg2_upper(3)),
        ("closedform.t.m2q3", "part count",
         cf["t_m2_q3"], lambda: bounds.corollary1_t(2, 3)),
        ("closedform.t.m3q23", "part count",
         cf["t_m3_q23"], lambda: bounds.corollary1_t(3, 23)),
    ]
    claims = []
    for cid, anchor, expect, fn in items:
        def run(expect=expect, fn=fn):
            got = fn()
            return str(got), got == expect
        claims.append(ClaimSpec(cid, anchor, "reference", str(expect), False, run))
    return claims


def _freeness_claims(left) -> list[ClaimSpec]:
    def search(h, q, want):
        res = contains_subgeometry(h, build_geometry(2, q), budget=left())
        return res.status, (None if res.status == "timeout" else res.status == want)

    def fano_yes():
        # K_7^3: one part X of cap 3 takes every 3-set
        return search(build_hypergraph(PartitionSpec(7, 2, (7,), (3,), (7.0,))), 2, "yes")

    def t2_free():
        return search(build_hypergraph(make_partition(14, 2, 2, "t2", (1 / 12,), k=0)),
                      2, "no")

    def t3_free():
        M, _, rates = refdata.ARC_BOUND_OPTIMA[3]
        spec = make_partition(16, 3, 2, "t3", tuple(map(float, rates)), M=M)
        return search(build_hypergraph(spec), 3, "no")

    return [
        ClaimSpec("freeness.k7.contains", "embedding search", "trivial", "yes",
                  True, fano_yes),
        ClaimSpec("freeness.t2.q2n14", "blocking partition q=2", "derived", "no",
                  True, t2_free),
        ClaimSpec("freeness.t3.q3n16", "arc partition q=3", "derived", "no",
                  True, t3_free),
    ]


def build_claim_specs(corrupt_field: bool = False,
                      deadline: float | None = None) -> list[ClaimSpec]:
    """The claim catalog, with one fresh memo of the results its claims share.

    Every search engine a claim runs gets the time left before `deadline`
    (a `time.monotonic()` reading; None is no limit).
    """
    left = functools.partial(time_left, deadline)

    @functools.cache
    def tables():
        return {name: {r.q: r for r in rows}
                for name, rows in bounds.reproduce_tables().items()}

    @functools.cache
    def optima():
        return {r["q"]: r for r in bounds.reproduce_arc_optima()}

    @functools.cache
    def arcs(q):
        return enumerate_complete_arcs(build_geometry(2, q))

    @functools.cache
    def mq(q):
        return compute_Mq(build_geometry(2, q), budget=left(), arcs=arcs(q))

    @functools.cache
    def appendix(which):
        return verify_appendix(which, budget=left())

    claims = []
    claims += _geometry_claims(corrupt=corrupt_field)
    claims += _closed_form_claims()
    claims += _poly_claims()
    claims += _optima_claims(optima)
    claims += _table_claims(tables)
    claims += _classification_claims(arcs, mq)
    claims += _blocking_claims(left)
    claims += _mq_claims(mq)
    claims += _appendix_claims(appendix)
    claims += _freeness_claims(left)
    return claims


def run_all(budget: float | None = 1800.0, corrupt_field: bool = False) -> list[Claim]:
    """Execute every claim within the budget; search claims time out past it.

    A shared result is charged to the `seconds` of the first claim that reads it.
    """
    start = time.monotonic()
    specs = build_claim_specs(corrupt_field=corrupt_field,
                              deadline=None if budget is None else start + budget)

    def execute(spec: ClaimSpec) -> Claim:
        elapsed = time.monotonic() - start
        if spec.search and budget is not None and elapsed >= budget:
            return Claim(spec.claim_id, spec.anchor, spec.source,
                         spec.expected, "(not run)", "timeout", 0.0)
        t0 = time.perf_counter()
        try:
            computed, ok = spec.run()
            status = claim_status(ok)
        except Exception as exc:  # report, never crash the harness
            computed, status = f"error: {exc}", "fail"
        return Claim(spec.claim_id, spec.anchor, spec.source,
                     spec.expected, str(computed), status,
                     time.perf_counter() - t0)

    return sorted(map(execute, specs), key=lambda c: c.claim_id)
