"""One-shot verification driver: every reproducible claim, one pass/fail line each.

The catalog is a list of rows `(claim_id, anchor, source, expected, reads,
check)`, identified by structural ids ("table1.q3", "lemma8.mincover",
"M.q7", ...).  `reads` names the shared results a row needs, as keys such as
`("tables",)`, `("mq", 7)` or `("embedding", spec, q)`, and `check(*values)`
returns `(computed, ok)` from them, with ok None when a search ran out of
time.  One memoized reader computes each shared result once per run, by the
first row that reads it, and is the only caller of the search engines and
the optimizer: every budgeted engine gets the time left before the deadline.
A row that reads a shared result does not start past the deadline and
reports "timeout"; a row that reads none always runs.  Rows run in catalog
order, and output ordering and formatting are deterministic.
"""

from __future__ import annotations

import functools
import time
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


def _geometry_rows(corrupt: bool) -> list[tuple]:
    planes = [(2, 2, 7, 7), (2, 3, 13, 13), (2, 4, 21, 21), (2, 5, 31, 31),
              (2, 7, 57, 57), (2, 8, 73, 73), (3, 2, 15, 35), (3, 3, 40, 130)]
    rows = []
    for m, q, npts, nlin in planes:
        def check(m=m, q=q, npts=npts, nlin=nlin):
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
        rows.append((f"geometry.counts.m{m}q{q}", f"plane m={m} q={q}", "trivial",
                     f"({npts},{nlin})", (), check))
    return rows


def _corrupted_copy(g):
    """A copy of `g` with broken field tables, for the negative control."""
    f = g.field
    mul_table = (f.mul_table[0], (f.mul_table[1][0], 0, *f.mul_table[1][2:]),
                 *f.mul_table[2:])
    lines = g.line_point_incidence
    return g._replace(field=f._replace(mul_table=mul_table),
                      line_point_incidence=(lines[0] ^ 1, *lines[1:]))


def _classification_rows() -> list[tuple]:
    data = {
        3: ("lemma3", {4}, 3, 2),
        4: ("lemma4", {6}, 6, 2),
        5: ("lemma5", {6}, 10, 3),
        7: ("lemma6", {6, 8}, 21, 4),
        8: ("lemma7", {6, 10}, 28, 4),
    }
    rows = []
    for q, (tag, sizes, passants, cap) in data.items():
        reads = (("arcs", q),)

        def sizes_check(recs, sizes=sizes):
            got = {a.size for a in recs}
            return str(sorted(got)), got == sizes
        rows.append((f"{tag}.sizes.q{q}", tag, "reference", str(sorted(sizes)),
                     reads, sizes_check))

        def passant_check(recs, big=max(sizes), passants=passants):
            got = {a.secant_profile[0] for a in recs if a.size == big}
            return str(sorted(got)), got == {passants}
        rows.append((f"{tag}.passants.q{q}", tag, "reference", str(passants),
                     reads, passant_check))

        def conc_check(recs, q=q, big=max(sizes), cap=cap):
            g = build_geometry(2, q)
            # arc points lie on no passant, so the peak over the points off
            # the arc is the most passants through any point
            worst = max(passant_analysis(g, a).peak_multiplicity
                        for a in recs if a.size == big)
            return str(worst), worst <= cap
        rows.append((f"{tag}.concurrency.q{q}", tag, "reference", f"<= {cap}",
                     reads, conc_check))

    for q, nclasses in ((7, 2), (8, 1)):
        def class_check(rep, nclasses=nclasses):
            # collineations preserve arc size, so each class is all 6-arcs or none
            got = sum(c.representative.size == 6 for c in rep.per_class)
            return str(got), got == nclasses
        rows.append((f"classes.sixarcs.q{q}", f"complete 6-arcs q={q}", "reference",
                     str(nclasses), (("mq", q),), class_check))
    return rows


def _blocking_rows() -> list[tuple]:
    def check(res, expect):
        return str(res.size), (res.size == expect if res.exact else None)
    return [(f"blocking.max.q{q}", f"blocking sets q={q}", "derived", str(expect),
             (("blocking", q),), functools.partial(check, expect=expect))
            for q, expect in ((2, None), (3, 7), (4, 14))]


def _mq_rows() -> list[tuple]:
    def check(rep, expect):
        certif = all(c.cover.optimal for c in rep.per_class)
        return str(rep.M_q), (rep.M_q == expect if certif else None)
    return [(f"M.q{q}", f"passant covers q={q}", "reference", str(expect),
             (("mq", q),), functools.partial(check, expect=expect))
            for q, (expect, _, _) in refdata.ARC_BOUND_OPTIMA.items()]


def _verdict(claims: list[Claim]) -> bool | None:
    """The verdict of a claim built from sub-claims: fail if any failed, else
    timeout if any timed out (an unproven incumbent bounds nothing), else pass."""
    statuses = {c.status for c in claims}
    return False if "fail" in statuses else None if "timeout" in statuses else True


def _appendix_rows() -> list[tuple]:
    def all_check(sub):
        bad = [c.claim_id for c in sub if c.status == "fail"]
        return f"{len(sub)} claims, failing: {bad or 'none'}", _verdict(sub)

    def mincover_check(sub):
        covers = [c for c in sub if c.claim_id.endswith(".mincover")]
        return str(min(int(c.computed) for c in covers)), _verdict(covers)

    rows = []
    for which, lemma in (("A", "lemma8"), ("B", "lemma9")):
        reads = (("appendix", which),)
        floor = refdata.APPENDICES[which]["min_cover_at_least"]
        rows.append((f"appendix{which}.all", f"appendix {which}", "reference",
                     "all claims reproduce", reads, all_check))
        rows.append((f"{lemma}.mincover", f"appendix {which}", "reference",
                     f">= {floor}", reads, mincover_check))
    return rows


def _poly_rows() -> list[tuple]:
    rows = []
    for q, (M, _, _) in refdata.ARC_BOUND_OPTIMA.items():
        def check(q=q, M=M):
            poly = bounds.theorem3_polynomial(q, M)
            expect = {e: Fraction(c) for e, c in refdata.POLY_EXPANSIONS[q].items()}
            ok = poly.monomials == expect
            return f"{len(poly.monomials)} monomials", ok
        rows.append((f"poly.q{q}.coeffs", f"arc-partition polynomial q={q}",
                     "reference", "exact coefficient match", (), check))
    return rows


def _optima_rows() -> list[tuple]:
    def check(optima, q):
        r = optima[q]
        return f"{r['value']:.10f}", r["value_ok"] and r["argmax_ok"]
    return [(f"optima.q{q}", f"optimized arc bound q={q}", "reference", printed,
             (("optima",),), functools.partial(check, q=q))
            for q, (_, printed, _) in refdata.ARC_BOUND_OPTIMA.items()]


def _table_rows() -> list[tuple]:
    def row_check(tables, name, q):
        r = tables[name][q]
        return f"thm1={r.thm1:.10f} cor1={r.cor1:.10f} alpha={r.alpha:.10f}", r.ok

    def larger_check(tables, q):
        r = tables["table2"][q]
        return r.larger, r.larger == "thm1"

    reads = (("tables",),)
    rows = [(f"{name}.q{q}", f"{name} row q={q}", "reference",
             f"thm1~{printed[0]} cor1~{printed[1]} alpha~{printed[2]}",
             reads, functools.partial(row_check, name=name, q=q))
            for name, table in (("table1", refdata.TABLE1_M2), ("table2", refdata.TABLE2_M3))
            for q, printed in table.items()]
    rows += [(f"table2.q{q}.larger", f"table2 row q={q}", "reference", "thm1",
              reads, functools.partial(larger_check, q=q))
             for q in refdata.TABLE2_GENERAL_WINS]
    return rows


def _closed_form_rows() -> list[tuple]:
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
    rows = []
    for cid, anchor, expect, fn in items:
        def check(expect=expect, fn=fn):
            got = fn()
            return str(got), got == expect
        rows.append((cid, anchor, "reference", str(expect), (), check))
    return rows


def _freeness_rows() -> list[tuple]:
    def check(res, want):
        return res.status, (None if res.status == "timeout" else res.status == want)

    M, _, rates = refdata.ARC_BOUND_OPTIMA[3]
    hosts = [
        # K_7^3: one part X of cap 3 takes every 3-set
        ("freeness.k7.contains", "embedding search", "trivial", "yes",
         PartitionSpec(7, 2, (7,), (3,), (7.0,)), 2),
        ("freeness.t2.q2n14", "blocking partition q=2", "derived", "no",
         make_partition(14, 2, 2, "t2", (1 / 12,), k=0), 2),
        ("freeness.t3.q3n16", "arc partition q=3", "derived", "no",
         make_partition(16, 3, 2, "t3", tuple(map(float, rates)), M=M), 3),
    ]
    return [(cid, anchor, source, want, (("embedding", spec, q),),
             functools.partial(check, want=want))
            for cid, anchor, source, want, spec, q in hosts]


def catalog_rows(corrupt_field: bool) -> list[tuple]:
    """Every claim row, in the order `run_all` runs them."""
    return (_geometry_rows(corrupt_field) + _closed_form_rows() + _poly_rows()
            + _optima_rows() + _table_rows() + _classification_rows()
            + _blocking_rows() + _mq_rows() + _appendix_rows() + _freeness_rows())


def _reader(deadline: float | None):
    """`read(name, *args)`: one run's memo of the results rows share.

    Each budgeted engine gets the time left before `deadline` (a
    `time.monotonic()` reading; None is no limit).  A result that raises is
    not memoized, so each row that reads it reports the error.
    """
    left = functools.partial(time_left, deadline)
    engines = {
        "tables": lambda: {name: {r.q: r for r in rows}
                           for name, rows in bounds.reproduce_tables().items()},
        "optima": lambda: {r["q"]: r for r in bounds.reproduce_arc_optima()},
        "arcs": lambda q: enumerate_complete_arcs(build_geometry(2, q)),
        "mq": lambda q: compute_Mq(build_geometry(2, q), budget=left(),
                                   arcs=read("arcs", q)),
        "appendix": lambda which: verify_appendix(which, budget=left()),
        "blocking": lambda q: max_blocking_set_size(build_geometry(2, q), budget=left()),
        "embedding": lambda spec, q: contains_subgeometry(
            build_hypergraph(spec), build_geometry(2, q), budget=left()),
    }

    @functools.cache
    def read(name, *args):
        return engines[name](*args)
    return read


def run_all(budget: float | None = 1800.0, corrupt_field: bool = False) -> list[Claim]:
    """Run every catalog row within the budget.

    A row that reads a shared result reports timeout, without running, once
    the budget is spent.  A shared result is charged to the `seconds` of the
    first row that reads it.
    """
    start = time.monotonic()
    read = _reader(None if budget is None else start + budget)

    def execute(claim_id, anchor, source, expected, reads, check) -> Claim:
        if reads and budget is not None and time.monotonic() - start >= budget:
            return Claim(claim_id, anchor, source, expected, "(not run)", "timeout", 0.0)
        t0 = time.perf_counter()
        try:
            computed, ok = check(*[read(*key) for key in reads])
            status = claim_status(ok)
        except Exception as exc:  # report, never crash the harness
            computed, status = f"error: {exc}", "fail"
        return Claim(claim_id, anchor, source, expected, str(computed), status,
                     time.perf_counter() - t0)

    return sorted((execute(*row) for row in catalog_rows(corrupt_field)),
                  key=lambda c: c.claim_id)
