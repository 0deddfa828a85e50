"""Acceptance suite: each criterion asserted at its stated tolerance and
runtime cap, printing one pass/fail line per criterion.

Criterion 1 contains one cell that cannot reproduce as printed: the second
comparison table's q=23 pair corresponds to part count 670 while the formula
yields 668 (see the faithful value frozen in test_bounds).  The criterion is
asserted as stated and is expected to stay red on exactly that cell.
"""

import random
import time
from fractions import Fraction

import pytest

from pgturan import refdata
from pgturan.bounds import (
    chromatic_lower,
    corollary1_t,
    pg2_upper,
    reproduce_arc_optima,
    reproduce_tables,
    theorem1_lower,
    theorem3_polynomial,
)
from pgturan.construction import (
    build_hypergraph,
    complete_hypergraph,
    contains_subgeometry,
    count_edges_exact,
    make_partition,
)
from pgturan.covering import compute_Mq, verify_appendix
from pgturan.geometry import build_geometry
from pgturan.structures import classify_up_to_collineation, enumerate_complete_arcs, max_concurrency


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    return ok


def test_criterion_1_tables():
    t0 = time.perf_counter()
    tabs = reproduce_tables()
    elapsed = time.perf_counter() - t0
    bad = []
    for name, rows in tabs.items():
        for r in rows:
            if not r.thm1_ok:
                bad.append(f"{name}.q{r.q}.thm1={r.thm1:.10f} printed {r.printed[0]}")
            if not r.cor1_ok:
                bad.append(f"{name}.q{r.q}.cor1={r.cor1:.10f} printed {r.printed[1]} (t={r.t})")
            if not r.alpha_ok:
                bad.append(f"{name}.q{r.q}.alpha={r.alpha:.10f} printed {r.printed[2]}")
    bold = all(r.larger == "thm1" for r in tabs["table2"] if r.q in (17, 19))
    ok = not bad and bold and elapsed < 60
    report("1", ok, f"17 rows in {elapsed:.1f}s; mismatches: {bad or 'none'}")
    assert elapsed < 60
    assert bold
    assert not bad, (
        "table cells differing from the printed digits: " + "; ".join(bad)
        + " [q=23 is a known source defect: its printed pair matches part "
          "count 670, the formula gives 668]")


def test_criterion_2_optima():
    t0 = time.perf_counter()
    rows = reproduce_arc_optima()
    elapsed = time.perf_counter() - t0
    bad = [r for r in rows if not (r["value_ok"] and r["argmax_ok"])]
    ok = not bad and elapsed < 60
    report("2", ok, f"5 optima in {elapsed:.1f}s")
    assert elapsed < 60
    assert not bad, bad


def test_criterion_3_polynomial_identity():
    ok = True
    for q, (M, _, _) in refdata.ARC_BOUND_OPTIMA.items():
        poly = theorem3_polynomial(q, M)
        expect = {e: Fraction(c) for e, c in refdata.POLY_EXPANSIONS[q].items()}
        if poly.monomials != expect:
            ok = False
    spot = (theorem3_polynomial(7, 6).monomials[(1, 2, 5)] == 20160
            and theorem3_polynomial(8, 7).monomials[(1, 2, 6)] == 181440)
    report("3", ok and spot, "five expansions, exact rational equality")
    assert ok and spot


@pytest.mark.parametrize("q,expect,cap", [(3, 2, 10), (4, 3, 10), (5, 4, 10),
                                          (7, 6, 300), (8, 7, 900)])
def test_criterion_4_mq(q, expect, cap):
    t0 = time.perf_counter()
    rep = compute_Mq(build_geometry(2, q))
    elapsed = time.perf_counter() - t0
    certified = all(c.cover.optimal for c in rep.per_class)
    ok = rep.M_q == expect and certified and elapsed < cap
    report("4", ok, f"M({q})={rep.M_q} certified={certified} in {elapsed:.1f}s (cap {cap}s)")
    assert rep.M_q == expect
    assert certified
    assert elapsed < cap


def test_criterion_5_appendices():
    t0 = time.perf_counter()
    claims_a = verify_appendix("A")
    claims_b = verify_appendix("B")
    elapsed = time.perf_counter() - t0
    bad = [c.claim_id for c in claims_a + claims_b if c.status != "pass"]
    # structural completeness of the reproduction
    ids_a = {c.claim_id for c in claims_a}
    ids_b = {c.claim_id for c in claims_b}
    shape = (
        {"appendixA.K1.passants", "appendixA.K2.passants",
         "appendixA.K1.union.I4", "appendixA.K1.union.I5",
         "appendixA.K1.mincover", "appendixA.K2.mincover"} <= ids_a
        and sum("pencil" in i for i in ids_a) == 12
        and sum("pairint" in i for i in ids_a) == 18
        and {"appendixB.K.passants", "appendixB.K.union.I4", "appendixB.K.union.I5",
             "appendixB.K.union.I6", "appendixB.K.mincover"} <= ids_b
        and sum("pencil" in i for i in ids_b) == 7
        and sum("tripleint" in i for i in ids_b) == 4
    )
    ok = not bad and shape and elapsed < 30
    report("5", ok, f"{len(claims_a) + len(claims_b)} claims in {elapsed:.1f}s")
    assert elapsed < 30
    assert shape
    assert not bad, bad


def test_criterion_6_classification():
    expectations = {3: ({4}, 3, 2), 4: ({6}, 6, 2), 5: ({6}, 10, 3),
                    7: ({6, 8}, 21, 4), 8: ({6, 10}, 28, 4)}
    ok = True
    detail = []
    for q, (sizes, passants, cap) in expectations.items():
        g = build_geometry(2, q)
        arcs = enumerate_complete_arcs(g)
        got_sizes = {a.size for a in arcs}
        big = max(sizes)
        big_arcs = [a for a in arcs if a.size == big]
        got_pass = {a.secant_profile[0] for a in big_arcs}
        got_cap = max(max_concurrency(g, a.passants) for a in big_arcs)
        row_ok = got_sizes == sizes and got_pass == {passants} and got_cap <= cap
        ok = ok and row_ok
        detail.append(f"q{q}:{sorted(got_sizes)}/{got_pass}/{got_cap}")
    g7 = build_geometry(2, 7)
    cls7 = classify_up_to_collineation(
        g7, [a.mask for a in enumerate_complete_arcs(g7) if a.size == 6])
    g8 = build_geometry(2, 8)
    cls8 = classify_up_to_collineation(
        g8, [a.mask for a in enumerate_complete_arcs(g8) if a.size == 6])
    ok = ok and len(cls7) == 2 and len(cls8) == 1
    report("6", ok, " ".join(detail) + f" classes(q7)={len(cls7)} classes(q8)={len(cls8)}")
    assert ok


def test_criterion_7a_count_oracle():
    rng = random.Random(20260809)
    checked = 0
    for _ in range(55):
        q = rng.choice([2, 3])
        n = rng.randint(q + 2, 20 if q == 2 else 16)
        if rng.random() < 0.5:
            s = sum(q ** i for i in range(1, 3))
            k = rng.randint(0, s - 2)
            spec = make_partition(n, q, 2, "t2",
                                  (rng.uniform(0, 1 / (s - k)),), k=k)
        else:
            M = rng.randint(2, 5)
            a = rng.uniform(0.05, 0.9)
            b = rng.uniform(0, 1 - a)
            spec = make_partition(n, q, 2, "t3", (a, b, (1 - a - b) / (M - 1)), M=M)
        assert count_edges_exact(spec) == len(build_hypergraph(spec).edges)
        checked += 1
    ok = checked >= 50
    report("7a", ok, f"{checked} randomized specs, exact count == enumeration")
    assert ok


def test_criterion_7b_freeness():
    t0 = time.perf_counter()
    fano = build_geometry(2, 2)
    yes = contains_subgeometry(complete_hypergraph(7, 3), fano, budget=600)
    t2 = contains_subgeometry(
        build_hypergraph(make_partition(14, 2, 2, "t2", (1 / 12,), k=0)),
        fano, budget=600)
    t3 = contains_subgeometry(
        build_hypergraph(make_partition(
            16, 3, 2, "t3", (0.5948588940, 0.3216013121, 0.0835397939), M=2)),
        build_geometry(2, 3), budget=600)
    elapsed = time.perf_counter() - t0
    ok = (yes.status, t2.status, t3.status) == ("yes", "no", "no") and elapsed < 600
    report("7b", ok, f"yes/no/no in {elapsed:.1f}s (budget 600s each)")
    assert yes.status == "yes"
    assert t2.status == "no"
    assert t3.status == "no"
    assert elapsed < 1200


def test_criterion_8_closed_forms():
    checks = {
        "55/96": theorem1_lower(2, 3) == Fraction(55, 96),
        "7/8": chromatic_lower(3, 3) == Fraction(7, 8),
        "15/16": chromatic_lower(4, 3) == Fraction(15, 16),
        "20/21": pg2_upper(3) == Fraction(20, 21),
        "t(2,3)=5": corollary1_t(2, 3) == 5,
        "t(3,23)=668": corollary1_t(3, 23) == 668,
    }
    # the stated high-precision oracle for the last value
    from mpmath import mp, mpf, sqrt, ceil
    with mp.workdps(50):
        checks["t(3,23) oracle"] = int(ceil((1 + mpf(23)) * (23 + sqrt(mpf(23))))) == 668
    ok = all(checks.values())
    report("8", ok, ", ".join(k for k, v in checks.items() if v))
    assert ok, checks
