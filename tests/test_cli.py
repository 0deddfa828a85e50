"""Command-line surface: formats, exit codes, determinism, negative control."""

import json
import re
from collections import Counter
from dataclasses import replace

from pgturan import bounds, covering, refdata, verify
from pgturan.cli import main
from pgturan.construction import build_hypergraph, make_partition
from pgturan.geometry import bits, build_geometry, point_of
from pgturan.structures import mask_of


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_version(capsys):
    code, out = run(capsys, "--version")
    assert code == 0
    assert out.startswith("pgturan ")


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["geometry"]) == 2          # missing required arguments
    capsys.readouterr()


def test_geometry_json_and_csv(capsys):
    code, out = run(capsys, "geometry", "--m", "2", "--q", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["points"] == 13 and data["lines"] == 13
    assert data["rows"][0]["coords"].startswith("(")

    code, out = run(capsys, "geometry", "--m", "2", "--q", "2",
                    "--list", "lines", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split(",")[0] == "id"
    assert len(lines) == 8
    # each line's point ids ascend, then its dual coordinates
    assert lines[1:3] == ["0,0 1 6,[0,1,0]", "1,0 2 4,[0,0,1]"]


def test_geometry_beyond_the_point_limit_exits_one(capsys):
    # PG(4,16) has 69,905 points and PG(30,2) 2^31 - 1: both are refused
    # before any table is built
    for m, q in (("4", "16"), ("30", "2")):
        assert main(["geometry", "--m", m, "--q", q]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: PG({m},{q}) has more points than the 1500 "
                                "geometry construction supports\n")


def test_arcs_classify(capsys):
    code, out = run(capsys, "arcs", "--q", "5", "--classify")
    assert code == 0
    data = json.loads(out)
    assert {a["size"] for a in data["complete_arcs"]} == {6}
    assert len(data["classes"]) == 1
    assert data["classes"][0]["count"] == len(data["complete_arcs"])


def test_arcs_beyond_the_enumeration_limit_exits_one(capsys):
    assert main(["arcs", "--q", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: q=9 is beyond the arc enumeration limit q <= 8\n"


def test_blocking_max(capsys):
    code, out = run(capsys, "blocking", "--m", "2", "--q", "3")
    assert code == 0
    data = json.loads(out)
    assert data["maximum"] == 7 and data["exact"]
    code, out = run(capsys, "blocking", "--m", "2", "--q", "2")
    data = json.loads(out)
    assert data["maximum"] is None and data["note"] == "no blocking set exists"


def test_mq_command(capsys):
    code, out = run(capsys, "mq", "--q", "3")
    assert code == 0
    data = json.loads(out)
    assert data["M"] == 2
    assert all(c["optimal"] for c in data["classes"])


def test_bounds_commands(capsys):
    code, out = run(capsys, "bounds", "--theorem", "1", "--m", "2", "--q", "3",
                    "--chi", "3")
    data = json.loads(out)
    assert code == 0
    assert data["lower"]["fraction"] == "55/96"
    assert data["chromatic_lower"]["fraction"] == "7/8"

    code, out = run(capsys, "bounds", "--theorem", "2", "--m", "2", "--q", "3")
    data = json.loads(out)
    assert data["t"] == 5
    assert abs(data["optimum"]["value"] - 0.69586) < 1e-4

    code, out = run(capsys, "bounds", "--theorem", "3", "--q", "3", "--M-value", "2")
    data = json.loads(out)
    assert abs(data["optimum"]["value"] - 0.7364719055) < 1e-8
    assert data["monomials"]["alpha^1*beta^2*gamma^1"] == "12"

    code, searched = run(capsys, "bounds", "--theorem", "3", "--q", "3")
    assert code == 0
    assert searched == out          # M(3) = 2 is found by the cover search


def test_bounds_binary_upper_for_q2(capsys):
    code, out = run(capsys, "bounds", "--theorem", "1", "--m", "3", "--q", "2")
    assert code == 0
    upper = json.loads(out)["binary_upper"]
    assert upper["fraction"] == "20/21"
    assert upper["fraction"] == str(refdata.CLOSED_FORMS["binary_upper_m3"])


def test_blocking_zero_budget_prints_a_timeout(capsys):
    code, out = run(capsys, "blocking", "--q", "5", "--budget", "0")
    assert code == 0
    assert json.loads(out) == {"m": 2, "q": 5, "exact": False, "explored_nodes": 1,
                               "maximum": None, "note": "timeout"}


def test_bounds_rejects_a_chromatic_number_of_zero(capsys):
    for chi in ("0", "1"):
        code = main(["bounds", "--theorem", "1", "--q", "3", "--chi", chi])
        captured = capsys.readouterr()
        assert code == 1, chi
        assert captured.out == ""
        assert captured.err == "error: chromatic number must be at least 2\n"


def test_bounds_rejects_an_order_that_is_not_a_prime_power(capsys):
    for argv in (["--theorem", "1"], ["--theorem", "2"], ["--theorem", "2", "--t", "3"],
                 ["--theorem", "3"], ["--theorem", "3", "--M-value", "2"]):
        code = main(["bounds", "--q", "6", *argv])
        captured = capsys.readouterr()
        assert code == 1, argv
        assert captured.out == ""
        assert captured.err == "error: 6 is not a prime power\n"


def test_tables_section4(capsys):
    code, out = run(capsys, "tables", "--which", "section4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [r["q"] for r in rows] == [3, 4, 5, 7, 8]
    assert all(r["match"] for r in rows)


def test_tables_markdown(capsys):
    code, out = run(capsys, "tables", "--which", "1", "--format", "md")
    assert code == 0
    assert out.startswith("| q |")
    assert out.count("\n") >= 12


def test_freeness_command(capsys):
    code, out = run(capsys, "freeness", "--scheme", "t3", "--q", "3", "--n", "16",
                    "--M", "2", "--rates", "0.5948588940,0.3216013121,0.0835397939")
    assert code == 0
    data = json.loads(out)
    assert data["contains_pattern"] == "no"
    assert data["count_exact"] == data["edges"]
    assert data["displayed_lower_bound"] <= data["count_exact"]


def test_freeness_prints_a_witness(capsys):
    # three z parts make room for a PG(2,3) copy
    code, out = run(capsys, "freeness", "--scheme", "t3", "--q", "3", "--n", "16",
                    "--M", "3", "--rates", "0.5,0.3,0.1")
    assert code == 0
    data = json.loads(out)
    assert (data["contains_pattern"], data["nodes"]) == ("yes", 180)
    image = {int(p): v for p, v in data["witness"].items()}
    assert sorted(image) == list(range(13))
    assert len(set(image.values())) == 13
    edges = set(build_hypergraph(make_partition(16, 3, 2, "t3", (0.5, 0.3, 0.1), M=3)).edges)
    assert all(mask_of(image[p] for p in bits(line)) in edges
               for line in build_geometry(2, 3).line_point_incidence)


def test_freeness_accepts_a_rate_just_below_zero(capsys):
    code, out = run(capsys, "freeness", "--scheme", "t3", "--q", "3", "--n", "10",
                    "--rates", "1.0000000000001,-1e-13,0", "--M", "2")
    assert code == 0
    data = json.loads(out)
    assert data["part_sizes"] == [10, 0, 0]
    assert data["displayed_lower_bound"] == data["count_exact"] == 0


def test_freeness_usage_error(capsys):
    code = main(["freeness", "--scheme", "t2", "--q", "2", "--n", "10",
                 "--rates", "0.05"])
    assert capsys.readouterr().err == "freeness --scheme t2 needs --k\n"
    assert code == 2
    code = main(["freeness", "--scheme", "t3", "--q", "2", "--n", "10",
                 "--rates", "0.5,0.4,0.1"])
    assert capsys.readouterr().err == "freeness --scheme t3 needs --M\n"
    assert code == 2


def test_freeness_names_the_rate_count(capsys):
    code = main(["freeness", "--scheme", "t3", "--q", "2", "--n", "10", "--M", "2",
                 "--rates", "0.5,0.5"])
    assert capsys.readouterr().err == "error: t3 takes 3 rates (alpha, beta, gamma), not 2\n"
    assert code == 1


def test_freeness_t3_rejects_a_solid(capsys):
    code = main(["freeness", "--scheme", "t3", "--q", "3", "--m", "3", "--n", "16",
                 "--M", "2", "--rates", "0.5948588940,0.3216013121,0.0835397939"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: t3 is a plane construction (m=2)\n"


def test_verify_appendices_exit_zero(capsys):
    assert run(capsys, "verify", "appendix-a")[0] == 0
    assert run(capsys, "verify", "appendix-b")[0] == 0


def test_verify_appendix_output_shape(capsys):
    code, out = run(capsys, "verify", "appendix-a")
    data = json.loads(out)
    assert data["failures"] == 0
    ids = {c["claim"] for c in data["claims"]}
    assert "appendixA.K1.mincover" in ids
    assert all(c["source"] in ("reference", "trivial", "derived")
               for c in data["claims"])


def test_verify_appendix_markdown(capsys):
    code, out = run(capsys, "verify", "appendix-a", "--format", "md")
    assert code == 0
    _, js = run(capsys, "verify", "appendix-a")
    claims = json.loads(js)["claims"]
    lines = out.splitlines()
    assert lines[:2] == ["| claim | expected | computed | status |", "|---|---|---|---|"]
    assert lines[2:] == [f"| {c['claim']} | {c['expected']} | {c['computed']} | "
                         f"{c['status']} |" for c in claims]


def test_verify_appendix_timings_add_seconds(capsys):
    _, plain = run(capsys, "verify", "appendix-b")
    code, timed = run(capsys, "verify", "appendix-b", "--timings")
    assert code == 0
    plain, timed = json.loads(plain), json.loads(timed)
    assert all(isinstance(row.pop("seconds"), float) for row in timed["claims"])
    assert timed == plain


def test_verify_appendix_markdown_timings_add_a_seconds_column(capsys):
    _, plain = run(capsys, "verify", "appendix-b", "--format", "md")
    code, timed = run(capsys, "verify", "appendix-b", "--format", "md", "--timings")
    assert code == 0
    plain, timed = plain.splitlines(), timed.splitlines()
    assert timed[:2] == [plain[0] + " seconds |", plain[1] + "---|"]
    assert len(timed) == len(plain)
    for row, timed_row in zip(plain[2:], timed[2:]):
        assert timed_row.startswith(row)
        assert re.fullmatch(r" \d+\.\d{1,3} \|", timed_row[len(row):])


def test_verify_appendix_passes_the_budget(monkeypatch, capsys):
    seen = []
    original = covering.verify_appendix

    def recorded(which, budget=None):
        seen.append((which, budget))
        return original(which, budget)
    monkeypatch.setattr(covering, "verify_appendix", recorded)
    assert run(capsys, "verify", "appendix-b", "--budget", "7.5")[0] == 0
    assert run(capsys, "verify", "appendix-a")[0] == 0
    assert seen == [("B", 7.5), ("A", 1800.0)]


def test_verify_appendix_rejects_corrupt_field(capsys):
    for target in ("appendix-a", "appendix-b"):
        code = main(["verify", target, "--corrupt-field"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"verify {target} does not take --corrupt-field\n"


def test_verify_zero_budget_times_out_searches(capsys):
    code, out = run(capsys, "verify", "all", "--budget", "0")
    data = json.loads(out)
    assert code == 0 and len(data["claims"]) == 75 and data["timeouts"] == 56
    # exactly the rows that read no shared result run; optimizer-backed rows
    # (optima, table rows) time out like the searches
    passed = [c["claim"] for c in data["claims"] if c["status"] == "pass"]
    assert Counter(cid.split(".")[0] for cid in passed) == {
        "geometry": 8, "closedform": 6, "poly": 5}
    assert all((c["status"], c["computed"]) == ("timeout", "(not run)")
               for c in data["claims"] if c["claim"] not in passed)


def test_verify_all_gives_every_search_the_time_left(monkeypatch):
    # each engine records the budget it gets, then runs out of time at once
    given = {}

    def recording(name, engine):
        def wrapper(*args, budget=None, **kwargs):
            given.setdefault(name, []).append(budget)
            return engine(*args, budget=0, **kwargs)
        monkeypatch.setattr(verify, name, wrapper)

    for name in ("max_blocking_set_size", "compute_Mq", "verify_appendix",
                 "contains_subgeometry"):
        recording(name, getattr(verify, name))
    claims = {c.claim_id: c for c in verify.run_all(budget=60)}
    assert sorted(given) == ["compute_Mq", "contains_subgeometry",
                             "max_blocking_set_size", "verify_appendix"]
    assert all(0 < b <= 60 for budgets in given.values() for b in budgets)
    assert len(given["compute_Mq"]) == 5 and len(given["contains_subgeometry"]) == 3
    timed_out = [cid for cid, c in claims.items() if c.status == "timeout"]
    assert timed_out == sorted(
        [f"blocking.max.q{q}" for q in (2, 3, 4)]
        + [f"M.q{q}" for q in refdata.ARC_BOUND_OPTIMA]
        + ["appendixA.all", "appendixB.all", "lemma8.mincover", "lemma9.mincover"]
        + ["freeness.k7.contains", "freeness.t2.q2n14", "freeness.t3.q3n16"])
    assert all(claims[cid].computed != "(not run)" for cid in timed_out)
    # the classification claims read only the classes of a timed-out M(q)
    assert claims["classes.sixarcs.q7"].status == "pass"


def test_verify_deterministic_output(capsys):
    _, out1 = run(capsys, "verify", "appendix-a")
    _, out2 = run(capsys, "verify", "appendix-a")
    assert out1 == out2
    _, t1 = run(capsys, "verify", "all", "--budget", "0")
    _, t2 = run(capsys, "verify", "all", "--budget", "0")
    assert t1 == t2


def test_corrupt_field_negative_control(capsys):
    code, out = run(capsys, "verify", "all", "--budget", "0", "--corrupt-field")
    data = json.loads(out)
    geom_claims = [c for c in data["claims"] if c["claim"].startswith("geometry.")]
    assert geom_claims and all(c["status"] == "fail" for c in geom_claims)
    assert code == 1


def test_claim_ids_unique_with_anchors(capsys):
    _, out = run(capsys, "verify", "all", "--budget", "0")
    data = json.loads(out)
    ids = [c["claim"] for c in data["claims"]]
    assert len(ids) == len(set(ids))
    assert all(c["anchor"] for c in data["claims"])


def test_verify_all_computes_shared_results_once(monkeypatch):
    calls = Counter()

    def counted(module, name, key=lambda *args: ()):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name, key(*args)] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(bounds, "reproduce_arc_optima")
    counted(bounds, "reproduce_tables")
    counted(verify, "compute_Mq", key=lambda g, *rest: g.q)
    counted(verify, "verify_appendix", key=lambda which, *rest: which)
    counted(covering, "m_of_arc", key=lambda g, arc, *rest: (g.q, arc.mask))
    counted(verify, "enumerate_complete_arcs", key=lambda g, *rest: g.q)
    # compute_Mq reuses the reader's arcs instead of enumerating them again
    counted(covering, "enumerate_complete_arcs", key=lambda g, *rest: ("covering", g.q))
    counted(verify, "max_blocking_set_size", key=lambda g, *rest: g.q)
    counted(verify, "contains_subgeometry", key=lambda h, g, *rest: (h.n, g.q))
    claims = verify.run_all(budget=None)
    assert len(claims) == 75
    assert [c.claim_id for c in claims if c.status != "pass"] == ["table2.q23"]
    mq_keys = {("compute_Mq", q) for q in refdata.ARC_BOUND_OPTIMA}
    appendix_keys = {("verify_appendix", "A"), ("verify_appendix", "B")}
    arcs_keys = {("enumerate_complete_arcs", q) for q in (3, 4, 5, 7, 8)}
    blocking_keys = {("max_blocking_set_size", q) for q in (2, 3, 4)}
    host_keys = {("contains_subgeometry", host) for host in ((7, 2), (14, 2), (16, 3))}
    assert {key for key in calls if key[0] != "m_of_arc"} == (
        {("reproduce_arc_optima", ()), ("reproduce_tables", ())} | mq_keys | appendix_keys
        | arcs_keys | blocking_keys | host_keys)
    for data in (refdata.APPENDIX_A, refdata.APPENDIX_B):
        g = build_geometry(2, data["q"])
        for case in data["cases"].values():
            arc = mask_of(point_of(g, s) for s in case["arc"])
            assert ("m_of_arc", (g.q, arc)) in calls
    assert all(n == 1 for n in calls.values()), calls


def test_simplex_with_one_part_is_an_error(capsys):
    code = main(["bounds", "--theorem", "3", "--q", "3", "--M-value", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: simplex constraint needs M >= 2\n"


def test_tables_optimize_only_the_requested_table(monkeypatch, capsys):
    calls = Counter()
    original = bounds.optimize_bound

    def counted(poly):
        calls[poly.provenance["q"]] += 1
        return original(poly)
    monkeypatch.setattr(bounds, "optimize_bound", counted)
    for which, table in (("2", refdata.TABLE2_M3), ("1", refdata.TABLE1_M2)):
        calls.clear()
        code, _ = run(capsys, "tables", "--which", which, "--format", "csv")
        assert code == 0
        assert sum(calls.values()) == len(table) == {"1": 11, "2": 6}[which]
        assert set(calls) == set(table)


def test_lemma_mincover_reads_the_appendix_floor(monkeypatch):
    # the lemma claim takes its floor and verdict from the appendix entry
    monkeypatch.setitem(refdata.APPENDIX_A, "min_cover_at_least", 7)
    claims = {c.claim_id: c for c in verify.run_all(budget=None)}
    lemma8 = claims["lemma8.mincover"]
    assert (lemma8.expected, lemma8.computed, lemma8.status) == (">= 7", "6", "fail")
    assert claims["appendixA.all"].status == "fail"
    assert claims["lemma9.mincover"].status == "pass"
    # the same verdict as the appendix's own cover claims
    covers = [(c.expected, c.status) for c in covering.verify_appendix("A")
              if c.claim_id.endswith(".mincover")]
    assert covers == [(">= 7", "fail")] * 2


def test_lemma_mincover_fails_on_a_proven_failure_beside_a_timeout(monkeypatch):
    # K1's cover is a proven failure and K2's search stops early: a proven
    # failure decides the lemma claim, as it decides appendixA.all
    monkeypatch.setitem(refdata.APPENDIX_A, "min_cover_at_least", 7)
    g = build_geometry(2, refdata.APPENDIX_A["q"])
    k2 = mask_of(point_of(g, s) for s in refdata.APPENDIX_A["cases"]["K2"]["arc"])
    m_of_arc = covering.m_of_arc

    def k2_unproven(g, arc, budget=None):
        res = m_of_arc(g, arc, budget)
        return replace(res, optimal=False) if arc.mask == k2 else res
    monkeypatch.setattr(covering, "m_of_arc", k2_unproven)
    covers = {c.claim_id: c.status for c in covering.verify_appendix("A")
              if c.claim_id.endswith(".mincover")}
    assert covers == {"appendixA.K1.mincover": "fail", "appendixA.K2.mincover": "timeout"}
    claims = {c.claim_id: c.status for c in verify.run_all(budget=None)}
    statuses = {cid: claims[cid] for cid in ("lemma8.mincover", "appendixA.all")}
    assert statuses == {"lemma8.mincover": "fail", "appendixA.all": "fail"}
