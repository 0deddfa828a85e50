"""Byte-for-byte guard on the benchmark's golden outputs, run in-process.

Each command of `perfbench/golden/cli.json` must exit with its recorded code
and print stdout with its recorded SHA-256, the rendered `verify all` JSON
must equal `perfbench/golden/verify_all.json`, and every value of
`perfbench/golden/search.json` is recomputed, with each witness checked here.
The tests only read those files.
"""

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

from pgturan import verify
from pgturan.cli import main
from pgturan.construction import (build_hypergraph, contains_subgeometry,
                                  count_edges_exact, make_partition)
from pgturan.covering import compute_Mq, m_of_arc
from pgturan.geometry import build_geometry
from pgturan.structures import (apply_field_automorphism, apply_projectivity,
                                enumerate_complete_arcs, max_blocking_set_size,
                                projectivity_from_frame, secant_profile)

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
CLI_GOLDEN = json.loads((GOLDEN / "cli.json").read_text())


@pytest.mark.parametrize("command", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    want = CLI_GOLDEN[command]
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (want["exit"], want["sha256"])


def test_verify_all_matches_golden():
    rendered = verify.render_claims(verify.run_all(budget=None)) + "\n"
    assert rendered == (GOLDEN / "verify_all.json").read_text(encoding="utf-8")


SEARCH_GOLDEN = json.loads((GOLDEN / "search.json").read_text())


def cover_is_valid(g, arc_mask, size, witness):
    """The witness avoids the arc, has `size` points and meets every passant."""
    passants = [lm for lm in g.line_point_incidence if not lm & arc_mask]
    return (not witness & arc_mask and witness.bit_count() == size
            and all(witness & lm for lm in passants))


def random_collineation(rng, g):
    """A Frobenius power and the projectivity sending the standard frame to
    four random points, no three on a line."""
    while True:
        frame = rng.sample(range(g.n_points), 4)
        mask = sum(1 << p for p in frame)
        if all((mask & lm).bit_count() <= 2 for lm in g.line_point_incidence):
            return rng.randrange(2), projectivity_from_frame(g, tuple(frame))


def test_search_matches_golden():
    gold = SEARCH_GOLDEN
    arcs = {}
    for q in (9, 11):
        arcs[q] = enumerate_complete_arcs(build_geometry(2, q), force=True)
        sizes = {str(k): v for k, v in sorted(Counter(a.size for a in arcs[q]).items())}
        assert {"count": len(arcs[q]), "sizes": sizes} == gold["arcs"][str(q)]

    for q in (7, 8):
        g = build_geometry(2, q)
        rep = compute_Mq(g)
        got = {"M": rep.M_q, "classes": len(rep.per_class),
               "arcs": sum(c.class_size for c in rep.per_class)}
        assert got == gold["mq"][str(q)]
        assert rep.M_q == min(c.cover.minimum_size for c in rep.per_class)
        assert all(c.cover.optimal and cover_is_valid(g, c.representative.mask,
                                                      c.cover.minimum_size, c.cover.witness)
                   for c in rep.per_class)

    # m(K) is a collineation invariant: every moved q=9 arc needs the same
    g9 = build_geometry(2, 9)
    rng = random.Random(30)
    for arc in arcs[9]:
        frob, mat = random_collineation(rng, g9)
        moved = secant_profile(
            g9, apply_projectivity(g9, mat, apply_field_automorphism(g9, frob, arc.mask)))
        res = m_of_arc(g9, moved)
        assert moved.is_complete and res.optimal
        assert res.minimum_size == gold["m_of_arc_q9"]
        assert cover_is_valid(g9, moved.mask, res.minimum_size, res.witness)

    for q in (4, 5):
        g = build_geometry(2, q)
        res = max_blocking_set_size(g)
        assert (res.size, res.exact) == (gold["blocking_max"][str(q)], True)
        # a blocking set meets every line and contains none
        assert res.witness.bit_count() == res.size
        assert all(0 < (res.witness & lm).bit_count() <= q for lm in g.line_point_incidence)

    hosts = {
        "t3": (make_partition(25, 3, 2, "t3", (0.5948588940, 0.3216013121, 0.0835397939),
                              M=2), (2, 3), False),
        "t2": (make_partition(11, 2, 2, "t2", (1 / 12,), k=0), (2, 2), True),
    }
    for name, (spec, pattern, generic) in hosts.items():
        h = build_hypergraph(spec)
        res = contains_subgeometry(h, build_geometry(*pattern), force_generic=generic)
        assert len(h.edges) == count_edges_exact(spec)
        assert {"edges": len(h.edges), "status": res.status} == gold["embed"][name]
