"""The benchmark's three workloads, each one pass of a closed loop, and their checks.

A workload has `prepare(seed)`, which makes the pass's inputs before any
timing starts, `run(inputs, ctx)`, the timed pass, and `check(outputs)`,
which returns (operations attempted, descriptions of failed operations).
Checks recompute what they can with code of their own rather than trusting
the library's verdicts.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"


def _load_golden(name: str):
    return json.loads((GOLDEN / name).read_text())


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# --- independent checks --------------------------------------------------------

def _is_complete_arc(g, mask: int) -> bool:
    """No line meets the set in 3 points, and every other point is on a secant."""
    if any((mask & lm).bit_count() > 2 for lm in g.line_point_incidence):
        return False
    pts = list(_bits(mask))
    on_secant = 0
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            on_secant |= g.line_point_incidence[g.pair_line[a][b]]
    return on_secant | mask == g.all_points_mask


def _cover_problem(g, arc_mask: int, size: int, optimal: bool, witness: int) -> str | None:
    """Why a claimed minimum passant cover is wrong, or None when it checks out."""
    passants = [lm for lm in g.line_point_incidence if not lm & arc_mask]
    if not optimal:
        return "search not exhaustive"
    if witness & arc_mask:
        return "cover uses an arc point"
    if witness.bit_count() != size:
        return f"cover has {witness.bit_count()} points, reported {size}"
    if not all(witness & lm for lm in passants):
        return "cover misses a passant"
    return None


# --- catalog ---------------------------------------------------------------------

class Catalog:
    """One `verify.run_all(budget=None)` pass over the whole claim catalog."""

    in_process = True

    def prepare(self, seed: int):
        return None  # the catalog is fixed: there is nothing for a seed to vary

    def run(self, inputs, ctx):
        from pgturan import verify
        claims = verify.run_all(budget=None)
        return verify.render_claims(claims, fmt="json", timings=False) + "\n"

    def check(self, rendered: str):
        golden_text = (GOLDEN / "verify_all.json").read_text()
        golden = {r["claim"]: r for r in json.loads(golden_text)["claims"]}
        if golden["table2.q23"]["status"] != "fail":
            raise RuntimeError("golden verify output must keep table2.q23 failing")
        got = {r["claim"]: r for r in json.loads(rendered)["claims"]}
        failures = [f"claim {cid}: {got.get(cid)} != {row}"
                    for cid, row in golden.items() if got.get(cid) != row]
        failures += [f"unexpected claim {cid}" for cid in got.keys() - golden.keys()]
        if rendered != golden_text and not failures:
            failures.append("rendered verify JSON differs from the golden bytes")
        return len(golden), failures


# --- search ----------------------------------------------------------------------

def _random_collineations(seed: int, count: int):
    """`count` seeded elements of PGammaL(3, 9): (Frobenius power, invertible matrix)."""
    from pgturan.gf import make_field
    f = make_field(3, 2)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = [[rng.randrange(9) for _ in range(3)] for _ in range(3)]
        (a, b, c), (d, e, g), (h, i, j) = m
        det = f.add(f.add(f.mul(a, f.sub(f.mul(e, j), f.mul(g, i))),
                          f.neg(f.mul(b, f.sub(f.mul(d, j), f.mul(g, h))))),
                    f.mul(c, f.sub(f.mul(d, i), f.mul(e, h))))
        if det:
            out.append((rng.randrange(2), tuple(map(tuple, m))))
    return out


class Search:
    """Exact combinatorial searches with no optimizer call.

    The seed only picks the collineations applied to the q=9 arcs before
    m(K) is computed: that changes branching order and node counts, never
    the answers.
    """

    in_process = True

    def __init__(self):
        self.golden = _load_golden("search.json")

    def prepare(self, seed: int):
        return _random_collineations(seed, self.golden["arcs"]["9"]["count"])

    def run(self, collineations, ctx):
        from pgturan.construction import (build_hypergraph, contains_subgeometry,
                                           make_partition)
        from pgturan.covering import compute_Mq, m_of_arc
        from pgturan.geometry import build_geometry
        from pgturan.structures import (apply_field_automorphism, apply_projectivity,
                                        enumerate_complete_arcs, max_blocking_set_size,
                                        secant_profile)
        out = {"arcs": {}, "mq": {}, "blocking": {}, "embed": {}}
        for q in (9, 11):
            out["arcs"][q] = enumerate_complete_arcs(build_geometry(2, q), force=True)
        for q in (7, 8):
            out["mq"][q] = compute_Mq(build_geometry(2, q))
        g9 = build_geometry(2, 9)
        moved = []
        for arc, (frob, mat) in zip(out["arcs"][9], collineations):
            mask = apply_projectivity(g9, mat, apply_field_automorphism(g9, frob, arc.mask))
            moved.append((mask, m_of_arc(g9, secant_profile(g9, mask))))
        out["moved"] = moved
        for q in (4, 5):
            out["blocking"][q] = max_blocking_set_size(build_geometry(2, q))
        for name, spec, pattern, generic in (
            ("t3", make_partition(25, 3, 2, "t3",
                                  (0.5948588940, 0.3216013121, 0.0835397939), M=2),
             (2, 3), False),
            ("t2", make_partition(11, 2, 2, "t2", (1 / 12,), k=0), (2, 2), True),
        ):
            h = build_hypergraph(spec)
            res = contains_subgeometry(h, build_geometry(*pattern), force_generic=generic)
            out["embed"][name] = (spec, h, res)
        return out

    def check(self, out):
        from pgturan.construction import count_edges_exact
        from pgturan.geometry import build_geometry
        from pgturan.structures import is_blocking_set
        gold = self.golden
        fails: list[str] = []
        attempted = 0

        for q, arcs in out["arcs"].items():
            attempted += 1
            g = build_geometry(2, q)
            want = gold["arcs"][str(q)]
            sizes = {str(k): v for k, v in sorted(Counter(a.size for a in arcs).items())}
            if len(arcs) != want["count"] or sizes != want["sizes"]:
                fails.append(f"arcs q={q}: {len(arcs)} arcs of sizes {sizes}, want {want}")
            elif len({a.mask for a in arcs}) != len(arcs):
                fails.append(f"arcs q={q}: duplicates")
            elif not all(_is_complete_arc(g, a.mask) for a in arcs):
                fails.append(f"arcs q={q}: a result is not a complete arc")

        for q, rep in out["mq"].items():
            attempted += 1
            g = build_geometry(2, q)
            problems = [_cover_problem(g, c.representative.mask, c.cover.minimum_size,
                                       c.cover.optimal, c.cover.witness)
                        for c in rep.per_class]
            got = [rep.M_q, len(rep.per_class), sum(c.class_size for c in rep.per_class)]
            want = gold["mq"][str(q)]
            if got != [want["M"], want["classes"], want["arcs"]]:
                fails.append(f"M(q) q={q}: got M, classes, arcs = {got}, want {want}")
            elif rep.M_q != min(c.cover.minimum_size for c in rep.per_class):
                fails.append(f"M(q) q={q}: M is not the minimum over classes")
            elif any(problems):
                fails.append(f"M(q) q={q}: {[p for p in problems if p]}")

        g9 = build_geometry(2, 9)
        if len(out["moved"]) != gold["arcs"]["9"]["count"]:
            fails.append(f"m(K) q=9: {len(out['moved'])} arcs searched")
        for mask, res in out["moved"]:
            attempted += 1
            if not _is_complete_arc(g9, mask):
                fails.append("m(K) q=9: a moved arc is not complete")
            elif res.minimum_size != gold["m_of_arc_q9"]:
                fails.append(f"m(K) q=9: got {res.minimum_size}")
            else:
                problem = _cover_problem(g9, mask, res.minimum_size, res.optimal,
                                         res.witness)
                if problem:
                    fails.append(f"m(K) q=9: {problem}")

        for q, res in out["blocking"].items():
            attempted += 1
            g = build_geometry(2, q)
            if res.size != gold["blocking_max"][str(q)] or not res.exact:
                fails.append(f"blocking q={q}: size {res.size}, exact {res.exact}")
            elif res.witness.bit_count() != res.size or not is_blocking_set(g, res.witness):
                fails.append(f"blocking q={q}: witness is not a blocking set of that size")

        for name, (spec, h, res) in out["embed"].items():
            attempted += 2  # the build and the embedding search
            want = gold["embed"][name]
            if len(h.edges) != want["edges"] or len(h.edges) != count_edges_exact(spec):
                fails.append(f"hypergraph {name}: {len(h.edges)} edges, want {want['edges']}")
            if res.status != want["status"]:
                fails.append(f"embedding {name}: {res.status}, want {want['status']}")
        return attempted, fails


# --- cli -------------------------------------------------------------------------

CLI_COMMANDS = (
    "geometry --m 2 --q 16",
    "geometry --m 3 --q 4",
    "arcs --q 7 --classify",
    "mq --q 7",
    "mq --q 8",
    "blocking --q 4",
    "blocking --q 5",
    "bounds --theorem 2 --m 3 --q 5",
    "bounds --theorem 3 --q 8 --M-value 7",
    "tables --which 1",
    "tables --which 2",
    "verify appendix-a",
    "verify appendix-b",
    "freeness --scheme t2 --q 2 --n 14 --k 0 --rates 0.0833333333333",
    "freeness --scheme t3 --q 3 --n 16 --M 2 --rates 0.5948588940,0.3216013121,0.0835397939",
)


class Cli:
    """`python -m pgturan.cli` commands, each in a fresh interpreter.

    The seed only shuffles the command order.
    """

    in_process = False

    def prepare(self, seed: int):
        commands = list(CLI_COMMANDS)
        random.Random(seed).shuffle(commands)
        return commands

    def run(self, commands, ctx):
        results = []
        for i, command in enumerate(commands):
            if ctx["trace"]:
                record = ctx["out_dir"] / f"cli-{ctx['tag']}-{i}.json"
                argv = [sys.executable, str(HERE / "cli_entry.py"), str(record)]
            else:
                argv = [sys.executable, "-m", "pgturan.cli"]
            proc = subprocess.run(argv + command.split(), cwd=ctx["root"],
                                  env=ctx["env"], capture_output=True, timeout=120)
            results.append((command, proc.returncode, proc.stdout))
            if ctx["trace"]:
                ctx["records"].append(json.loads(record.read_text()))
                record.unlink()
        return results

    def check(self, results):
        golden = _load_golden("cli.json")
        fails = []
        for command, code, stdout in results:
            want = golden[command]
            digest = hashlib.sha256(stdout).hexdigest()
            if code != want["exit"] or digest != want["sha256"]:
                fails.append(f"{command}: exit {code}, stdout sha256 {digest[:12]}")
        if len(results) != len(golden):
            fails.append(f"ran {len(results)} commands, golden has {len(golden)}")
        return len(golden), fails


WORKLOADS = {"catalog": Catalog, "search": Search, "cli": Cli}
