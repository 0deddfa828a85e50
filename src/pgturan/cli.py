"""pgturan command line: geometry dumps, arc/blocking/cover searches, bounds,
table reproduction, and the verification harness.

Exit codes: 0 success / all claims pass, 1 any claim failed, 2 usage error.

Each command imports the layers it runs when it starts, so a command never
pays to load the claim catalog or the optimizer it does not use.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__

USAGE_ERROR = 2


def _emit(obj, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2, ensure_ascii=False, default=str))
    elif obj:   # csv: a list of rows with the same keys
        cols = list(obj[0])
        print(",".join(cols))
        for r in obj:
            print(",".join(str(r[c]) for c in cols))


def _cmd_geometry(args) -> int:
    from .geometry import bits, build_geometry, format_coords
    g = build_geometry(args.m, args.q)
    if args.list == "lines":
        rows = []
        for i, line in enumerate(g.line_point_incidence):
            row = {"id": i, "point_ids": " ".join(map(str, bits(line)))}
            if g.m == 2:
                row["coords"] = format_coords(g, "line", i)
            rows.append(row)
    else:
        rows = [{"id": i, "coords": format_coords(g, "point", i)}
                for i in range(g.n_points)]
    if args.format == "json":
        _emit({"m": g.m, "q": g.q, "points": g.n_points, "lines": g.n_lines,
               "rows": rows}, "json")
    else:
        _emit(rows, "csv")
    return 0


def _cmd_arcs(args) -> int:
    from .geometry import bits, build_geometry, format_coords
    from .structures import classify_up_to_collineation, enumerate_complete_arcs
    g = build_geometry(2, args.q)
    arcs = enumerate_complete_arcs(g)
    out = {"q": args.q, "complete_arcs": [
        {"size": a.size,
         "points": [format_coords(g, "point", p) for p in bits(a.mask)],
         "passants": a.secant_profile[0],
         "tangents": a.secant_profile[1],
         "secants": a.secant_profile[2],
         "complete": a.is_complete}
        for a in arcs]}
    if args.classify:
        classes = classify_up_to_collineation(g, [a.mask for a in arcs])
        out["classes"] = [
            {"size": cls[0].bit_count(), "count": len(cls),
             "representative": [format_coords(g, "point", p) for p in bits(cls[0])]}
            for cls in classes]
    _emit(out, "json")
    return 0


def _cmd_blocking(args) -> int:
    from .geometry import bits, build_geometry, format_coords
    from .structures import max_blocking_set_size
    g = build_geometry(args.m, args.q)
    res = max_blocking_set_size(g, budget=args.budget)
    out = {"m": args.m, "q": args.q, "exact": res.exact,
           "explored_nodes": res.explored_nodes}
    if res.size is None and res.exact:
        out["maximum"] = None
        out["note"] = "no blocking set exists"
    elif not res.exact:
        out["maximum"] = None
        out["note"] = "timeout"
    else:
        out["maximum"] = res.size
        out["witness"] = [format_coords(g, "point", p) for p in bits(res.witness)]
    _emit(out, "json")
    return 0


def _cmd_mq(args) -> int:
    from .covering import compute_Mq
    from .geometry import bits, build_geometry, format_coords
    g = build_geometry(2, args.q)
    rep = compute_Mq(g)
    out = {
        "q": args.q,
        "M": rep.M_q,
        "max_over_classes": rep.max_over_classes,
        "classes": [
            {"arc_size": c.representative.size,
             "arcs_in_class": c.class_size,
             "m_of_arc": c.cover.minimum_size,
             "optimal": c.cover.optimal,
             "cover": [format_coords(g, "point", p) for p in bits(c.cover.witness)]}
            for c in rep.per_class],
        "witness_arc": [format_coords(g, "point", p) for p in bits(rep.witness_arc.mask)],
    }
    _emit(out, "json")
    return 0


def _cmd_freeness(args) -> int:
    rates = tuple(float(x) for x in args.rates.split(","))
    needed = "k" if args.scheme == "t2" else "M"
    if getattr(args, needed) is None:
        print(f"freeness --scheme {args.scheme} needs --{needed}", file=sys.stderr)
        return USAGE_ERROR
    from .construction import (build_hypergraph, contains_subgeometry,
                               count_edges_exact, displayed_lower_bound, make_partition)
    from .geometry import build_geometry
    spec = make_partition(args.n, args.q, args.m, args.scheme, rates, k=args.k, M=args.M)
    h = build_hypergraph(spec)
    pattern = build_geometry(args.m, args.q)
    res = contains_subgeometry(h, pattern, budget=args.budget)
    out = {
        "scheme": args.scheme, "q": args.q, "n": args.n,
        "part_sizes": list(spec.sizes),
        "edges": len(h.edges),
        "count_exact": count_edges_exact(spec),
        "displayed_lower_bound": displayed_lower_bound(spec),
        "contains_pattern": res.status,
        "nodes": res.nodes,
    }
    if res.witness is not None:
        out["witness"] = {str(k): v for k, v in sorted(res.witness.items())}
    _emit(out, "json")
    return 0


def _frac(x) -> dict:
    """An exact Fraction as its text and its float."""
    return {"fraction": f"{x.numerator}/{x.denominator}", "decimal": float(x)}


def _cmd_bounds(args) -> int:
    from .geometry import factor_prime_power
    factor_prime_power(args.q)  # no plane PG(m, q) exists otherwise
    from . import bounds
    if args.theorem == "1":
        out = {"m": args.m, "q": args.q,
               "lower": _frac(bounds.theorem1_lower(args.m, args.q)),
               "upper": _frac(bounds.theorem1_upper(args.m, args.q))}
        if args.q == 2:
            out["binary_upper"] = _frac(bounds.pg2_upper(args.m))
        if args.chi is not None:
            out["chromatic_lower"] = _frac(bounds.chromatic_lower(args.q, args.chi))
    else:
        if args.theorem == "2":
            t = args.t if args.t is not None else bounds.corollary1_t(args.m, args.q)
            poly = bounds.theorem2_polynomial(args.q, t)
            out = {"m": args.m, "q": args.q, "t": t}
        else:
            M = args.M_value
            if M is None:
                from .covering import compute_Mq
                from .geometry import build_geometry
                M = compute_Mq(build_geometry(2, args.q)).M_q
            poly = bounds.theorem3_polynomial(args.q, M)
            out = {"q": args.q, "M": M}
        res = bounds.optimize_bound(poly)
        out["monomials"] = {"*".join(f"{v}^{x}" for v, x in zip(poly.variables, e)): str(c)
                            for e, c in sorted(poly.monomials.items())}
        where = ({"alpha": res.argmax["alpha"]} if args.theorem == "2"
                 else {"argmax": res.argmax})
        out["optimum"] = {"value": res.value, **where, "value_50digit": res.value_str}
    _emit(out, "json")
    return 0


def _cmd_tables(args) -> int:
    from . import bounds
    if args.which in ("1", "2"):
        name = f"table{args.which}"
        rows = bounds.reproduce_tables((name,))[name]
        data = [{
            "q": r.q, "t": r.t,
            "thm1": f"{r.thm1:.10f}", "cor1": f"{r.cor1:.10f}",
            "alpha": f"{r.alpha:.10f}",
            "printed_thm1": r.printed[0], "printed_cor1": r.printed[1],
            "printed_alpha": r.printed[2],
            "larger": r.larger, "match": r.ok,
        } for r in rows]
    else:  # section4: the optimized arc bounds
        data = [{
            "q": r["q"], "M": r["M"],
            "value": f"{r['value']:.10f}",
            "alpha": f"{r['argmax']['alpha']:.10f}",
            "beta": f"{r['argmax']['beta']:.10f}",
            "gamma": f"{r['argmax']['gamma']:.10f}",
            "printed_value": r["printed_value"],
            "match": r["value_ok"] and r["argmax_ok"],
        } for r in bounds.reproduce_arc_optima()]
    if args.format == "md":
        cols = list(data[0])
        print("| " + " | ".join(cols) + " |")
        print("|" + "---|" * len(cols))
        for row in data:
            print("| " + " | ".join(str(row[c]) for c in cols) + " |")
    else:
        _emit(data, args.format)
    return 0


def _cmd_verify(args) -> int:
    if args.target != "all" and args.corrupt_field:
        print(f"verify {args.target} does not take --corrupt-field", file=sys.stderr)
        return USAGE_ERROR
    from .covering import render_claims, verify_appendix
    if args.target == "all":
        from .verify import run_all
        claims = run_all(budget=args.budget, corrupt_field=args.corrupt_field)
    else:
        claims = verify_appendix(args.target[-1].upper(), budget=args.budget)
    print(render_claims(claims, fmt=args.format, timings=args.timings))
    return 1 if any(c.status == "fail" for c in claims) else 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pgturan", description=__doc__)
    ap.add_argument("--version", action="version", version=f"pgturan {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geometry", help="emit indexed points/lines of a geometry")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--list", choices=("points", "lines"), default="points")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_geometry)

    p = sub.add_parser("arcs", help="enumerate frame-anchored complete arcs")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--classify", action="store_true")
    p.set_defaults(fn=_cmd_arcs)

    p = sub.add_parser("blocking", help="maximum blocking set search")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(fn=_cmd_blocking)

    p = sub.add_parser("mq", help="minimum passant covers and M(q)")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(fn=_cmd_mq)

    p = sub.add_parser("freeness", help="build a partition hypergraph and search it")
    p.add_argument("--scheme", choices=("t2", "t3"), required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--rates", type=str, required=True)
    p.add_argument("--budget", type=float, default=600.0)
    p.set_defaults(fn=_cmd_freeness)

    p = sub.add_parser("bounds", help="closed-form and optimized density bounds")
    p.add_argument("--theorem", choices=("1", "2", "3"), required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--M-value", dest="M_value", type=int, default=None)
    p.add_argument("--chi", type=int, default=None)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("tables", help="reproduce the comparison tables")
    p.add_argument("--which", choices=("1", "2", "section4"), required=True)
    p.add_argument("--format", choices=("md", "csv", "json"), default="md")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("verify", help="run the reproduction claim catalog")
    p.add_argument("target", choices=("all", "appendix-a", "appendix-b"))
    p.add_argument("--budget", type=float, default=1800.0)
    p.add_argument("--format", choices=("json", "md"), default="json")
    p.add_argument("--timings", action="store_true",
                   help="include per-claim runtimes (breaks byte determinism)")
    p.add_argument("--corrupt-field", action="store_true",
                   help="negative control: corrupt the field tables first (verify all only)")
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
