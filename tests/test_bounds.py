"""Closed forms, exact polynomial identities, and the optimizer's reproductions."""

import gc
import math
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt as mpsqrt, ceil as mpceil  # noqa: F401

from pgturan import bounds, refdata, verify
from pgturan.bounds import (
    BoundPolynomial,
    BoundsError,
    chromatic_lower,
    corollary1_t,
    match_alpha,
    match_value,
    optimize_bound,
    pg2_upper,
    reproduce_arc_optima,
    reproduce_tables,
    theorem1_lower,
    theorem1_upper,
    theorem2_polynomial,
    theorem3_polynomial,
    value_string,
)

from oracles import bernstein_reference, segment_evaluator, simplex_evaluator

# --- closed forms ---------------------------------------------------------------

def test_theorem1_lower_exact_values():
    assert theorem1_lower(2, 3) == Fraction(55, 96)
    assert abs(float(theorem1_lower(2, 8)) - 0.59397) < 1e-5
    assert abs(float(theorem1_lower(3, 19)) - 0.9740717446) < 1e-10


def test_theorem1_upper():
    assert theorem1_upper(2, 2) == 1 - Fraction(1, math.comb(4, 2))
    for m, q in ((2, 3), (3, 5)):
        assert theorem1_lower(m, q) < theorem1_upper(m, q)


def test_binary_upper_both_parities():
    assert pg2_upper(3) == Fraction(20, 21)
    assert pg2_upper(2) == 1 - Fraction(6, 3 * 9)


def test_chromatic_lower_values():
    assert chromatic_lower(3, 3) == Fraction(7, 8)
    assert chromatic_lower(4, 3) == Fraction(15, 16)
    with pytest.raises(BoundsError):
        chromatic_lower(3, 1)


def test_part_count_formula():
    assert corollary1_t(2, 3) == 5
    assert corollary1_t(2, 16) == 20
    assert corollary1_t(2, 2) == 4
    assert corollary1_t(3, 23) == 668
    with pytest.raises(BoundsError, match="need m >= 2"):
        corollary1_t(1, 3)
    with pytest.raises(BoundsError, match="need q >= 2"):
        corollary1_t(2, 1)
    for m, q in ((3, 1), (3, 4)):
        with pytest.raises(BoundsError, match="needs q >= 5 when m >= 3"):
            corollary1_t(m, q)


def test_part_count_against_high_precision_oracle():
    for m, q in ((2, 2), (2, 3), (2, 16), (2, 19), (2, 25),
                 (3, 17), (3, 23), (3, 29), (4, 9)):
        with mp.workdps(50):
            s = sum(mpf(q) ** i for i in range(m - 1))
            oracle = int(mpceil(s * (q + mpsqrt(q))))
        assert corollary1_t(m, q) == oracle


# --- polynomial construction ------------------------------------------------------

@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_arc_polynomial_matches_catalog_exactly(q):
    M = refdata.ARC_BOUND_OPTIMA[q][0]
    poly = theorem3_polynomial(q, M)
    assert poly.monomials == {e: Fraction(c) for e, c in refdata.POLY_EXPANSIONS[q].items()}


def test_arc_polynomial_spot_coefficients():
    p7 = theorem3_polynomial(7, 6).monomials
    assert p7[(1, 2, 5)] == 20160 and p7[(7, 1, 0)] == 8 and p7[(7, 0, 1)] == 40
    p8 = theorem3_polynomial(8, 7).monomials
    assert p8[(1, 2, 6)] == 181440 and p8[(8, 1, 0)] == 9 and p8[(8, 0, 1)] == 54


@pytest.mark.parametrize("q,t", [(2, 6), (3, 5), (8, 11)])
def test_blocking_polynomial_shape(q, t):
    poly = theorem2_polynomial(q, t)
    assert all(c > 0 for c in poly.monomials.values())
    assert all(sum(e) == q + 1 for e in poly.monomials)
    # alpha appears in every monomial, so the origin evaluates to zero
    assert poly.evaluate((Fraction(0), Fraction(1))) == 0


def test_blocking_polynomial_expansion_agrees_with_factored_form():
    # the expanded and factored forms agree identically at 100 random floats
    # and at 10 random rationals of the feasible segment
    rng = random.Random(7)
    for q, t in ((3, 5), (8, 11)):
        poly = theorem2_polynomial(q, t)
        form = poly.power_form()
        assert all(l == 0 for _, l in form)
        for i in range(100):
            a = Fraction(rng.uniform(0, 1 / t))
            expanded = sum(c * a ** d for (d, _), c in form.items())
            assert expanded == poly.evaluate((a, 1 - t * a))
            if i < 10:
                ar = Fraction(rng.randint(0, 10 ** 9), 10 ** 9 * t)
                exact_exp = sum(c * ar ** d for (d, _), c in form.items())
                assert exact_exp == poly.evaluate((ar, 1 - t * ar))


def test_simplex_power_form_agrees_with_factored_form():
    # the expansion in (alpha, beta) equals the polynomial at gamma =
    # (1 - alpha - beta)/(M - 1) on every catalog plane, at random rationals
    rng = random.Random(8)
    for q, (M, _, _) in refdata.ARC_BOUND_OPTIMA.items():
        poly = theorem3_polynomial(q, M)
        form = poly.power_form()
        assert all(c != 0 for c in form.values())
        for _ in range(20):
            a = Fraction(rng.randint(0, 10 ** 6), 10 ** 6)
            b = Fraction(rng.randint(0, 10 ** 6), 10 ** 6) * (1 - a)
            expanded = sum(c * a ** k * b ** l for (k, l), c in form.items())
            assert expanded == poly.evaluate((a, b, (1 - a - b) / (M - 1))), (q, a, b)


def _theorem2_reference(q, t):
    """The hand-coded Theorem 2 expansion the library used before deriving it
    from the part caps: (q+1)! * sum_{i=1..q} C(t, q+1-i) / i! * beta^i alpha^(q+1-i)."""
    fact = math.factorial(q + 1)
    mono = {}
    for i in range(1, q + 1):
        c = math.comb(t, q + 1 - i)
        if c == 0:
            continue
        mono[(q + 1 - i, i)] = Fraction(fact * c, math.factorial(i))
    return mono


def _theorem3_reference(q, M):
    """The hand-coded Theorem 3 expansion the library used before deriving it
    from the part caps: (q+1)! * sum_i sum_j C(M-1, q+1-i-j) / (i! j!)
    alpha^i beta^j gamma^(q+1-i-j) over 1 <= i <= q,
    max(0, q+2-M-i) <= j <= min(2, q+1-i)."""
    fact = math.factorial(q + 1)
    mono = {}
    for i in range(1, q + 1):
        for j in range(max(0, q + 2 - M - i), min(2, q + 1 - i) + 1):
            k = q + 1 - i - j
            c = math.comb(M - 1, k)
            if c == 0:
                continue
            mono[(i, j, k)] = Fraction(fact * c,
                                       math.factorial(i) * math.factorial(j))
    return mono


TABLE2_T = (381, 468, 668, 670, 780, 902, 1032)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29])
def test_polynomials_derived_from_caps_match_hand_coded_references(q):
    # same monomials, same coefficients, same insertion order (the float
    # evaluators sum in it), over t = 1..29, the table2 t values and M = 1..q+2
    for t in [*range(1, 30), *TABLE2_T]:
        poly = theorem2_polynomial(q, t)
        assert list(poly.monomials.items()) == list(_theorem2_reference(q, t).items()), t
        assert poly.variables == ("alpha", "beta") and poly.constraint == ("segment", t)
    for M in range(1, q + 3):
        poly = theorem3_polynomial(q, M)
        assert list(poly.monomials.items()) == list(_theorem3_reference(q, M).items()), M
        assert poly.variables == ("alpha", "beta", "gamma")
        assert poly.constraint == ("simplex", M)


def test_polynomials_homogeneous_positive():
    for q, (M, _, _) in refdata.ARC_BOUND_OPTIMA.items():
        poly = theorem3_polynomial(q, M)
        assert all(c > 0 for c in poly.monomials.values())
        assert all(sum(e) == q + 1 for e in poly.monomials)


# --- optimization -----------------------------------------------------------------

def test_arc_optima_reproduce():
    for row in reproduce_arc_optima():
        assert row["value_ok"], row
        assert row["argmax_ok"], row


def test_optimizer_never_below_catalog_point():
    # at every cataloged argmax the optimizer's value must weakly dominate
    from pgturan.bounds import _catalog_argmax
    for q, (M, _, printed_pt) in refdata.ARC_BOUND_OPTIMA.items():
        poly = theorem3_polynomial(q, M)
        res = optimize_bound(poly)
        pt = _catalog_argmax(M, printed_pt)
        val = poly.evaluate((Fraction(pt["alpha"]).limit_denominator(10 ** 12),
                             Fraction(pt["beta"]).limit_denominator(10 ** 12),
                             Fraction(pt["gamma"]).limit_denominator(10 ** 12)))
        assert res.value >= float(val) - 1e-12


def test_optimizer_beats_printed_alpha_on_tables():
    for name, rows in reproduce_tables().items():
        for r in rows:
            poly = theorem2_polynomial(r.q, r.t)
            ev = segment_evaluator(poly)
            assert r.cor1 >= ev(float(r.printed[2])) - 1e-12


def test_optimum_stage_trace():
    poly = theorem2_polynomial(3, 5)
    res = optimize_bound(poly)
    k, grid_val = bounds._segment_start(poly)
    assert abs(bounds._segment_tick(5, k) - res.argmax["alpha"]) < 1e-4
    assert res.value >= float(grid_val) - 1e-15
    assert abs(res.argmax["alpha"] - 0.0809) < 1e-4
    assert abs(res.value - 0.69586) < 1e-4


def test_constraint_satisfied_at_argmax():
    for q, (M, _, _) in refdata.ARC_BOUND_OPTIMA.items():
        res = optimize_bound(theorem3_polynomial(q, M))
        a = res.argmax
        assert abs(a["alpha"] + a["beta"] + (M - 1) * a["gamma"] - 1) < 1e-12


def test_line_functions_match_factored_evaluator_bit_for_bit():
    # the coordinate ascent reads the compiled line functions; the argmax
    # digits stay the same only if they return the factored form's floats
    polys = [theorem3_polynomial(q, M) for q, (M, _, _) in refdata.ARC_BOUND_OPTIMA.items()]
    polys += [theorem3_polynomial(q, M) for q in range(2, 12) for M in range(2, q + 3)]
    rng = random.Random(10)
    for poly in polys:
        ev = simplex_evaluator(poly)
        along_alpha, along_beta = poly.line_functions()
        for _ in range(8):
            a = rng.random()
            b = rng.random() * (1.0 - a)
            on_alpha, on_beta = along_alpha(b), along_beta(a)
            # both ends of each feasible segment, and points along it
            for x in (0.0, 1.0 - b, a, *(rng.random() * (1.0 - b) for _ in range(4))):
                assert on_alpha(x) == ev(x, b), (poly.provenance, x, b)
            for y in (0.0, 1.0 - a, b, *(rng.random() * (1.0 - a) for _ in range(4))):
                assert on_beta(y) == ev(a, y), (poly.provenance, a, y)
    # a segment compiles to one line, the factored form at beta = 1 - t*alpha
    for m, table in ((2, refdata.TABLE1_M2), (3, refdata.TABLE2_M3)):
        for q in table:
            t = corollary1_t(m, q)
            poly = theorem2_polynomial(q, t)
            ev = segment_evaluator(poly)
            line, = poly.line_functions()
            for x in (0.0, 1.0 / t, *(rng.random() / t for _ in range(50))):
                assert line(x) == ev(x), (poly.provenance, x)


def test_line_functions_die_with_their_last_reference():
    # the generated functions must not sit in a cycle with the namespace
    # that is their globals, which only a full garbage collection frees
    enabled = gc.isenabled()
    gc.disable()
    try:
        lines = theorem3_polynomial(3, 2).line_functions()
        along_alpha = weakref.ref(lines[0])
        del lines
        assert along_alpha() is None
    finally:
        if enabled:
            gc.enable()


def test_simplex_argmax_bits_pinned():
    # float.hex of the ascent's final (alpha, beta) on each catalog plane, as
    # the ascent over the factored form gave them
    pinned = {
        3: ("0x1.30915858c86bep-1", "0x1.4951daf36ba86p-2"),
        4: ("0x1.5030aa2c7a3c2p-1", "0x1.d697aa63b75eep-3"),
        5: ("0x1.66716cad68f0ep-1", "0x1.666ccf0bca2adp-3"),
        7: ("0x1.840a86bae527cp-1", "0x1.d40abe096537cp-4"),
        8: ("0x1.8e79deb0c527ap-1", "0x1.89752b5a97636p-4"),
    }
    got = {row["q"]: (row["argmax"]["alpha"].hex(), row["argmax"]["beta"].hex())
           for row in reproduce_arc_optima()}
    assert got == pinned


def test_simplex_ascent_runs_400_rounds(monkeypatch):
    calls = []
    golden_max = bounds._golden_max
    monkeypatch.setattr(bounds, "_golden_max", lambda *a: calls.append(a) or golden_max(*a))
    optimize_bound(theorem3_polynomial(3, 2))
    assert len(calls) == 2 * 400  # one line search in alpha, one in beta, per round


@pytest.mark.parametrize("poly", [theorem2_polynomial(3, 5), theorem3_polynomial(3, 2)],
                         ids=["segment", "simplex"])
def test_optimizer_leaves_global_precision_alone(poly):
    with mp.workdps(20):
        res = optimize_bound(poly)
        assert mp.dps == 20
    # value_str still carries 20 correct digits of the value at the argmax
    kind, n = poly.constraint
    a = Fraction(res.argmax["alpha"])
    if kind == "segment":
        point = (a, 1 - n * a)
    else:
        b = Fraction(res.argmax["beta"])
        point = (a, b, (1 - a - b) / (n - 1))
    assert abs(Fraction(res.value_str) - poly.evaluate(point)) < Fraction(1, 10 ** 19)


def _mp_value_string(poly, point) -> str:
    """Independent oracle: 50-digit mpmath evaluation, printed by mp.nstr."""
    with mp.workdps(50):
        pt = [mpf(x.numerator) / x.denominator for x in point]
        total = mpf(0)
        for expo, coeff in poly.monomials.items():
            term = mpf(coeff.numerator) / coeff.denominator
            for x, e in zip(pt, expo):
                term *= x ** e
            total += term
        return mp.nstr(total, 20)


def test_value_string_matches_mpmath_at_random_points():
    # mp.nstr switches to exponent notation below 1e-5; every reported optimum
    # lies in (1e-5, 1), so points valued below that are redrawn
    rng = random.Random(11)
    polys = [theorem2_polynomial(3, 5), theorem2_polynomial(8, 11),
             theorem2_polynomial(5, 44), theorem3_polynomial(3, 2),
             theorem3_polynomial(5, 4), theorem3_polynomial(7, 6),
             theorem3_polynomial(8, 7), theorem3_polynomial(9, 8)]
    for poly in polys:
        kind, n = poly.constraint
        checked = 0
        while checked < 25:
            a = Fraction(rng.uniform(0, 1 / n if kind == "segment" else 1))
            if kind == "segment":
                point = (a, 1 - n * a)
            else:
                b = Fraction(rng.uniform(0, float(1 - a)))
                point = (a, b, (1 - a - b) / (n - 1))
            value = poly.evaluate(point)
            if value <= Fraction(1, 10 ** 5):
                continue
            assert value_string(value) == _mp_value_string(poly, point), point
            checked += 1


def test_value_string_rounding():
    assert value_string(Fraction(123456789012345678905, 10 ** 21)) == "0.12345678901234567891"
    assert value_string(Fraction(123456789012345678904, 10 ** 21)) == "0.1234567890123456789"
    assert value_string(Fraction(1, 4)) == "0.25"
    assert value_string(Fraction(3, 10 ** 5)) == "0.00003"


def test_printed_optima_are_pinned():
    # the two optima `pgturan bounds` prints, as the numpy grid start gave them
    res = optimize_bound(theorem2_polynomial(5, 44))
    assert repr(res.argmax) == "{'alpha': 0.009897678613775282, 'beta': 0.5645021409938875}"
    assert repr(res.value) == "0.9006886579180063"
    assert res.value_str == "0.90068865791800638227"
    res = optimize_bound(theorem3_polynomial(8, 7))
    assert repr(res.argmax) == ("{'alpha': 0.7782735434326036, 'beta': 0.09605900702578016, "
                                "'gamma': 0.020944574923602712}")
    assert repr(res.value) == "0.7654160822716666"
    assert res.value_str == "0.76541608227166658325"


def test_optimizer_runs_without_mpmath():
    # the runtime is stdlib-only: neither test oracle may be imported
    code = ("import sys, pgturan, pgturan.cli\n"
            "from pgturan.bounds import optimize_bound, theorem2_polynomial, theorem3_polynomial\n"
            "optimize_bound(theorem2_polynomial(3, 5))\n"
            "optimize_bound(theorem3_polynomial(3, 2))\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# --- exact grid start against the float grid it replaces --------------------------

def _numpy_grid_segment(poly, samples=100_001):
    t = poly.constraint[1]
    alphas = np.linspace(0.0, 1.0 / t, samples)
    betas = 1.0 - t * alphas
    vals = np.zeros_like(alphas)
    for (i, j), c in poly.monomials.items():
        vals += float(c) * alphas ** i * betas ** j
    k = int(np.argmax(vals))
    return k, float(alphas[k])


def _numpy_grid_simplex(poly, step=1 / 2000):
    m_val = poly.constraint[1]
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    a, b = np.meshgrid(ticks, ticks, indexing="ij")
    keep = a + b <= 1.0 + 1e-12
    a, b = a[keep], b[keep]
    gmm = (1.0 - a - b) / (m_val - 1)
    vals = np.zeros_like(a)
    for (i, j, k), c in poly.monomials.items():
        vals += float(c) * a ** i * b ** j * gmm ** k
    best = int(np.argmax(vals))
    return float(a[best]), float(b[best])


def test_segment_grid_start_matches_numpy():
    cases = [(q, corollary1_t(m, q)) for table, m in ((refdata.TABLE1_M2, 2),
                                                      (refdata.TABLE2_M3, 3))
             for q in table]
    cases += [(23, 670), (3, 5), (2, 6), (8, 11), (3, 7), (5, 9)]
    for q, t in cases:
        poly = theorem2_polynomial(q, t)
        k, value = bounds._segment_start(poly)
        assert (k, bounds._segment_tick(t, k)) == _numpy_grid_segment(poly), (q, t)
        alpha = Fraction(bounds._segment_tick(t, k))
        assert value == poly.evaluate((alpha, 1 - t * alpha))


@pytest.mark.parametrize("q,M", [(q, M) for q, (M, _, _) in refdata.ARC_BOUND_OPTIMA.items()]
                         + [(9, 8)])
def test_simplex_grid_start_matches_numpy(q, M):
    poly = theorem3_polynomial(q, M)
    i, j, value = bounds._simplex_start(poly)
    a, b = bounds._simplex_tick(i), bounds._simplex_tick(j)
    assert (a, b) == _numpy_grid_simplex(poly)
    assert value == poly.evaluate((a, b, (1 - Fraction(a) - Fraction(b)) / (M - 1)))


def test_simplex_grid_start_breaks_ties_row_major():
    # symmetric in alpha and beta, so (i, j) and (j, i) tie exactly
    poly = BoundPolynomial(("alpha", "beta", "gamma"),
                           {(4, 1, 1): Fraction(1), (1, 4, 1): Fraction(1)}, ("simplex", 2), {})
    i, j, value = bounds._simplex_start(poly)
    assert i < j
    a, b = Fraction(bounds._simplex_tick(i)), Fraction(bounds._simplex_tick(j))
    assert poly.evaluate((b, a, 1 - a - b)) == value == poly.evaluate((a, b, 1 - a - b))


def test_halving_keeps_bernstein_coefficients_exact():
    # the end coefficients on every subinterval are the polynomial's values there
    form = theorem2_polynomial(5, 9).power_form()
    coeffs = [form.get((d, 0), Fraction(0)) for d in range(7)]   # degree q + 1
    n, depth = len(coeffs) - 1, 10
    bern = bounds._bernstein(coeffs)
    scale = math.lcm(*(b.denominator for b in bern)) << (n * depth)
    seq = [int(b * scale) for b in bern]
    lo, width = Fraction(0), Fraction(1)
    rng = random.Random(3)
    for _ in range(depth):
        left, right = bounds._halve(seq)
        width /= 2
        if rng.random() < 0.5:
            seq = left
        else:
            seq, lo = right, lo + width
        for x, b in ((lo, seq[0]), (lo + width, seq[-1])):
            assert Fraction(b, scale) == sum(c * x ** d for d, c in enumerate(coeffs))


def test_bernstein_matches_reference_on_catalog_inputs(monkeypatch):
    # every coefficient list one catalog pass feeds the optimizer's certificates
    seen = []
    exact = bounds._bernstein

    def record(coeffs):
        seen.append(list(coeffs))
        return exact(coeffs)

    monkeypatch.setattr(bounds, "_bernstein", record)
    verify.run_all(budget=None)
    assert len(seen) == 85
    for coeffs in seen:
        assert exact(coeffs) == bernstein_reference(coeffs)


def test_bernstein_matches_reference_on_random_lists():
    rng = random.Random(11)
    for _ in range(200):
        coeffs = [Fraction(rng.choice((0, rng.randint(-10**6, 10**6))), rng.randint(1, 10**4))
                  for _ in range(rng.randint(1, 31))]
        assert bounds._bernstein(coeffs) == bernstein_reference(coeffs)


# --- tables -----------------------------------------------------------------------

def test_all_bounds_inside_unit_interval():
    tabs = reproduce_tables()
    for rows in tabs.values():
        for r in rows:
            assert 0 < r.thm1 < 1 and 0 < r.cor1 < 1
            assert Fraction(0) < r.thm1_exact < Fraction(1)
            assert theorem1_lower(r.m, r.q) <= theorem1_upper(r.m, r.q)


def test_table1_reproduces():
    for r in reproduce_tables()["table1"]:
        assert r.ok, (r.q, r.thm1, r.cor1, r.alpha, r.printed)


def test_table2_reproduces_except_known_defect():
    """Every plane-of-order row of the second table matches at 10 digits except
    q=23, whose printed pair corresponds to part count 670 while the formula
    gives 668; the faithful value differs in the 5th digit.  The acceptance
    suite asserts the criterion as stated; here the defect is pinned down."""
    rows = {r.q: r for r in reproduce_tables()["table2"]}
    for q, r in rows.items():
        assert r.thm1_ok, (q, r.thm1, r.printed[0])
        if q == 23:
            assert not r.cor1_ok
            assert abs(r.cor1 - 0.9789768819) < 1e-9   # frozen faithful value
            res = optimize_bound(theorem2_polynomial(23, 670))
            assert abs(res.value - float(r.printed[1])) <= 1e-10
            assert abs(res.argmax["alpha"] - float(r.printed[2])) <= 1e-10
        else:
            assert r.cor1_ok and r.alpha_ok, (q, r.cor1, r.alpha, r.printed)


def test_table2_bold_column():
    rows = {r.q: r for r in reproduce_tables()["table2"]}
    for q in refdata.TABLE2_GENERAL_WINS:
        assert rows[q].larger == "thm1"
    for q in (23, 25, 27, 29):
        assert rows[q].larger == "cor1"


def test_match_helpers():
    assert match_value(0.69586, "0.69586", 4)
    assert match_value(0.69592, "0.69586", 4)      # inside the 4-digit slack
    assert not match_value(0.6970, "0.69586", 4)
    assert match_alpha(0.0002934, "0.0002926917") is False
    assert match_alpha(0.00029265, "0.0002926917")
