"""Closed-form density bounds and the partition lower-bound polynomials.

Polynomial coefficients are exact rationals, and so is all arithmetic that
decides where the optimizer starts.  The optimizer first finds, exactly, the
first maximum of the polynomial over a fixed grid of floats.  On a segment it
binary-searches the samples, which is sound because the polynomial's
Bernstein coefficients rise and then fall, so it is unimodal there.  On a
simplex it runs a best-first Bernstein branch and bound over boxes of grid
indices.  Golden-section steps then refine the grid point in floats.  The
reported value is the exact rational value of the polynomial at the refined
point, so it carries well past the 10 digits the comparisons need.  Only the
standard library is used.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

from .refdata import TABLE1_M2, TABLE2_M3, ARC_BOUND_OPTIMA

GOLDEN = (math.sqrt(5) - 1) / 2


class BoundsError(ValueError):
    pass


@dataclass
class BoundPolynomial:
    """Homogeneous degree-(q+1) polynomial with positive rational coefficients.

    `constraint` pins the affine feasible set:
      - ("segment", t):  variables (alpha, beta), beta = 1 - t*alpha, 0 <= alpha <= 1/t
      - ("simplex", M):  variables (alpha, beta, gamma), alpha + beta + (M-1)*gamma = 1
    """
    variables: tuple[str, ...]
    monomials: dict[tuple[int, ...], Fraction]
    constraint: tuple[str, int]
    provenance: dict

    def evaluate(self, point) -> Fraction:
        """Exact evaluation at a rational point (tuple matching `variables`)."""
        total = Fraction(0)
        fr = [Fraction(x) for x in point]
        for expo, coeff in self.monomials.items():
            term = coeff
            for x, e in zip(fr, expo):
                term *= x ** e
            total += term
        return total

    def univariate(self) -> list[Fraction]:
        """Expansion in alpha alone after substituting the segment constraint.

        Index d is the coefficient of alpha^d.  Only defined for segment
        constraints.
        """
        if self.constraint[0] != "segment":
            raise BoundsError("univariate form needs the segment constraint")
        t = self.constraint[1]
        out = [Fraction(0)] * (max(sum(e) for e in self.monomials) + 1)
        for (i, j), coeff in self.monomials.items():
            # coeff * alpha^i * (1 - t*alpha)^j
            for r in range(j + 1):
                out[i + r] += coeff * math.comb(j, r) * Fraction(-t) ** r
        return out

    def factored_evaluator(self):
        """Float evaluator of the unexpanded form, for cross-checking."""
        if self.constraint[0] == "segment":
            t = self.constraint[1]
            terms = [(float(c), i, j) for (i, j), c in self.monomials.items()]

            def ev(alpha: float) -> float:
                beta = 1.0 - t * alpha
                return sum(c * alpha ** i * beta ** j for c, i, j in terms)

            return ev
        m_val = self.constraint[1]
        terms3 = [(float(c), e) for e, c in self.monomials.items()]

        def ev3(alpha: float, beta: float) -> float:
            gamma = (1.0 - alpha - beta) / (m_val - 1)
            return sum(c * alpha ** e[0] * beta ** e[1] * gamma ** e[2]
                       for c, e in terms3)

        return ev3


@dataclass
class OptResult:
    argmax: dict[str, float]
    value: float
    value_str: str           # exact value at the argmax, 20 significant digits


def value_string(x: Fraction) -> str:
    """`x` rounded half up to 20 significant digits, trailing zeros stripped,
    in fixed notation."""
    ctx = Context(prec=20, rounding=ROUND_HALF_UP)
    d = ctx.divide(Decimal(x.numerator), Decimal(x.denominator))
    return format(d.normalize(ctx), "f")


def _sum_q_powers(m: int, q: int) -> int:
    return sum(q ** i for i in range(1, m + 1))


def theorem1_lower(m: int, q: int) -> Fraction:
    """General lower bound: prod_{i=1..q} (1 - i / sum_{j=1..m} q^j)."""
    if m < 2 or q < 2:
        raise BoundsError("need m >= 2 and q >= 2")
    s = _sum_q_powers(m, q)
    v = Fraction(1)
    for i in range(1, q + 1):
        v *= 1 - Fraction(i, s)
    return v


def theorem1_upper(m: int, q: int) -> Fraction:
    """General upper bound: 1 - 1 / C(q^m, q)."""
    return 1 - Fraction(1, math.comb(q ** m, q))


def pg2_upper(m: int) -> Fraction:
    """Improved upper bound for the binary geometries, split by parity of m."""
    if m % 2 == 1:
        return 1 - Fraction(3, 2 ** (2 * m) - 1)
    return 1 - Fraction(6, (2 ** m - 1) * (2 ** (m + 1) + 1))


def chromatic_lower(q: int, chi: int) -> Fraction:
    """Lower bound 1 - 1/(chi-1)^q from a chromatic-number argument."""
    if chi < 2:
        raise BoundsError("chromatic number must be at least 2")
    return 1 - Fraction(1, (chi - 1) ** q)


def corollary1_t(m: int, q: int) -> int:
    """Part count t = ceil(sum_{i=0}^{m-2} q^i * (q + sqrt(q))).

    For m = 2 this reduces to q + ceil(sqrt(q)).  The ceiling is computed with
    exact integer square roots, so no precision can be lost near integers.
    """
    if m == 2:
        if q < 2:
            raise BoundsError("need q >= 2")
        r = math.isqrt(q)
        return q + (r if r * r == q else r + 1)
    if m < 2:
        raise BoundsError("need m >= 2")
    if q < 5:
        raise BoundsError("the blocking-set size bound needs q >= 5 when m >= 3")
    s = sum(q ** i for i in range(m - 1))
    # ceil(s*q + s*sqrt(q)) = s*q + ceil(sqrt(s^2 * q))
    n = s * s * q
    r = math.isqrt(n)
    return s * q + (r if r * r == n else r + 1)


def theorem2_polynomial(q: int, t: int) -> BoundPolynomial:
    """Density polynomial of the blocking-set partition, in (alpha, beta).

    (q+1)! * sum_{i=1..q} C(t, q+1-i) / i! * beta^i alpha^(q+1-i),
    with beta = 1 - t*alpha on the feasible segment.
    """
    if t < 1:
        raise BoundsError("need t >= 1")
    fact = math.factorial(q + 1)
    mono: dict[tuple[int, ...], Fraction] = {}
    for i in range(1, q + 1):
        c = math.comb(t, q + 1 - i)
        if c == 0:
            continue
        mono[(q + 1 - i, i)] = Fraction(fact * c, math.factorial(i))
    return BoundPolynomial(
        variables=("alpha", "beta"),
        monomials=mono,
        constraint=("segment", t),
        provenance={"family": "blocking-partition", "q": q, "t": t},
    )


def theorem3_polynomial(q: int, M: int) -> BoundPolynomial:
    """Density polynomial of the arc partition, in (alpha, beta, gamma).

    (q+1)! * sum_i sum_j C(M-1, q+1-i-j) / (i! j!) alpha^i beta^j gamma^(q+1-i-j)
    over 1 <= i <= q, max(0, q+2-M-i) <= j <= min(2, q+1-i), with the simplex
    constraint alpha + beta + (M-1) gamma = 1.
    """
    if M < 1:
        raise BoundsError("need M >= 1")
    fact = math.factorial(q + 1)
    mono: dict[tuple[int, ...], Fraction] = {}
    for i in range(1, q + 1):
        for j in range(max(0, q + 2 - M - i), min(2, q + 1 - i) + 1):
            k = q + 1 - i - j
            c = math.comb(M - 1, k)
            if c == 0:
                continue
            mono[(i, j, k)] = Fraction(fact * c,
                                       math.factorial(i) * math.factorial(j))
    return BoundPolynomial(
        variables=("alpha", "beta", "gamma"),
        monomials=mono,
        constraint=("simplex", M),
        provenance={"family": "arc-partition", "q": q, "M": M},
    )


def _result(poly: BoundPolynomial, point, argmax: dict[str, float]) -> OptResult:
    """Report the exact value of `poly` at the rational `point`."""
    value = poly.evaluate(point)
    return OptResult(argmax=argmax, value=float(value),
                     value_str=value_string(value))


def _golden_max(f, lo: float, hi: float, tol: float = 1e-13):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return (a + b) / 2


SEGMENT_SAMPLES = 100_001   # evenly spaced alphas from 0 to 1/t, both ends included
SIMPLEX_STEPS = 2000        # alpha and beta run over i * (1/2000), i = 0..2000
_ROOT_WIDTH = 2048          # power-of-two index box around the simplex ticks


def _segment_tick(t: int, k: int) -> float:
    """The k-th segment sample, as the float `linspace(0, 1/t, SEGMENT_SAMPLES)` gives."""
    if k == SEGMENT_SAMPLES - 1:
        return 1.0 / t
    return k * ((1.0 / t) / (SEGMENT_SAMPLES - 1))


def _simplex_tick(i: int) -> float:
    """The i-th simplex tick, as the float `arange(0, 1 + s/2, s)` gives, s = 1/2000."""
    return i * (1 / SIMPLEX_STEPS)


def _bernstein(coeffs: list[Fraction]) -> list[Fraction]:
    """Bernstein coefficients on [0, 1] of sum_d coeffs[d] x^d, of degree len - 1."""
    n = len(coeffs) - 1
    return [sum(Fraction(math.comb(r, d), math.comb(n, d)) * coeffs[d]
                for d in range(r + 1)) for r in range(n + 1)]


def _rises_then_falls(seq) -> bool:
    k = 0
    while k + 1 < len(seq) and seq[k] <= seq[k + 1]:
        k += 1
    return all(x >= y for x, y in zip(seq[k:], seq[k + 1:]))


def _halve(seq):
    """Bernstein coefficients of both halves of an interval (de Casteljau at 1/2).

    Integer coefficients stay exact while each is divisible by 2^(len(seq) - 1).
    """
    left, right = [seq[0]], [seq[-1]]
    while len(seq) > 1:
        seq = [(x + y) >> 1 for x, y in zip(seq, seq[1:])]
        left.append(seq[0])
        right.append(seq[-1])
    return left, right[::-1]


def _halve_beta(rows):
    halves = [_halve(r) for r in rows]
    return [h[0] for h in halves], [h[1] for h in halves]


def _halve_alpha(rows):
    lo, hi = _halve_beta(list(zip(*rows)))
    return list(zip(*lo)), list(zip(*hi))


class _DyadicPoly:
    """Exact values of sum c_kl x^k y^l at floats that are multiples of 2^-e.

    `at(x, y)` returns the value times `scale`, an integer, so values compare
    as ints.
    """

    def __init__(self, coeffs: dict[tuple[int, int], Fraction], e: int):
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        n = max(k + l for k, l in coeffs)
        self.e = e
        self.scale = den << (e * n)
        # rows[k][l] = den * c_kl * 2^(e(n-k-l)), so that
        # scale * value = sum_k X^k sum_l rows[k][l] Y^l with X = x 2^e, Y = y 2^e
        self.rows = [[int(coeffs.get((k, l), 0) * den) << (e * (n - k - l))
                      for l in range(n - k + 1)] for k in range(n + 1)]

    def at(self, x: float, y: float) -> int:
        big_x, big_y = int(math.ldexp(x, self.e)), int(math.ldexp(y, self.e))
        total = 0
        for row in reversed(self.rows):
            acc = 0
            for c in reversed(row):
                acc = acc * big_y + c
            total = total * big_x + acc
        return total


def _dyadic_exponent(x: float) -> int:
    """e such that every float >= x > 0 is an integer multiple of 2^-e."""
    return 53 - math.frexp(x)[1]


def _segment_start(poly: BoundPolynomial) -> tuple[int, Fraction]:
    """First index of the largest exact value over the segment samples, and that value.

    In s = t*alpha the samples before the last lie in [0, 1).  If the Bernstein
    coefficients of the polynomial on s in [0, 1] rise and then fall, every
    horizontal line crosses it at most twice there (variation diminishing),
    so the samples rise strictly, then fall strictly, with at most one tie at
    the top: a binary search for the first k with value(k) >= value(k+1)
    finds the first maximum.  The last sample, 1.0/t, may round past 1/t and
    is compared on its own.
    """
    t = poly.constraint[1]
    coeffs = poly.univariate()
    if not _rises_then_falls(_bernstein([c / t ** d for d, c in enumerate(coeffs)])):
        raise BoundsError("segment polynomial is not certified unimodal")
    ev = _DyadicPoly({(d, 0): c for d, c in enumerate(coeffs) if c},
                     _dyadic_exponent(_segment_tick(t, 1)))

    @functools.cache
    def value(k: int) -> int:
        return ev.at(_segment_tick(t, k), 0.0)

    lo, hi = 0, SEGMENT_SAMPLES - 2
    while lo < hi:
        mid = (lo + hi) // 2
        if value(mid) >= value(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    if value(SEGMENT_SAMPLES - 1) > value(lo):
        lo = SEGMENT_SAMPLES - 1
    return lo, Fraction(value(lo), ev.scale)


def _simplex_in_alpha_beta(poly: BoundPolynomial) -> dict[tuple[int, int], Fraction]:
    """Expansion in (alpha, beta) after gamma = (1 - alpha - beta)/(M - 1)."""
    m_val = poly.constraint[1]
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j, k), c in poly.monomials.items():
        c = c / (m_val - 1) ** k
        for a in range(k + 1):
            for b in range(k - a + 1):
                term = c * math.comb(k, a) * math.comb(k - a, b) * (-1) ** (a + b)
                out[i + a, j + b] = out.get((i + a, j + b), 0) + term
    return {e: c for e, c in out.items() if c}


def _simplex_start(poly: BoundPolynomial) -> tuple[int, int, Fraction]:
    """First (row-major) tick pair (i, j), i + j <= 2000, of the largest exact value.

    Best-first branch and bound over index boxes [i0, i0+w] x [j0, j0+w] in
    u = alpha/s, v = beta/s with s the float 1/2000, starting from w = 2048.
    A box's bound is the largest tensor Bernstein coefficient of the
    polynomial on it; halving a box is a de Casteljau step in each variable.
    A float tick i*s is within i*2^-53 of u = i, so a box that contains it
    also holds index i.  The search stops at the first box whose bound lies
    below the best tick value found, and evaluates every tick of boxes of
    width 2.
    """
    coeffs = _simplex_in_alpha_beta(poly)
    deg_a = max(k for k, _ in coeffs)
    deg_b = max(l for _, l in coeffs)
    ev = _DyadicPoly(coeffs, _dyadic_exponent(_simplex_tick(1)))
    # power coefficients in x = u/2048, y = v/2048 on the unit square
    c = Fraction(_ROOT_WIDTH * _simplex_tick(1))
    power = [[coeffs.get((k, l), 0) * c ** (k + l) for l in range(deg_b + 1)]
             for k in range(deg_a + 1)]
    bern = [_bernstein(list(col)) for col in zip(*power)]
    bern = [_bernstein(list(row)) for row in zip(*bern)]
    # one integer scale for bounds and tick values; the factor 2^(10(deg_a+deg_b))
    # keeps ten halvings in each variable (2048 -> 2) exact
    depth = (_ROOT_WIDTH // 2).bit_length() - 1
    scale = math.lcm(math.lcm(*(b.denominator for row in bern for b in row))
                     << (depth * (deg_a + deg_b)), ev.scale)
    root = [[int(b * scale) for b in row] for row in bern]
    to_scale = scale // ev.scale

    best = None   # (value, -i, -j): max() then prefers the first pair in row-major order
    heap = [(-max(map(max, root)), 0, 0, 0, _ROOT_WIDTH, root)]
    pushed = 1
    while heap:
        neg_bound, _, i0, j0, w, box = heapq.heappop(heap)
        if best is not None and -neg_bound < best[0]:
            break
        if w == 2:
            for i in range(i0, min(i0 + w, SIMPLEX_STEPS - j0) + 1):
                for j in range(j0, min(j0 + w, SIMPLEX_STEPS - i) + 1):
                    cand = (ev.at(_simplex_tick(i), _simplex_tick(j)) * to_scale, -i, -j)
                    if best is None or cand > best:
                        best = cand
            continue
        h = w // 2
        for di, half in zip((0, h), _halve_alpha(box)):
            for dj, quarter in zip((0, h), _halve_beta(half)):
                if i0 + di + j0 + dj <= SIMPLEX_STEPS:
                    heapq.heappush(heap, (-max(map(max, quarter)), pushed,
                                          i0 + di, j0 + dj, h, quarter))
                    pushed += 1
    value, i, j = best
    return -i, -j, Fraction(value, scale)


def _optimize_segment(poly: BoundPolynomial) -> OptResult:
    t = poly.constraint[1]
    k, _ = _segment_start(poly)
    ev = poly.factored_evaluator()
    lo = _segment_tick(t, max(k - 1, 0))
    hi = _segment_tick(t, min(k + 1, SEGMENT_SAMPLES - 1))
    x = _golden_max(ev, lo, hi)
    return _result(poly, (Fraction(x), 1 - t * Fraction(x)),
                   {"alpha": x, "beta": 1 - t * x})


def _optimize_simplex(poly: BoundPolynomial) -> OptResult:
    m_val = poly.constraint[1]
    i, j, _ = _simplex_start(poly)
    ev = poly.factored_evaluator()
    a, b = _simplex_tick(i), _simplex_tick(j)
    # coordinate-wise golden section on the feasible segments through the incumbent
    for _ in range(400):
        a_new = _golden_max(lambda x: ev(x, b), 0.0, 1.0 - b)
        b_new = _golden_max(lambda y: ev(a_new, y), 0.0, 1.0 - a_new)
        moved = max(abs(a_new - a), abs(b_new - b))
        a, b = a_new, b_new
        if moved < 1e-12:
            break
    gm = (1 - Fraction(a) - Fraction(b)) / (m_val - 1)
    return _result(poly, (a, b, gm),
                   {"alpha": a, "beta": b, "gamma": float(gm)})


def optimize_bound(poly: BoundPolynomial) -> OptResult:
    """Deterministic two-stage maximization over the polynomial's feasible set.

    Stage one finds, in exact arithmetic, the first maximum of the polynomial
    over a fixed grid of floats: the SEGMENT_SAMPLES evenly spaced alphas of
    a segment, or the ticks i/2000 of a simplex.  A segment polynomial must
    carry a unimodality certificate (Bernstein coefficients that rise and
    then fall), which every Theorem 2 polynomial has; then a binary search
    finds its first maximum.  A simplex runs a Bernstein branch and bound.
    Stage two refines the grid point with golden-section steps (coordinate
    ascent on a simplex).  The reported value is the exact value at the
    refined point.
    """
    kind, n = poly.constraint
    if kind == "segment":
        return _optimize_segment(poly)
    if n < 2:
        raise BoundsError("simplex constraint needs M >= 2")
    return _optimize_simplex(poly)


# --- table reproduction -------------------------------------------------------

def printed_decimals(s: str) -> int:
    return len(s.split(".")[1]) if "." in s else 0


def significant_digits(s: str) -> int:
    digits = s.replace("-", "").replace(".", "").lstrip("0")
    return len(digits)


def match_value(computed: float, printed: str, cap: int) -> bool:
    """Match at min(cap, printed decimals), one unit of slack in the last digit."""
    d = min(cap, printed_decimals(printed))
    return abs(computed - float(printed)) <= 10.0 ** (-d) + 1e-15


def match_alpha(computed: float, printed: str, cap: int = 4) -> bool:
    """Match the argmax column at min(cap, significant digits) significant digits."""
    target = float(printed)
    d = min(cap, significant_digits(printed))
    if target == 0:
        return abs(computed) <= 10.0 ** (-d)
    scale = 10.0 ** (math.floor(math.log10(abs(target))) - d + 1)
    return abs(computed - target) <= scale + 1e-15


@dataclass
class TableRow:
    q: int
    m: int
    t: int
    thm1: float
    thm1_exact: Fraction
    cor1: float
    alpha: float
    printed: tuple[str, str, str]
    thm1_ok: bool
    cor1_ok: bool
    alpha_ok: bool
    larger: str   # which column wins: "thm1" | "cor1"

    @property
    def ok(self) -> bool:
        return self.thm1_ok and self.cor1_ok and self.alpha_ok


def reproduce_tables(names=("table1", "table2")) -> dict[str, list[TableRow]]:
    """Recompute the named comparison tables and check every cell against the catalog."""
    out: dict[str, list[TableRow]] = {}
    for name, table, m, cap in (("table1", TABLE1_M2, 2, 4), ("table2", TABLE2_M3, 3, 10)):
        if name not in names:
            continue
        out[name] = []
        for q, (p_thm1, p_cor1, p_alpha) in table.items():
            t = corollary1_t(m, q)
            exact = theorem1_lower(m, q)
            thm1 = float(exact)
            res = optimize_bound(theorem2_polynomial(q, t))
            row = TableRow(
                q=q, m=m, t=t,
                thm1=thm1, thm1_exact=exact,
                cor1=res.value, alpha=res.argmax["alpha"],
                printed=(p_thm1, p_cor1, p_alpha),
                thm1_ok=match_value(thm1, p_thm1, cap),
                cor1_ok=match_value(res.value, p_cor1, cap),
                alpha_ok=match_alpha(res.argmax["alpha"], p_alpha),
                larger="thm1" if thm1 >= res.value else "cor1",
            )
            out[name].append(row)
    return out


def _catalog_argmax(M: int, printed_pt) -> dict[str, float]:
    """Decode a cataloged argmax triple against the simplex constraint.

    A triple that misses alpha + beta + (M-1)*gamma = 1 by more than print
    precision, but satisfies it once gamma is divided by M-1, lists the total
    z-part rate in its gamma column; rescale before comparing.
    """
    a, bta, gmm = (float(x) for x in printed_pt)
    if abs(a + bta + (M - 1) * gmm - 1) > 1e-6:
        alt = gmm / (M - 1)
        if abs(a + bta + (M - 1) * alt - 1) <= 1e-6:
            gmm = alt
    return {"alpha": a, "beta": bta, "gamma": gmm}


def reproduce_arc_optima() -> list[dict]:
    """Optimize the arc-partition polynomial for each small plane in the catalog."""
    rows = []
    for q, (M, printed_val, printed_pt) in ARC_BOUND_OPTIMA.items():
        poly = theorem3_polynomial(q, M)
        res = optimize_bound(poly)
        target = _catalog_argmax(M, printed_pt)
        rows.append({
            "q": q, "M": M,
            "value": res.value,
            "argmax": res.argmax,
            "printed_value": printed_val,
            "printed_argmax": target,
            "value_ok": abs(res.value - float(printed_val)) <= 1e-8,
            "argmax_ok": all(
                abs(res.argmax[n] - target[n]) <= 1e-4 for n in target
            ),
        })
    return rows
