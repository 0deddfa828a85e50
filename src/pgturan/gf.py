"""Exact arithmetic in GF(p^k) through dense lookup tables.

Elements are integer indices 0..q-1.  For prime fields the index is the
residue itself; for extensions the base-p digits of the index are the
coefficients of the residue polynomial (lowest degree first).  Index 0 is
the additive zero and index 1 the multiplicative one.  All arithmetic is a
table lookup, so the geometry layer can do millions of operations without
branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field


MAX_ORDER = 256
MAX_DEGREE = 4

# Fixed default moduli (coefficients lowest-first, monic) so that printed
# coordinates are stable across runs.  GF(8) uses x^3+x^2+1, whose root w
# satisfies w^3 = w^2 + 1 and generates the multiplicative group.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),          # x^2+x+1
    (2, 3): (1, 0, 1, 1),       # x^3+x^2+1
    (3, 2): (1, 0, 1),          # x^2+1
}


class FieldError(ValueError):
    """Raised for invalid field parameters or domain errors like inv(0)."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # reduce a modulo monic m, coefficients mod p
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    k = len(mod) - 1
    if k < 1 or mod[-1] == 0:
        return False
    # trial division by all monic polynomials of degree 1..k//2
    for d in range(1, k // 2 + 1):
        for idx in range(p ** d):
            div = []
            t = idx
            for _ in range(d):
                div.append(t % p)
                t //= p
            div.append(1)
            if not any(_poly_mod(mod, tuple(div), p)):
                return False
    # degree >= 2 must at least have no roots (covered by d=1 above when k>=2)
    return True


def _index_to_poly(i: int, p: int, k: int) -> tuple[int, ...]:
    digits = []
    for _ in range(k):
        digits.append(i % p)
        i //= p
    return _poly_trim(digits)


def _poly_to_index(c, p: int) -> int:
    out = 0
    for d in reversed(c):
        out = out * p + d
    return out


@dataclass(frozen=True)
class FieldTable:
    """Arithmetic tables for GF(p^k), immutable: a frozen dataclass over tuples."""

    p: int
    k: int
    q: int
    modulus: tuple[int, ...]
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]
    inv_table: tuple[int, ...]
    primitive: int
    log_table: tuple[int, ...] = field(repr=False)   # log base `primitive`; log[0] unused
    exp_table: tuple[int, ...] = field(repr=False)

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def sub(self, a: int, b: int) -> int:
        return self.add_table[a][self.neg_table[b]]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inverse of zero")
        return self.inv_table[a]

    def div(self, a: int, b: int) -> int:
        return self.mul_table[a][self.inv(b)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise FieldError("inverse of zero")
            return 1 if e == 0 else 0
        e %= self.q - 1
        return self.exp_table[(self.log_table[a] * e) % (self.q - 1)]

    def frobenius(self, a: int) -> int:
        """The automorphism a -> a^p."""
        return self.pow(a, self.p)

    def dot(self, u, v) -> int:
        acc = 0
        for a, b in zip(u, v):
            acc = self.add_table[acc][self.mul_table[a][b]]
        return acc

def _default_or_search_modulus(p: int, k: int) -> tuple[int, ...]:
    if (p, k) in DEFAULT_MODULI:
        return DEFAULT_MODULI[(p, k)]
    # deterministic search: smallest coefficient vector (c0..c_{k-1}), monic
    for idx in range(p ** k):
        cand = list(_index_to_poly(idx, p, k))
        cand += [0] * (k - len(cand))
        cand.append(1)
        cand_t = tuple(cand)
        if _is_irreducible(cand_t, p):
            return cand_t
    raise FieldError(f"no irreducible polynomial of degree {k} over GF({p})")


def make_field(p: int, k: int = 1, modulus=None) -> FieldTable:
    """Build the arithmetic tables for GF(p^k).

    `modulus` is a coefficient vector (lowest degree first) of a monic
    degree-k polynomial irreducible over GF(p); when omitted, the fixed
    defaults are used for GF(4), GF(8), GF(9) and a deterministic search
    elsewhere.
    """
    if not _is_prime(p):
        raise FieldError(f"characteristic {p} is not prime")
    if not 1 <= k <= MAX_DEGREE:
        raise FieldError(f"extension degree {k} out of range 1..{MAX_DEGREE}")
    q = p ** k
    if q > MAX_ORDER:
        raise FieldError(f"field order {q} exceeds {MAX_ORDER}")

    if k == 1:
        mod = (0, 1)  # x, unused
    elif modulus is None:
        mod = _default_or_search_modulus(p, k)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1:
            raise FieldError("modulus must be monic of degree k")
        if not _is_irreducible(mod, p):
            raise FieldError("modulus is reducible over GF(p)")

    polys = [_index_to_poly(i, p, k) for i in range(q)]
    add_table = [[0] * q for _ in range(q)]
    mul_table = [[0] * q for _ in range(q)]
    for a in range(q):
        pa = polys[a]
        for b in range(a, q):
            pb = polys[b]
            s = [0] * max(len(pa), len(pb), 1)
            for i, c in enumerate(pa):
                s[i] = c
            for i, c in enumerate(pb):
                s[i] = (s[i] + c) % p
            si = _poly_to_index(_poly_trim(s), p)
            add_table[a][b] = si
            add_table[b][a] = si
            m = _poly_mod(_poly_mul_mod_p(pa, pb, p), mod, p) if k > 1 else ((a * b) % p,)
            mi = _poly_to_index(_poly_trim(list(m)), p) if k > 1 else (a * b) % p
            mul_table[a][b] = mi
            mul_table[b][a] = mi

    neg_table = [0] * q
    for a in range(q):
        pa = polys[a]
        neg_table[a] = _poly_to_index(tuple((-c) % p for c in pa), p)

    inv_table = [0] * q
    for a in range(1, q):
        for b in range(1, q):
            if mul_table[a][b] == 1:
                inv_table[a] = b
                break
        else:
            raise FieldError(f"element {a} has no inverse; modulus not irreducible?")

    primitive = 0
    for a in range(1, q):
        x, order = a, 1
        while x != 1:
            x = mul_table[x][a]
            order += 1
        if order == q - 1:
            primitive = a
            break
    if primitive == 0 and q > 2:
        raise FieldError("no primitive element found")
    if q == 2:
        primitive = 1

    log_table = [0] * q
    exp_table = [1] * max(q - 1, 1)
    x = 1
    for e in range(q - 1):
        exp_table[e] = x
        log_table[x] = e
        x = mul_table[x][primitive]

    return FieldTable(
        p=p, k=k, q=q, modulus=mod,
        add_table=tuple(map(tuple, add_table)), mul_table=tuple(map(tuple, mul_table)),
        neg_table=tuple(neg_table), inv_table=tuple(inv_table),
        primitive=primitive, log_table=tuple(log_table), exp_table=tuple(exp_table),
    )


def format_element(f: FieldTable, a: int) -> str:
    """Print an element: integers for prime fields, powers of ω otherwise."""
    if f.k == 1:
        return str(a)
    if a == 0:
        return "0"
    if a == 1:
        return "1"
    e = f.log_table[a]
    return "ω" if e == 1 else f"ω^{e}"


_SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def parse_element(f: FieldTable, text: str) -> int:
    """Parse an element label: integer (negatives = field negation) or ω^j / w^j."""
    t = text.strip().replace(" ", "").translate(_SUPERSCRIPTS)
    if not t:
        raise FieldError("empty element label")
    if t in ("ω", "w"):
        return f.primitive
    if t.startswith(("ω", "w")):
        rest = t[1:]
        if rest.startswith("^"):
            rest = rest[1:]
        try:
            e = int(rest)
        except ValueError as exc:
            raise FieldError(f"bad element label {text!r}") from exc
        return f.exp_table[e % (f.q - 1)]
    t = t.replace("−", "-")
    try:
        v = int(t)
    except ValueError as exc:
        raise FieldError(f"bad element label {text!r}") from exc
    if f.k == 1:
        return v % f.p
    if 0 <= v < f.q:
        return v
    raise FieldError(f"integer label {v} out of range for GF({f.q})")
