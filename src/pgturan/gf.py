"""Exact arithmetic in GF(p^k) through dense lookup tables.

Elements are integer indices 0..q-1.  For prime fields the index is the
residue itself; for extensions the base-p digits of the index are the
coefficients of the residue polynomial (lowest degree first).  Index 0 is
the additive zero and index 1 the multiplicative one.  All arithmetic is a
table lookup, so the geometry layer can do millions of operations without
branching.

The tables are built on the indices themselves, with no polynomial type:
addition digit by digit, multiplication row by row from a times-x table.
A monic modulus is irreducible exactly when its quotient ring is a field,
so the one test for a modulus is that every nonzero row holds a 1.
"""

from __future__ import annotations

from typing import NamedTuple


MAX_ORDER = 256
MAX_DEGREE = 4

# Moduli fixed ahead of the search (coefficients lowest-first, monic).  The
# search picks x^2+x+1 for GF(4) and x^2+1 for GF(9), but x^3+x+1 for GF(8),
# whose printed coordinates use x^3+x^2+1: its root w has w^3 = w^2 + 1.
DEFAULT_MODULI = {
    (2, 3): (1, 0, 1, 1),       # x^3+x^2+1
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


class FieldTable(NamedTuple):
    """Arithmetic tables for GF(p^k), immutable: a named tuple of tuples."""

    p: int
    k: int
    q: int
    modulus: tuple[int, ...]
    add_table: tuple[tuple[int, ...], ...]
    mul_table: tuple[tuple[int, ...], ...]
    neg_table: tuple[int, ...]
    inv_table: tuple[int, ...]
    primitive: int
    log_table: tuple[int, ...]   # log base `primitive`; log[0] unused
    exp_table: tuple[int, ...]

    def __repr__(self) -> str:
        return f"FieldTable(p={self.p}, k={self.k}, q={self.q}, modulus={self.modulus})"

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

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise FieldError("inverse of zero")
            return 1 if e == 0 else 0
        e %= self.q - 1
        return self.exp_table[(self.log_table[a] * e) % (self.q - 1)]


def _field_rows(p: int, k: int, mod: tuple[int, ...]):
    """Addition and multiplication rows of GF(p)[x]/(mod) over element indices.

    Addition is digit-wise mod p.  Multiplication is built row by row by
    linearity: with d the place of a's lowest nonzero digit,
    a*b = (a - p^d)*b + x^d*b, and the x^d*b rows come from a times-x table
    read off the monic modulus.  Returns None at the first nonzero row
    without a 1: that element is a zero divisor, so mod is reducible.
    """
    q = p ** k
    add = [list(range(q))]   # a + b = (a//p + b//p) one place up, low digits mod p
    for a in range(1, q):
        hi, lo = add[a // p], a % p
        add.append([hi[b // p] * p + (lo + b) % p for b in range(q)])
    # x * b shifts b's digits up one place; the top digit t comes back as
    # t * x^k = t * -(m_0 + m_1 x + ... + m_{k-1} x^{k-1})
    top = p ** (k - 1)
    wrap = [sum((-t * c) % p * p ** i for i, c in enumerate(mod[:k])) for t in range(p)]
    times_x = [add[b % top * p][wrap[b // top]] for b in range(q)]
    shifts = [list(range(q))]                 # shifts[d][b] = x^d * b
    for _ in range(1, k):
        shifts.append([times_x[b] for b in shifts[-1]])
    mul = [[0] * q]
    for a in range(1, q):
        d, pd = 0, 1
        while a // pd % p == 0:
            d, pd = d + 1, pd * p
        row = [add[u][v] for u, v in zip(mul[a - pd], shifts[d])]
        if 1 not in row:
            return None
        mul.append(row)
    return add, mul


def make_field(p: int, k: int = 1) -> FieldTable:
    """Build the arithmetic tables for GF(p^k).

    The modulus, a coefficient vector (lowest degree first), is a monic
    degree-k polynomial irreducible over GF(p).  GF(8) uses its fixed
    default and every other order takes the first monic polynomial, in
    order of its coefficient vector (c_0, ..., c_{k-1}) read as a base-p
    index, whose quotient ring is a field.  That is the irreducibility
    test: the tables are accepted exactly when every nonzero element has
    an inverse.
    """
    if not _is_prime(p):
        raise FieldError(f"characteristic {p} is not prime")
    if not 1 <= k <= MAX_DEGREE:
        raise FieldError(f"extension degree {k} out of range 1..{MAX_DEGREE}")
    q = p ** k
    if q > MAX_ORDER:
        raise FieldError(f"field order {q} exceeds {MAX_ORDER}")

    if (p, k) in DEFAULT_MODULI:
        candidates = [DEFAULT_MODULI[(p, k)]]
    else:
        candidates = (tuple(i // p ** j % p for j in range(k)) + (1,) for i in range(q))
    for mod in candidates:   # some monic polynomial of each degree is irreducible
        rows = _field_rows(p, k, mod)
        if rows is not None:
            break
    add_table, mul_table = rows

    for primitive in range(1, q):   # the smallest element of order q - 1
        x, order = primitive, 1
        while x != 1:
            x, order = mul_table[x][primitive], order + 1
        if order == q - 1:
            break

    log_table = [0] * q
    exp_table = [1] * (q - 1)
    x = 1
    for e in range(q - 1):
        exp_table[e] = x
        log_table[x] = e
        x = mul_table[x][primitive]

    return FieldTable(
        p=p, k=k, q=q, modulus=mod,
        add_table=tuple(map(tuple, add_table)), mul_table=tuple(map(tuple, mul_table)),
        neg_table=tuple(row.index(0) for row in add_table),
        inv_table=(0,) + tuple(row.index(1) for row in mul_table[1:]),
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
