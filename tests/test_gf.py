"""Field table correctness: exhaustive axioms for small orders plus an
independent polynomial-arithmetic oracle."""

import types

import pytest

from pgturan.gf import FieldError, _field_rows, make_field, format_element, parse_element

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]

PRIMES_TO_256 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
    157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233,
    239, 241, 251,
]

# The modulus make_field(p, k) chooses for every field of order <= 256 and
# degree <= 4: x for prime fields, GF(8)'s fixed default, and otherwise the
# first irreducible monic polynomial by coefficient vector (c_0, ..., c_{k-1})
# read as a base-p index.  Coordinates print through these, so they are pinned.
PINNED_MODULI = {
    **{(p, 1): (0, 1) for p in PRIMES_TO_256},
    (2, 2): (1, 1, 1),          # x^2+x+1
    (2, 3): (1, 0, 1, 1),       # x^3+x^2+1, the fixed default
    (2, 4): (1, 1, 0, 0, 1),    # x^4+x+1
    (3, 2): (1, 0, 1),          # x^2+1
    (3, 3): (1, 2, 0, 1),       # x^3+2x+1
    (3, 4): (2, 1, 0, 0, 1),    # x^4+x+2
    (5, 2): (2, 0, 1),          # x^2+2
    (5, 3): (1, 1, 0, 1),       # x^3+x+1
    (7, 2): (1, 0, 1),          # x^2+1
    (11, 2): (1, 0, 1),         # x^2+1
    (13, 2): (2, 0, 1),         # x^2+2
}


def field_of(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    t = q
    while t > 1:
        t //= p
        k += 1
    return make_field(p, k)


# --- independent oracle: arithmetic on coefficient vectors -------------------

def to_poly(i, p, k):
    out = []
    for _ in range(k):
        out.append(i % p)
        i //= p
    return out


def from_poly(c, p):
    out = 0
    for d in reversed(c):
        out = out * p + d
    return out


def oracle_add(a, b, f):
    pa, pb = to_poly(a, f.p, f.k), to_poly(b, f.p, f.k)
    return from_poly([(x + y) % f.p for x, y in zip(pa, pb)], f.p)


def oracle_mul(a, b, f):
    pa, pb = to_poly(a, f.p, f.k), to_poly(b, f.p, f.k)
    prod = [0] * (2 * f.k)
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            prod[i + j] = (prod[i + j] + x * y) % f.p
    mod = list(f.modulus)
    for top in range(len(prod) - 1, f.k - 1, -1):
        lead = prod[top]
        if lead:
            shift = top - f.k
            for i, c in enumerate(mod):
                prod[shift + i] = (prod[shift + i] - lead * c) % f.p
    return from_poly(prod[:f.k], f.p)


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    f = field_of(q)
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in els:
        for b in els:
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SUPPORTED)
def test_primitive_generates(q):
    f = field_of(q)
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = f.mul(x, f.primitive)
    assert seen == set(range(1, q))


@pytest.mark.parametrize("q", SUPPORTED)
def test_frobenius_additive(q):
    f = field_of(q)
    for a in range(q):
        for b in range(q):
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))


@pytest.mark.slow
def test_tables_match_polynomial_oracle():
    # every field of order <= 256 and degree <= 4, every pair of elements,
    # under the pinned modulus
    assert set(PINNED_MODULI) == {(p, k) for p in PRIMES_TO_256
                                  for k in range(1, 5) if p ** k <= 256}
    for (p, k), modulus in PINNED_MODULI.items():
        f = make_field(p, k)
        assert (f.p, f.k, f.q, f.modulus) == (p, k, p ** k, modulus)
        q = f.q
        for a in range(q):
            assert f.add_table[a] == tuple(oracle_add(a, b, f) for b in range(q))
            assert f.mul_table[a] == tuple(oracle_mul(a, b, f) for b in range(q))
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        assert len(set(f.exp_table)) == q - 1


def reducible_moduli(p, k):
    """Every monic degree-k product of two monic polynomials of lower degree."""
    out = set()
    for d in range(1, k // 2 + 1):
        for i in range(p ** d):
            for j in range(p ** (k - d)):
                u, v = to_poly(i, p, d) + [1], to_poly(j, p, k - d) + [1]
                prod = [0] * (k + 1)
                for s, x in enumerate(u):
                    for t, y in enumerate(v):
                        prod[s + t] = (prod[s + t] + x * y) % p
                out.add(tuple(prod))
    return out


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                                 (5, 2), (7, 2)])
def test_modulus_accepted_exactly_when_irreducible(p, k):
    reducible = reducible_moduli(p, k)
    q = p ** k
    for i in range(q):
        mod = tuple(to_poly(i, p, k)) + (1,)
        rows = _field_rows(p, k, mod)
        assert (rows is None) == (mod in reducible)
        if rows is not None:
            f = types.SimpleNamespace(p=p, k=k, modulus=mod)
            assert rows[1] == [[oracle_mul(a, b, f) for b in range(q)] for a in range(q)]


def test_gf8_generator_relation():
    # the default modulus makes w^3 = w^2 + 1
    f = make_field(2, 3)
    w = f.primitive
    assert f.pow(w, 3) == f.add(f.mul(w, w), 1)
    # w * w^2 has coefficient vector (1,0,1)
    assert f.mul(w, f.mul(w, w)) == 0b101


def test_prime_field_examples():
    f7 = make_field(7)
    assert f7.mul(3, 5) == 1
    assert make_field(5).neg(2) == 3


def test_gf4_examples():
    f4 = make_field(2, 2)
    assert f4.mul(2, 2) == 3        # x*x = x+1
    assert f4.add(2, 2) == 0        # characteristic 2


def test_gf8_inverse_is_sixth_power():
    f8 = make_field(2, 3)
    w = f8.primitive
    assert f8.inv(w) == f8.pow(w, 6)


def test_inv_zero_rejected():
    with pytest.raises(FieldError):
        make_field(3).inv(0)


def test_composite_characteristic_rejected():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(6, 2)


def test_reducible_modulus_rejected():
    assert _field_rows(2, 2, (1, 0, 1)) is None         # x^2+1 = (x+1)^2 over GF(2)
    assert _field_rows(3, 2, (2, 0, 1)) is None         # x^2+2 = (x+1)(x+2) over GF(3)
    assert _field_rows(2, 4, (1, 0, 1, 0, 1)) is None   # (x^2+x+1)^2, no root
    assert _field_rows(3, 4, (2, 0, 0, 0, 1)) is None   # x^4+2 = (x^2+1)(x^2+2)


def test_element_formatting_roundtrip():
    f8 = make_field(2, 3)
    for a in range(8):
        assert parse_element(f8, format_element(f8, a)) == a
    assert parse_element(f8, "w^3") == parse_element(f8, "ω^3") == parse_element(f8, "ω3")
    f7 = make_field(7)
    assert parse_element(f7, "-1") == 6
    assert parse_element(f7, "−3") == 4
