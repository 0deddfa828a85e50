"""PG_m(q) as an indexed incidence structure and (q+1)-uniform hypergraph.

Points are one-dimensional subspaces of F_q^{m+1}, stored as coordinate
vectors normalized so the first nonzero coordinate is 1.  Lines are the
two-dimensional subspaces.  Every point or line set is an integer bitmask
over ids: a line is the mask of its points, a point the mask of its lines,
so set operations in the search layers are single machine ops.  For m=2 a
line also has normalized dual coordinates, kept for parsing and printing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .gf import FieldTable, FieldError, make_field, format_element, parse_element

MAX_GEOMETRY_Q = 16
MAX_GEOMETRY_POINTS = 1500      # PG(3,11) has 1464 points, PG(5,4) 1365


class GeometryError(ValueError):
    pass


class SearchTimeout(Exception):
    """An exact search read its deadline and found it passed.

    Raised from the search's deadline read with the node count as its one
    argument; the search's public function catches it and returns its own
    timeout result, so it never leaves the library.
    """

    @property
    def nodes(self) -> int:
        return self.args[0]


def time_left(deadline: float | None) -> float | None:
    """The budget left before a `time.monotonic()` deadline; None is no limit."""
    return None if deadline is None else max(deadline - time.monotonic(), 0.0)


def bits(mask: int):
    """The ids in a bitmask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(ids) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class Geometry:
    m: int
    q: int
    field: FieldTable
    points: tuple[tuple[int, ...], ...]                  # coordinates, first nonzero is 1
    duals: tuple[tuple[int, ...], ...]                   # line -> [x,y,z]; m=2 only
    point_index: MappingProxyType                        # coordinates -> point id
    dual_index: MappingProxyType                         # dual -> line id; m=2 only, else empty
    point_line_incidence: tuple[int, ...]                # bitset of line ids per point
    line_point_incidence: tuple[int, ...]                # bitset of point ids per line
    pair_line: tuple[tuple[int, ...], ...] = field(repr=False)  # (point,point) -> line id

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_lines(self) -> int:
        return len(self.line_point_incidence)

    @property
    def all_points_mask(self) -> int:
        return (1 << len(self.points)) - 1

    def normalize(self, vec) -> tuple[int, ...]:
        """Canonical representative of the projective point spanned by vec."""
        return _normalize(self.field, vec)

    def point_id(self, vec) -> int:
        return self.point_index[_normalize(self.field, vec)]


def _normalize(f: FieldTable, vec) -> tuple[int, ...]:
    for lead in vec:
        if lead:
            break
    else:
        raise GeometryError("zero vector has no projective point")
    if lead == 1:
        return tuple(vec)
    s = f.mul_table[f.inv_table[lead]]
    return tuple([s[c] for c in vec])


def _enumerate_points(q: int, m: int) -> list[tuple[int, ...]]:
    # canonical representatives grouped by leading position: (1,*..), (0,1,*..), ...
    return [(0,) * lead + (1,) + tail for lead in range(m + 1)
            for tail in itertools.product(range(q), repeat=m - lead)]


def _cross(f: FieldTable, u, v) -> tuple[int, int, int]:
    def term(a, b, c, d):
        return f.sub(f.mul(a, b), f.mul(c, d))
    return (
        term(u[1], v[2], u[2], v[1]),
        term(u[2], v[0], u[0], v[2]),
        term(u[0], v[1], u[1], v[0]),
    )


@lru_cache(maxsize=None)
def build_geometry(m: int, q: int) -> Geometry:
    """Construct PG_m(q) with full incidence data.

    The result is cached, so it is a frozen dataclass over tuples, and its
    two indexes are read-only views of dicts no caller holds.
    """
    if m < 2:
        raise GeometryError("projective dimension must be at least 2")
    if q > MAX_GEOMETRY_Q:
        raise GeometryError(f"geometry construction supports q <= {MAX_GEOMETRY_Q}")
    p, k = factor_prime_power(q)
    n = 1
    for _ in range(m):          # points of PG_i(q), i = 1..m, checked before any table
        n = n * q + 1
        if n > MAX_GEOMETRY_POINTS:
            raise GeometryError(f"PG({m},{q}) has more points than the "
                                f"{MAX_GEOMETRY_POINTS} geometry construction supports")
    f = make_field(p, k)

    coord_list = _enumerate_points(q, m)
    point_index = {c: i for i, c in enumerate(coord_list)}
    assert n == len(coord_list)

    duals: list[tuple[int, ...]] = []
    dual_index: dict[tuple[int, ...], int] = {}
    point_line_incidence = [0] * n
    line_point_incidence: list[int] = []
    pair_line = [[-1] * n for _ in range(n)]
    for a in range(n):
        ua = coord_list[a]
        for b in range(a + 1, n):
            if pair_line[a][b] >= 0:
                continue
            ub = coord_list[b]
            ids = [a]
            for t in range(q):
                vec = tuple(f.add(f.mul(t, x), y) for x, y in zip(ua, ub))
                ids.append(point_index[_normalize(f, vec)])
            lid = len(line_point_incidence)
            if m == 2:
                dual = _normalize(f, _cross(f, ua, ub))
                dual_index[dual] = lid
                duals.append(dual)
            mask = 0
            for pid in ids:
                mask |= 1 << pid
                point_line_incidence[pid] |= 1 << lid
            line_point_incidence.append(mask)
            for i, x in enumerate(ids):
                for y in ids[i + 1:]:
                    pair_line[x][y] = lid
                    pair_line[y][x] = lid
    return Geometry(
        m=m, q=q, field=f,
        points=tuple(coord_list),
        duals=tuple(duals),
        point_index=MappingProxyType(point_index),
        dual_index=MappingProxyType(dual_index),
        point_line_incidence=tuple(point_line_incidence),
        line_point_incidence=tuple(line_point_incidence),
        pair_line=tuple(map(tuple, pair_line)),
    )


def factor_prime_power(q: int) -> tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            t = q
            while t % p == 0:
                t //= p
                k += 1
            if t != 1:
                raise GeometryError(f"{q} is not a prime power")
            return p, k
    raise GeometryError(f"{q} is not a prime power")


def format_coords(g: Geometry, kind: str, obj_id: int) -> str:
    """Paper-style text for a point "(a,b,c)" or, for m=2, a line "[x,y,z]"."""
    f = g.field
    if kind == "point":
        inner = ",".join(format_element(f, c) for c in g.points[obj_id])
        return f"({inner})"
    if kind == "line":
        if g.m != 2:
            raise GeometryError("dual line coordinates exist only for m=2")
        inner = ",".join(format_element(f, c) for c in g.duals[obj_id])
        return f"[{inner}]"
    raise GeometryError(f"unknown kind {kind!r}")


def parse_coords(g: Geometry, text: str) -> tuple[str, int]:
    """Parse "(..)" as a point or "[..]" as a line; returns (kind, id)."""
    t = text.strip()
    if len(t) < 2:
        raise GeometryError(f"malformed coordinates {text!r}")
    open_, close = t[0], t[-1]
    body = t[1:-1]
    parts = body.split(",")
    if any(not s.strip() for s in parts):
        raise GeometryError(f"empty coordinate in {text!r}")
    if len(parts) != g.m + 1:
        raise GeometryError(f"expected {g.m + 1} coordinates in {text!r}")
    try:
        vec = tuple(parse_element(g.field, s) for s in parts)
    except FieldError as exc:
        raise GeometryError(str(exc)) from exc
    if open_ == "(" and close == ")":
        return "point", g.point_id(vec)
    if open_ == "[" and close == "]":
        if g.m != 2:
            raise GeometryError("line coordinates exist only for m=2")
        dual = g.normalize(vec)
        try:
            return "line", g.dual_index[dual]
        except KeyError as exc:
            raise GeometryError(f"{text!r} is not a line of this plane") from exc
    raise GeometryError(f"malformed coordinates {text!r}")


def point_of(g: Geometry, text: str) -> int:
    kind, i = parse_coords(g, text)
    if kind != "point":
        raise GeometryError(f"{text!r} is not a point")
    return i


def line_of(g: Geometry, text: str) -> int:
    kind, i = parse_coords(g, text)
    if kind != "line":
        raise GeometryError(f"{text!r} is not a line")
    return i
