"""Incidence-structure invariants and the paper-style coordinate notation."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from pgturan.geometry import (
    GeometryError,
    bits,
    build_geometry,
    format_coords,
    line_of,
    parse_coords,
    point_of,
)
from pgturan.verify import run_all

from oracles import field_dot

PLANES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8), (2, 9)]
SOLIDS = [(3, 2), (3, 3)]


def expected_point_count(m: int, q: int) -> int:
    return sum(q ** i for i in range(m + 1))


def expected_line_count(m: int, q: int) -> int:
    # Gaussian binomial [m+1 choose 2]_q
    num = (q ** (m + 1) - 1) * (q ** (m + 1) - q)
    den = (q ** 2 - 1) * (q ** 2 - q)
    return num // den


def assert_geometry_invariants(g, m, q):
    assert g.n_points == expected_point_count(m, q)
    assert g.n_lines == expected_line_count(m, q)
    deg = (q ** m - 1) // (q - 1)
    assert all(inc.bit_count() == deg for inc in g.point_line_incidence)
    assert all(lm.bit_count() == q + 1 for lm in g.line_point_incidence)


@pytest.mark.parametrize("m,q", PLANES + SOLIDS)
def test_counts_match_closed_forms(m, q):
    assert_geometry_invariants(build_geometry(m, q), m, q)


def test_cached_geometry_is_immutable():
    g = build_geometry(2, 3)
    with pytest.raises(TypeError):
        g.line_point_incidence[0] = 0
    with pytest.raises(TypeError):
        g.field.mul_table[1][1] = 0
    with pytest.raises(AttributeError):
        g.q = 4
    with pytest.raises(AttributeError):
        g.field.p = 3


def test_geometry_repr_omits_the_tables():
    # PG(2,16)'s pair_line alone is 273 x 273 ids
    g = build_geometry(2, 16)
    assert len(repr(g)) < 200
    assert len(repr(g.field)) < 200


def test_corrupt_field_leaves_cached_geometry_intact():
    claims = run_all(budget=0, corrupt_field=True)
    geometry = [c for c in claims if c.claim_id.startswith("geometry.")]
    # the corrupted copies fail the checks; they do not crash building them
    assert geometry and all(c.status == "fail" for c in geometry)
    assert not any(c.computed.startswith("error") for c in geometry)
    g = build_geometry(2, 3)
    assert_geometry_invariants(g, 2, 3)
    assert all(g.field.mul(1, a) == a for a in range(3))


@pytest.mark.parametrize("name,key", [("point_index", (1, 0, 0)), ("dual_index", (1, 0, 0))])
def test_cached_indexes_are_read_only(name, key):
    g = build_geometry(2, 3)
    index = getattr(g, name)
    before = dict(index)
    with pytest.raises(TypeError):
        index[key] = 99
    with pytest.raises(TypeError):
        index[(2, 2, 2)] = 0
    with pytest.raises(TypeError):
        del index[key]
    again = getattr(build_geometry(2, 3), name)
    assert again is index and dict(again) == before and again[key] != 99


def test_small_counts():
    assert (build_geometry(2, 2).n_points, build_geometry(2, 2).n_lines) == (7, 7)
    assert (build_geometry(2, 7).n_points, build_geometry(2, 7).n_lines) == (57, 57)
    assert (build_geometry(3, 3).n_points, build_geometry(3, 3).n_lines) == (40, 130)


@pytest.mark.parametrize("m,q", [(2, 3), (2, 5), (3, 2)])
def test_two_points_one_line(m, q):
    g = build_geometry(m, q)
    for a in range(g.n_points):
        for b in range(a + 1, g.n_points):
            lid = g.pair_line[a][b]
            lm = g.line_point_incidence[lid]
            assert lm >> a & 1 and lm >> b & 1
            common = [l for l, mask in enumerate(g.line_point_incidence)
                      if mask >> a & 1 and mask >> b & 1]
            assert common == [lid]


def test_line_members_recover_line():
    g = build_geometry(2, 4)
    for lid, line in enumerate(g.line_point_incidence):
        ids = tuple(bits(line))
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                assert g.pair_line[ids[i]][ids[j]] == lid


def test_plane_self_duality_profile():
    # multiset of line sizes equals multiset of point degrees for planes
    for q in (2, 3, 7):
        g = build_geometry(2, q)
        sizes = sorted(lm.bit_count() for lm in g.line_point_incidence)
        degrees = sorted(inc.bit_count() for inc in g.point_line_incidence)
        assert sizes == degrees


def test_line_through_basis_points():
    g = build_geometry(2, 7)
    lid = g.pair_line[point_of(g, "(0,1,0)")][point_of(g, "(0,0,1)")]
    assert format_coords(g, "line", lid) == "[1,0,0]"


def test_fano_line_closure():
    g = build_geometry(2, 2)
    lid = g.pair_line[point_of(g, "(1,0,0)")][point_of(g, "(0,1,0)")]
    members = {format_coords(g, "point", p) for p in bits(g.line_point_incidence[lid])}
    assert members == {"(1,0,0)", "(0,1,0)", "(1,1,0)"}


def test_dual_coordinates_orthogonal():
    g = build_geometry(2, 7)
    f = g.field
    u = point_of(g, "(1,2,6)")
    v = point_of(g, "(1,6,5)")
    lid = g.pair_line[u][v]
    dual = g.duals[lid]
    for pid in (u, v):
        assert field_dot(f, g.points[pid], dual) == 0
    # and every point of the line satisfies the dual equation
    for pid in bits(g.line_point_incidence[lid]):
        assert field_dot(f, g.points[pid], dual) == 0
    # one dual triple per line of a plane, none for a solid
    assert len(g.duals) == g.n_lines
    assert build_geometry(3, 2).duals == ()


def test_parse_line_label():
    g = build_geometry(2, 7)
    lid = line_of(g, "[1,0,4]")
    pts = tuple(bits(g.line_point_incidence[lid]))
    assert len(pts) == 8
    f = g.field
    for pid in pts:
        x, _, z = g.points[pid]
        assert f.add(x, f.mul(4, z)) == 0


def test_negative_labels_are_field_negation():
    g = build_geometry(2, 7)
    assert format_coords(g, "point", point_of(g, "(-1,1,1)")) == "(1,6,6)"
    assert format_coords(g, "point", point_of(g, "(0,-3,1)")) == "(0,1,2)"


def test_gf8_point_label():
    g = build_geometry(2, 8)
    pid = point_of(g, "(ω^3,ω^2,1)")
    # normalized by 1/ω^3
    assert format_coords(g, "point", pid) == "(1,ω^6,ω^4)"
    assert point_of(g, "(1,ω^6,ω^4)") == pid


@given(st.sampled_from([(2, 3), (2, 7), (2, 8)]), st.data())
@settings(max_examples=40, deadline=None)
def test_format_parse_roundtrip(mq, data):
    g = build_geometry(*mq)
    pid = data.draw(st.integers(0, g.n_points - 1))
    kind, back = parse_coords(g, format_coords(g, "point", pid))
    assert (kind, back) == ("point", pid)
    lid = data.draw(st.integers(0, g.n_lines - 1))
    kind, back = parse_coords(g, format_coords(g, "line", lid))
    assert (kind, back) == ("line", lid)


def test_malformed_labels_rejected():
    g = build_geometry(2, 3)
    for bad in ("(1,2)", "(1,2,3,4)", "{1,2,3}", "(a,b,c)", "[9,9]"):
        with pytest.raises(GeometryError):
            parse_coords(g, bad)


def test_empty_coordinate_rejected():
    g = build_geometry(2, 7)
    for bad in ("(1,,0,0)", "(,1,0,0)", "[0,,1,0]", "(1,0,)", "(1, ,0)", "(1,0,0,)"):
        with pytest.raises(GeometryError, match="empty coordinate"):
            parse_coords(g, bad)


def test_unsupported_parameters_rejected():
    with pytest.raises(GeometryError):
        build_geometry(1, 3)
    with pytest.raises(GeometryError):
        build_geometry(2, 6)
    with pytest.raises(GeometryError):
        build_geometry(2, 32)
