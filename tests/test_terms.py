"""Normal forms, the summand -> loop-factor correspondence, rendering,
and the term grammar."""

import random

import pytest

from conftest import random_term
from gauge4 import (
    SYMBOLIC,
    GaugeExpr,
    LoopFactor,
    Moore,
    Point,
    Sphere,
    SuspCP2,
    TermError,
    Wedge,
    decompose,
    manifold,
    map_space,
    normalize,
    parse_term,
    render,
    wedge,
)
from gauge4.arith import MAX_COPIES
from gauge4.terms import blocks, copies, render_blocks


def test_normalize_sorts_flattens_and_drops_points():
    raw = Wedge(
        (
            (Moore(3, 9), 1),
            (Point(), 1),
            (Wedge(((Sphere(4), 1), (SuspCP2(), 1), (Wedge(()), 1))), 1),
            (Sphere(2), 1),
            (Sphere(4), 1),
        )
    )
    assert normalize(raw) == Wedge(
        ((SuspCP2(), 1), (Sphere(4), 2), (Moore(3, 9), 1), (Sphere(2), 1))
    )


def test_normalize_collapses_degenerate_wedges():
    assert normalize(Wedge(())) == Point()
    assert normalize(Wedge(((Point(), 1), (Point(), 1)))) == Point()
    assert normalize(Wedge(((Sphere(3), 1),))) == Sphere(3)
    assert normalize(Wedge(((Point(), 1), (Moore(4, 5), 1)))) == Moore(4, 5)
    assert normalize(Point()) == Point()
    assert normalize(Sphere(2)) == Sphere(2)


def test_normalize_orders_by_dim_down_then_kind_then_modulus():
    got = wedge([SuspCP2(), Moore(4, 3), Moore(3, 9), Moore(3, 3), Sphere(5), Sphere(1)])
    assert got == Wedge(
        (
            (Sphere(5), 1),
            (SuspCP2(), 1),
            (Moore(4, 3), 1),
            (Moore(3, 3), 1),
            (Moore(3, 9), 1),
            (Sphere(1), 1),
        )
    )


def test_normalize_is_idempotent_and_order_insensitive():
    rng = random.Random(11)
    for _ in range(300):
        term = random_term(rng)
        norm = normalize(term)
        assert normalize(norm) == norm
        parts = [atom for atom, count in blocks(norm) for _ in range(count)]
        rng.shuffle(parts)
        assert wedge(parts) == norm


def test_wedge_is_associative_up_to_normal_form():
    rng = random.Random(12)
    for _ in range(100):
        a, b, c = (random_term(rng) for _ in range(3))
        assert wedge([wedge([a, b]), c]) == wedge([a, wedge([b, c])])


def test_term_constructor_guards():
    with pytest.raises(TermError):
        Sphere(0)
    with pytest.raises(TermError):
        Moore(1, 3)
    with pytest.raises(TermError):
        Moore(3, 1)
    with pytest.raises(TermError):
        LoopFactor(0)
    with pytest.raises(TermError):
        LoopFactor(4)
    with pytest.raises(TermError):
        LoopFactor(2, 1)
    with pytest.raises(TermError):
        GaugeExpr("S5", 0)
    with pytest.raises(TermError):
        GaugeExpr("S4", 0, (), -1)
    with pytest.raises(TermError):
        GaugeExpr("S4", 0, (), "sym")
    with pytest.raises(TermError):
        GaugeExpr("S4", 0, ((Sphere(3), 1),))
    with pytest.raises(TermError):
        Wedge(((LoopFactor(2), 1),))
    with pytest.raises(TermError):
        normalize(LoopFactor(2))


# --------------------------------------------------------------------------
# the correspondence


def test_map_space_table():
    assert map_space(Sphere(2)) == LoopFactor(1)
    assert map_space(Sphere(3)) == LoopFactor(2)
    assert map_space(Sphere(4)) == LoopFactor(3)
    assert map_space(Moore(3, 9)) == LoopFactor(2, 9)
    assert map_space(Moore(4, 25)) == LoopFactor(3, 25)


def test_map_space_rejects_base_summands_by_name():
    with pytest.raises(TermError, match="base summand"):
        map_space(Sphere(5))
    with pytest.raises(TermError, match="base summand"):
        map_space(SuspCP2())


def test_map_space_rejects_out_of_range_summands():
    for bad in [Sphere(1), Sphere(6), Moore(2, 3), Moore(5, 3), Point()]:
        with pytest.raises(TermError):
            map_space(bad)


def test_map_space_is_injective_on_its_domain():
    domain = [Sphere(k) for k in (2, 3, 4)]
    domain += [Moore(k, q) for k in (3, 4) for q in range(2, 31)]
    images = [map_space(x) for x in domain]
    assert len(set(images)) == len(images)


# --------------------------------------------------------------------------
# rendering


def test_render_atoms():
    assert render(Point()) == "pt"
    assert render(Sphere(3)) == "S^3"
    assert render(Moore(4, 9)) == "P^4(9)"
    assert render(SuspCP2()) == "SCP^2"
    assert render(LoopFactor(1)) == "O^1G"
    assert render(LoopFactor(3, 27)) == "O^3G{27}"


def test_render_wedge_uses_canonical_order():
    term = wedge([Moore(3, 3), Sphere(5), Sphere(2)])
    assert render(term) == "S^5 v P^3(3) v S^2"
    # Raw, unnormalized wedges render through their normal form.
    assert render(Wedge(((Sphere(2), 1), (Sphere(5), 1)))) == "S^5 v S^2"
    assert render(Wedge(())) == "pt"
    assert render(Wedge(((Point(), 1), (Wedge(((Sphere(3), 1),)), 1)))) == "S^3"


def test_render_gauge_expr_orders_factors():
    expr = GaugeExpr("S4", 2, ((LoopFactor(1), 1), (LoopFactor(3), 1)))
    assert render(expr) == "G_2(S^4) x O^3G x O^1G"
    expr = GaugeExpr(
        "CP2",
        4,
        ((LoopFactor(2), 1), (LoopFactor(2, 3), 1), (LoopFactor(3, 3), 1), (LoopFactor(1), 1)),
    )
    assert render(expr) == "G_4(CP^2) x O^3G{3} x O^2G x O^2G{3} x O^1G"


def test_render_gauge_expr_bare_base():
    assert render(GaugeExpr("S4", 0)) == "G_0(S^4)"
    assert render(GaugeExpr("CP2", -3)) == "G_-3(CP^2)"


def test_render_gauge_expr_symbolic_merges_plain_double_loops():
    expr = GaugeExpr(
        "S4",
        1,
        ((LoopFactor(2), 2), (LoopFactor(2, 3), 1), (LoopFactor(3), 1)),
        SYMBOLIC,
    )
    assert render(expr) == "G_1(S^4) x O^3G x (O^2G)^{2+2d} x O^2G{3}"


def test_render_gauge_expr_symbolic_with_no_plain_double_loops():
    expr = GaugeExpr("S4", 0, ((LoopFactor(3), 1), (LoopFactor(2, 9), 1)), SYMBOLIC)
    assert render(expr) == "G_0(S^4) x O^3G x (O^2G)^{2d} x O^2G{9}"
    assert render(GaugeExpr("S4", 0, (), SYMBOLIC)) == "G_0(S^4) x (O^2G)^{2d}"


def test_gauge_factors_are_sorted_on_construction():
    a = GaugeExpr("S4", 0, ((LoopFactor(1), 1), (LoopFactor(3, 5), 1), (LoopFactor(3), 1)))
    b = GaugeExpr("S4", 0, ((LoopFactor(3), 1), (LoopFactor(1), 1), (LoopFactor(3, 5), 1)))
    assert a == b
    assert a.blocks == ((LoopFactor(3), 1), (LoopFactor(3, 5), 1), (LoopFactor(1), 1))


def test_counts_are_checked_and_merged_where_blocks_are_built():
    with pytest.raises(TermError, match="^block count must be >= 0, got -1$"):
        Wedge(((Sphere(3), 2), (Moore(3, 9), -1)))
    with pytest.raises(TermError, match="^block count must be >= 0, got -1$"):
        GaugeExpr("S4", 0, ((LoopFactor(2), -1),))
    # Zero blocks vanish, equal terms merge, nested counts multiply.
    raw = Wedge(((Sphere(4), 0), (Wedge(((Sphere(3), 2), (Point(), 5))), 3), (Sphere(3), 1)))
    assert normalize(raw) == Wedge(((Sphere(3), 7),))
    assert normalize(Wedge(((Sphere(4), 0),))) == Point()
    expr = GaugeExpr("S4", 0, ((LoopFactor(3), 0), (LoopFactor(1), 2), (LoopFactor(1), 1)))
    assert expr.blocks == ((LoopFactor(1), 3),)
    assert expr == GaugeExpr("S4", 0, ((LoopFactor(1), 3),))


# --------------------------------------------------------------------------
# grammar


def test_written_out_copies_are_capped_before_expanding(hang_guard):
    assert copies([(Sphere(3), 2), (Moore(3, 5), 0), (Sphere(2), 1)]) == [
        Sphere(3), Sphere(3), Sphere(2)]
    assert len(copies([(Sphere(3), MAX_COPIES - 1), (Sphere(2), 1)])) == MAX_COPIES
    assert render_blocks([(Sphere(3), 2), (Moore(3, 5), 0), (Sphere(2), 1)], " v ") == (
        "S^3 v S^3 v S^2")
    text = render_blocks([(Sphere(3), MAX_COPIES - 1), (Sphere(2), 1)], " v ")
    assert len(text.split(" v ")) == MAX_COPIES
    for huge in ([(Sphere(3), MAX_COPIES), (Sphere(2), 1)], [(Sphere(3), 10**18)]):
        with pytest.raises(ValueError, match="limit of 10\\*\\*6"):
            copies(huge)
        with pytest.raises(ValueError, match="limit of 10\\*\\*6"):
            render_blocks(huge, " v ")
    # the G_t(...) head of a product is not one of the copies
    text = render(GaugeExpr("S4", 0, ((LoopFactor(2), MAX_COPIES),)))
    assert len(text.split(" x ")) == MAX_COPIES + 1
    with pytest.raises(ValueError, match="limit of 10\\*\\*6"):
        render(GaugeExpr("S4", 0, ((LoopFactor(2), MAX_COPIES + 1),)))
    # the symbolic (S^3)^{n+2d} block is one piece, whatever n
    assert render_blocks([(Sphere(5), 1), (Sphere(3), 10**18)], " v ", Sphere(3)) == (
        "S^5 v (S^3)^{1000000000000000000+2d}")
    assert render(GaugeExpr("S4", 0, ((LoopFactor(2), 10**18),), SYMBOLIC)) == (
        "G_0(S^4) x (O^2G)^{1000000000000000000+2d}")


def test_block_joiner_matches_joining_every_copy(hang_guard):
    rng = random.Random(29)
    for _ in range(300):
        parts = blocks(normalize(random_term(rng)))
        for sep in (" v ", " x "):
            assert render_blocks(parts, sep) == sep.join(render(a) for a in copies(parts))
    dec = decompose(manifold("1", MAX_COPIES - 1))
    assert dec.blocks == ((Sphere(5), 1), (Sphere(3), MAX_COPIES - 1))
    assert render_blocks(dec.blocks, " v ") == " v ".join(map(render, dec.summands))
    factors = map(render, copies(dec.gauge.blocks))
    assert render(dec.gauge) == " x ".join(["G_0(S^4)", *factors])


def test_parse_term_atoms():
    assert parse_term("pt") == Point()
    assert parse_term("S^3") == Sphere(3)
    assert parse_term("P^4(27)") == Moore(4, 27)
    assert parse_term("SCP^2") == SuspCP2()


def test_parse_term_wedges_and_whitespace():
    assert parse_term("S^3 v S^2") == Wedge(((Sphere(3), 1), (Sphere(2), 1)))
    assert parse_term("  SCP^2v P^3(5)  ") == Wedge(((SuspCP2(), 1), (Moore(3, 5), 1)))
    assert parse_term("pt v S^4") == Sphere(4)


def test_parse_term_rejections():
    for bad in ["", "  ", "S^", "S^0", "P^3", "P^3()", "P^1(3)", "Q^2", "S^3 v", "v S^2"]:
        with pytest.raises(TermError):
            parse_term(bad)


def test_parse_render_round_trip():
    rng = random.Random(13)
    for _ in range(300):
        norm = normalize(random_term(rng))
        assert parse_term(render(norm)) == norm
