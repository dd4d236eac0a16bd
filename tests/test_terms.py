"""Normal forms, the summand -> loop-factor correspondence, rendering,
and the term grammar."""

import ast
import functools
import random
from itertools import groupby
from pathlib import Path

import pytest

import gauge4
from conftest import expand, random_atom, random_term
from gauge4 import (
    SYMBOLIC,
    Decomposition,
    DecompositionError,
    GaugeExpr,
    LoopFactor,
    Moore,
    Point,
    Sphere,
    SuspCP2,
    TermError,
    Wedge,
    decompose,
    gauge_from_suspension,
    homology_of_term,
    manifold,
    map_space,
    normalize,
    parse_term,
    render,
    wedge,
)
from gauge4.arith import MAX_COPIES
from gauge4.terms import blocks, join_blocks, render_blocks


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


#: Raw wedges that the consumers of a wedge once had to normalize first.
RAW_WEDGES = [
    Wedge(((Wedge(((Sphere(2), 1),)), 1),)),
    Wedge(((Point(), 1), (Sphere(3), 1))),
    Wedge(((Sphere(5), 1), (Wedge(((Sphere(3), 2),)), 1))),
    Wedge(((Sphere(3), 1), (Sphere(2), 1))),
    Wedge(((Sphere(2), 1), (Sphere(3), 1))),
]


def _answer(function, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return function(*args)
    except (TermError, DecompositionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("raw", RAW_WEDGES, ids=render)
def test_a_raw_wedge_answers_as_its_normal_form(raw):
    norm = normalize(raw)
    assert homology_of_term(raw) == homology_of_term(norm)
    assert _answer(gauge_from_suspension, raw, 1) == _answer(gauge_from_suspension, norm, 1)
    assert render(raw) == render(norm)


def test_motivation_answers():
    assert homology_of_term(RAW_WEDGES[0]) == homology_of_term(Sphere(2))
    assert homology_of_term(RAW_WEDGES[1]) == homology_of_term(Sphere(3))
    assert render(gauge_from_suspension(RAW_WEDGES[2], 1)) == "G_1(S^4) x O^2G x O^2G"
    assert RAW_WEDGES[3] == RAW_WEDGES[4]


def test_wedge_equality_ignores_block_order_and_nesting():
    rng = random.Random(31)
    for _ in range(300):
        parts = [(random_term(rng), rng.randint(0, 3)) for _ in range(rng.randint(0, 6))]
        flat = Wedge(parts)
        rng.shuffle(parts)
        assert Wedge(parts) == flat and hash(Wedge(parts)) == hash(flat)
        cut = rng.randint(0, len(parts))
        nested = Wedge([(Wedge(parts[:cut]), 1), *parts[cut:]])
        assert nested == flat and Wedge([(flat, 1)]) == flat
        assert Wedge([(flat, 2)]) == Wedge(parts + parts)


def _raw_blocks(rng, depth):
    """A raw block list: nested lists to depth, points, zero counts, repeats."""
    out = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.randrange(6)
        if roll == 0:
            item = Point()
        elif roll == 1 and depth:
            item = _raw_blocks(rng, depth - 1)
        elif roll == 2 and out:
            item = rng.choice(out)[0]  # a repeated block
        else:
            item = random_atom(rng)
        out.append((item, rng.randint(0, 2)))
    return out


def _build(raw):
    return Wedge([(_build(item) if isinstance(item, list) else item, k) for item, k in raw])


def _expand(raw):
    """Every atom copy of a raw block list, written out one by one."""
    out = []
    for item, k in raw:
        atoms = _expand(item) if isinstance(item, list) else [] if item == Point() else [item]
        out += atoms * k
    return out


def _display_order(atom):
    if atom == SuspCP2():
        return (-5, 2, 0)
    if isinstance(atom, Moore):
        return (-atom.dim, 1, atom.modulus)
    return (-atom.dim, 0, 0)


def test_raw_block_lists_render_as_their_expansion():
    rng = random.Random(37)
    seen = {"nested": 0, "point": 0, "zero": 0}
    for _ in range(500):
        raw = _raw_blocks(rng, 3)
        atoms = sorted(_expand(raw), key=_display_order)
        built = _build(raw)
        assert render(built) == (" v ".join(map(render, atoms)) or "pt")
        assert [k for _, k in built.blocks] == [len(list(run)) for _, run in groupby(atoms)]
        seen["nested"] += any(isinstance(item, list) for item, _ in raw)
        seen["point"] += any(item == Point() for item, _ in raw)
        seen["zero"] += any(k == 0 for _, k in raw)
    assert min(seen.values()) > 100, seen


def test_a_block_of_the_wrong_kind_is_named():
    loop = r"LoopFactor\(loop_order=2, modulus=None\)"
    with pytest.raises(TermError, match=rf"^not a space term: {loop}$"):
        Wedge(((LoopFactor(2), 1),))
    with pytest.raises(TermError, match=r"^not a loop factor: Sphere\(dim=3\)$"):
        GaugeExpr("S4", 0, ((Sphere(3), 1),))
    with pytest.raises(TermError, match=r"^not a space term: 3$"):
        Wedge(((Sphere(5), 1), (3, 1)))


def _calls(name, reads=False):
    """(module, enclosing function) of every call of name in src, or with
    reads of every place its value is read, as a name or an attribute."""
    found = []

    def uses(node):
        if reads:
            return isinstance(getattr(node, "ctx", None), ast.Load) and name in (
                getattr(node, "id", None), getattr(node, "attr", None))
        func = getattr(node, "func", None)
        return getattr(func, "id", getattr(func, "attr", None)) == name

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if uses(child):
                found.append((module, ".".join(scope)))
            visit(child, module, scope)

    for module, tree in _sources():
        visit(tree, module, ())
    return found


@functools.cache
def _sources():
    """(module, parsed source) of every module of src."""
    paths = sorted(Path(gauge4.__file__).parent.glob("*.py"))
    return [(path.stem, ast.parse(path.read_text())) for path in paths]


def test_only_constructors_merge_and_no_consumer_normalizes():
    # Blocks are put in normal form where a wedge or a product is built, and
    # the collapse to pt or an atom is made where a term or a splitting is.
    assert _calls("_merge") == [("terms", "Wedge.__init__"), ("terms", "GaugeExpr.__init__")]
    assert _calls("normalize") == [("decomposer", "Decomposition.__init__"), ("terms", "wedge")]


def test_every_written_copy_passes_the_one_cap():
    # join_blocks is the one writer of repeated summands, text or --json, and
    # the only reader of MAX_COPIES, so no writer can leave the cap out.
    assert _calls("join_blocks") == [
        ("cli", "_splitting_json"), ("cli", "_splitting_json"), ("terms", "render_blocks")]
    assert _calls("MAX_COPIES", reads=True) == [("terms", "join_blocks")]
    # the per-copy list is gone: nothing in src defines, calls or reads it
    for gone in ("copies", "_capped", "summands"):
        assert not hasattr(gauge4.terms, gone) and not hasattr(Decomposition, gone)
        assert _calls(gone) == _calls(gone, reads=True) == []


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
    # A wedge is built in normal form whatever blocks it is given, so it renders as one.
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
    assert join_blocks([("S^3", 2), ("P^3(5)", 0), ("S^2", 1)], ", ") == "S^3, S^3, S^2"
    text = join_blocks([("{}", MAX_COPIES - 1), ("[]", 1)], ", ")
    assert text.split(", ") == ["{}"] * (MAX_COPIES - 1) + ["[]"]
    assert render_blocks([(Sphere(3), 2), (Moore(3, 5), 0), (Sphere(2), 1)], " v ") == (
        "S^3 v S^3 v S^2")
    text = render_blocks([(Sphere(3), MAX_COPIES - 1), (Sphere(2), 1)], " v ")
    assert len(text.split(" v ")) == MAX_COPIES
    for huge in ([(Sphere(3), MAX_COPIES), (Sphere(2), 1)], [(Sphere(3), 10**18)]):
        with pytest.raises(ValueError, match="limit of 10\\*\\*6"):
            join_blocks([(render(atom), n) for atom, n in huge], ", ")
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
            assert render_blocks(parts, sep) == sep.join(render(a) for a in expand(parts))
    dec = decompose(manifold("1", MAX_COPIES - 1))
    assert dec.blocks == ((Sphere(5), 1), (Sphere(3), MAX_COPIES - 1))
    assert render_blocks(dec.blocks, " v ") == " v ".join(map(render, expand(dec.blocks)))
    factors = map(render, expand(dec.gauge.blocks))
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
