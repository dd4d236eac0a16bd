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
from gauge4 import cli
from gauge4.arith import MAX_COPIES
from gauge4.terms import (
    _ATOMS,
    COPIES_PER_PART,
    FACTOR_TEXT,
    _atom_key,
    _factor_text,
    block_pieces,
    blocks,
    join_blocks,
    loop_pair,
)
from gauge4.value import digits


def render_blocks(blocks, sep):
    """Sorted (term, count) blocks, count copies each, joined by sep, as a wedge is written."""
    return "".join(join_blocks([], block_pieces(blocks), sep))


def test_normalize_sorts_flattens_and_drops_points():
    raw = Wedge(
        (
            (Moore(3, 9), 1),
            (Wedge(((Sphere(4), 1), (SuspCP2(), 1), (Wedge(()), 1))), 1),
            (Sphere(2), 1),
            (Sphere(4), 1),
        )
    )
    assert normalize(raw) == Wedge(
        ((SuspCP2(), 1), (Sphere(4), 2), (Moore(3, 9), 1), (Sphere(2), 1))
    )


def test_normalize_collapses_degenerate_wedges():
    assert normalize(Wedge(())) == Wedge(())
    assert normalize(Wedge(((Wedge(()), 1), (Wedge(()), 1)))) == Wedge(())
    assert normalize(Wedge(((Sphere(3), 1),))) == Sphere(3)
    assert normalize(Wedge(((Wedge(()), 1), (Moore(4, 5), 1)))) == Moore(4, 5)
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
    Wedge(((Wedge(()), 1), (Sphere(3), 1))),
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
    """A raw block list: nested lists to depth, points (empty wedges), zero
    counts, repeats."""
    out = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.randrange(6)
        if roll == 0:
            item = Wedge(())
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
        atoms = _expand(item) if isinstance(item, list) else [] if item == Wedge(()) else [item]
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
        seen["point"] += any(item == Wedge(()) for item, _ in raw)
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


def _imported():
    """The top-level name of every module an import statement of src names."""
    nodes = [node for _, tree in _sources() for node in ast.walk(tree)]
    names = [alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in nodes if isinstance(node, ast.ImportFrom) and node.module]
    return {name.split(".")[0] for name in names}


def test_only_constructors_merge_and_no_consumer_normalizes():
    # Blocks are put in normal form where a wedge or a product is built, and
    # the collapse to an atom is made where a term or a splitting is.
    assert _calls("_merge") == [("terms", "Wedge.__init__"), ("terms", "GaugeExpr.__init__")]
    assert _calls("normalize") == [("decomposer", "Decomposition.__init__"), ("terms", "wedge")]


def test_every_written_copy_passes_the_one_cap():
    # join_blocks is the one writer of repeated summands, text or --json, and
    # the only reader of MAX_COPIES, so no writer can leave the cap out.  It
    # appends to its caller's parts: the two --json lists, the text of a
    # splitting's suspension, a wedge's blocks and a product (a GaugeExpr or
    # a splitting's gauge half).
    assert _calls("join_blocks") == [
        ("cli", "_splitting_json"), ("cli", "_splitting_json"),
        ("decomposer", "splitting_parts"), ("terms", "render"),
        ("terms", "product_parts")]
    assert _calls("MAX_COPIES", reads=True) == [("terms", "join_blocks")]
    # the per-copy list is gone: nothing in src defines, calls or reads it
    for gone in ("copies", "_capped", "summands"):
        assert not hasattr(gauge4.terms, gone) and not hasattr(Decomposition, gone)
        assert _calls(gone) == _calls(gone, reads=True) == []


def test_one_error_line_writer_and_no_wrapper_left():
    # Every "error: " line is written by the one f-string in cli.run; the
    # merged handlers, the inlined wrappers, the _set source generator and the
    # json writer are neither defined, called nor read anywhere in src, src runs
    # no code it builds at run time, and no module of src imports json: every
    # --json document is written by hand.
    nodes = [(module, node) for module, tree in _sources() for node in ast.walk(tree)]
    heads = [node for _, node in nodes
             if isinstance(node, ast.Constant) and str(node.value).startswith("error: ")]
    run = next(node for module, node in nodes
               if module == "cli" and getattr(node, "name", None) == "run")
    assert len(heads) == 1 and heads[0] in list(ast.walk(run))
    defined = {node.name for _, node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {node.id for _, node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    for gone in ("render_product", "_parser", "_cmd_decompose", "_cmd_suspension",
                 "render_suspension_half", "render_gauge_half", "_suspension_parts",
                 "_gauge_parts", "render_blocks", "_GAUGE_BASE", "of", "Point", "_setter",
                 "_dump", "LOOP", "_DOMAIN"):
        assert gone not in defined and _calls(gone) == _calls(gone, reads=True) == []
    assert [node.func.id for _, node in nodes if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("exec", "eval", "compile")] == []
    assert "json" not in _imported()


def test_one_table_of_base_summands_and_one_splitting_check():
    # terms alone says which summands are bases and how each base is written;
    # decomposer reads the table only in Decomposition, the one check of a
    # splitting, which gauge_from_suspension reads a wedge through with no
    # map_space call, check or error line of its own.
    assert _calls("GAUGE_BASE", reads=True) == [
        ("decomposer", "Decomposition.__init__"), ("decomposer", "Decomposition.base"),
        ("terms", "map_space")]
    assert _calls("_BASE_NAMES", reads=True) == [
        ("terms", "GaugeExpr.__init__"), ("terms", "product_parts")]
    assert _calls("map_space") == [
        ("decomposer", "Decomposition.__init__"), ("decomposer", "Decomposition.factors")]
    body = next(node for _, tree in _sources() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "gauge_from_suspension")
    assert not [node for node in ast.walk(body) if isinstance(node, (ast.Raise, ast.Try))]
    assert [node.func.id for node in ast.walk(body)
            if isinstance(node, ast.Call)] == ["Decomposition"]


def test_the_loop_order_rule_is_written_once():
    # Map*(S^n, G) = O^{n-1}G and Map*(P^n(q), G) = O^{n-1}G{q}: loop_pair alone
    # takes 1 from a summand's dimension, and its four readers are the loop-factor
    # text column of _ATOMS (through _factor_text), --json, map_space and the check
    # of a splitting's two end blocks.
    dim_minus_one = [(module, ast.unparse(node)) for module, tree in _sources()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                     and getattr(node.left, "attr", None) == "dim"
                     and getattr(node.right, "value", None) == 1]
    assert dim_minus_one == [("terms", "summand.dim - 1")]
    sources = [path.read_text() for path in Path(gauge4.__file__).parent.glob("*.py")]
    assert sum(text.count(".dim - 1") for text in sources) == 1
    assert _calls("loop_pair") == [
        ("cli", "_factor_json"), ("decomposer", "Decomposition.__init__"),
        ("decomposer", "Decomposition.__init__"), ("terms", "_factor_text"),
        ("terms", "map_space")]
    assert [row[FACTOR_TEXT] for row in (_ATOMS[Sphere], _ATOMS[Moore])] == [_factor_text] * 2


def _constants(*values):
    """(module, value) of every constant in src equal to one of values."""
    return [(module, node.value) for module, tree in _sources() for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in values]


def test_each_base_name_is_written_once_in_terms():
    # terms names the two gauge bases, and every other module imports the names.
    assigned = [(module, node.id) for module, tree in _sources() for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node.id in ("S4", "CP2")]
    assert assigned == [("terms", "S4"), ("terms", "CP2")]
    assert _constants("S4", "CP2") == [("terms", "S4"), ("terms", "CP2")]


def test_the_simply_connected_label_is_written_once():
    # it is Pi1Kind.TRIVIAL's value, which --json writes as it writes every other case
    assert _constants("simply_connected") == [("manifold", "simply_connected")]
    assert "Pi1Kind" not in vars(cli)


def test_one_digit_class_and_one_reader_for_every_integer_written_as_text():
    # value.decimal is the one int() of text, for the five grammars and the five integer
    # flags alike, and value.digits the one test of a run of digits: decimal's, and each
    # grammar's own before it hands a run to decimal, so a grammar's integer has no sign.
    # No module of src imports re: every grammar is read with str methods.
    assert _calls("int") == [("value", "decimal")]
    assert _calls("decimal") == [
        ("classifier", "parse_group"), ("cli", "_int_arg"), ("homology", "parse_matrix"),
        ("manifold", "parse_pi1"), ("terms", "_parse_atom"), ("terms", "_parse_atom"),
        ("terms", "_parse_atom")]
    assert _calls("digits") == [
        ("classifier", "parse_group"), ("manifold", "parse_pi1"), ("terms", "_parse_atom"),
        ("terms", "_parse_atom"), ("terms", "_parse_atom"), ("value", "decimal")]
    assert _calls("isdigit") == [("value", "digits")]
    assert [text for text in ("0123456789", "", "\u0663", "\uff13", "\u00b2", "1_0", "+1", " 1")
            if digits(text)] == ["0123456789"]
    assert not {"re", "enum", "collections", "functools"} & _imported()
    sources = [path.read_text() for path in Path(gauge4.__file__).parent.glob("*.py")]
    assert not any("\\d" in text or "[0-9]" in text for text in sources)


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
    for bad in [Sphere(1), Sphere(6), Moore(2, 3), Moore(5, 3), Wedge(())]:
        with pytest.raises(TermError):
            map_space(bad)


def test_map_space_keeps_the_summand_order_on_its_domain():
    # Loop factors sort by their own key, (-k, has modulus, q), and summand order
    # is loop-factor order, so the gauge half of a splitting is written in the
    # order of its summands.
    domain = [Sphere(k) for k in (2, 3, 4)]
    domain += [Moore(k, q) for k in (3, 4) for q in (2, 3, 9, 25, 27)]
    random.Random(36).shuffle(domain)
    assert [map_space(x) for x in sorted(domain, key=_atom_key)] == sorted(
        map(map_space, domain), key=_atom_key)
    assert [map_space(x) for x in domain] == [LoopFactor(*loop_pair(x)) for x in domain]


def test_map_space_is_injective_on_its_domain():
    domain = [Sphere(k) for k in (2, 3, 4)]
    domain += [Moore(k, q) for k in (3, 4) for q in range(2, 31)]
    images = [map_space(x) for x in domain]
    assert len(set(images)) == len(images)


# --------------------------------------------------------------------------
# rendering


def test_render_atoms():
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
    assert render(Wedge(((Wedge(()), 1), (Wedge(((Sphere(3), 1),)), 1)))) == "S^3"


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
    raw = Wedge(((Sphere(4), 0), (Wedge(((Sphere(3), 2), (Wedge(()), 5))), 3), (Sphere(3), 1)))
    assert normalize(raw) == Wedge(((Sphere(3), 7),))
    assert normalize(Wedge(((Sphere(4), 0),))) == Wedge(())
    expr = GaugeExpr("S4", 0, ((LoopFactor(3), 0), (LoopFactor(1), 2), (LoopFactor(1), 1)))
    assert expr.blocks == ((LoopFactor(1), 3),)
    assert expr == GaugeExpr("S4", 0, ((LoopFactor(1), 3),))


# --------------------------------------------------------------------------
# grammar


def test_no_part_holds_more_than_copies_per_part():
    # A long piece is cut into repeats of COPIES_PER_PART copies, one str object
    # appended again, and one more for the rest; no part is empty.
    n = COPIES_PER_PART
    for count in (1, 2, n, n + 1, n + 2, 2 * n + 1, 3 * n + 7):
        parts = join_blocks([], [("S^3", count), ("S^2", 1)], " v ")
        assert "".join(parts) == " v ".join(["S^3"] * count + ["S^2"]), count
        assert all(parts) and max(part.count("S^3") for part in parts) <= n
        assert len({id(part) for part in parts if part.count("S^3") == n}) <= 1


def test_written_out_copies_are_capped_before_expanding(hang_guard):
    parts = ["[", "x"]  # join_blocks appends to its caller's parts
    assert join_blocks(parts, [("S^3", 2), ("P^3(5)", 0), ("S^2", 1)], ", ") is parts
    assert "".join(parts) == "[xS^3, S^3, S^2"
    text = "".join(join_blocks([], [("{}", MAX_COPIES - 1), ("[]", 1)], ", "))
    assert text.split(", ") == ["{}"] * (MAX_COPIES - 1) + ["[]"]
    assert render_blocks([(Sphere(3), 2), (Moore(3, 5), 0), (Sphere(2), 1)], " v ") == (
        "S^3 v S^3 v S^2")
    text = render_blocks([(Sphere(3), MAX_COPIES - 1), (Sphere(2), 1)], " v ")
    assert len(text.split(" v ")) == MAX_COPIES
    for huge in ([(Sphere(3), MAX_COPIES), (Sphere(2), 1)], [(Sphere(3), 10**18)]):
        parts = ["["]
        with pytest.raises(ValueError, match="limit of 10\\*\\*6"):
            join_blocks(parts, [(render(atom), n) for atom, n in huge], ", ")
        assert parts == ["["]  # nothing appended
        with pytest.raises(ValueError, match="limit of 10\\*\\*6"):
            render_blocks(huge, " v ")
    # the G_t(...) head of a product is not one of the copies
    text = render(GaugeExpr("S4", 0, ((LoopFactor(2), MAX_COPIES),)))
    assert len(text.split(" x ")) == MAX_COPIES + 1
    with pytest.raises(ValueError, match="limit of 10\\*\\*6"):
        render(GaugeExpr("S4", 0, ((LoopFactor(2), MAX_COPIES + 1),)))
    # the symbolic (S^3)^{n+2d} block is one piece, whatever n
    pieces = block_pieces([(Sphere(5), 1), (Sphere(3), 10**18)], Sphere(3))
    assert "".join(join_blocks([], pieces, " v ")) == "S^5 v (S^3)^{1000000000000000000+2d}"
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
    assert parse_term("pt") == Wedge(())
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


def test_render_and_parse_term_name_what_they_refuse():
    with pytest.raises(TermError, match="^cannot render 42$"):
        render(42)
    with pytest.raises(TermError, match="^empty term$"):
        parse_term("  ")
    with pytest.raises(TermError, match=r"^bad term atom: 'Q\^3'$"):
        parse_term("Q^3")


def test_parse_term_refuses_more_digits_than_python_reads():
    # int() stops at 4300 digits; each number of an atom is refused with
    # gauge4's own line, not Python's, and 4300 digits are still read.
    many = "9" * 4400
    for text, what in ((f"S^{many}", "sphere dimension"), (f"P^{many}(3)", "Moore space dimension"),
                       (f"P^3({many})", "Moore space modulus")):
        with pytest.raises(TermError, match=f"^{what} has more than 4300 digits$"):
            parse_term(text)
    assert parse_term("S^" + "9" * 4300) == Sphere(int("9" * 4300))


def test_parse_render_round_trip():
    rng = random.Random(13)
    for _ in range(300):
        norm = normalize(random_term(rng))
        assert parse_term(render(norm)) == norm
