"""Normal forms, the summand -> loop-factor correspondence, and rendering."""

import ast
import functools
import random
from itertools import groupby
from pathlib import Path

import pytest

import gauge4
from conftest import (expand, gauge_half, gauge_product, product_every_copy, random_atom,
                      random_term)
from gauge4 import (
    SYMBOLIC,
    Decomposition,
    DecompositionError,
    Moore,
    Pi1Descriptor,
    Pi1Kind,
    Sphere,
    SuspCP2,
    TermError,
    Wedge,
    decompose,
    homology_of_term,
    manifold,
    render,
)
from gauge4 import cli
from gauge4.arith import MAX_COPIES
from gauge4.terms import (
    _ATOMS,
    COPIES_PER_PART,
    FACTOR_JSON,
    FACTOR_TEXT,
    JSON,
    TEXT,
    _atom_key,
    _factor_json,
    _factor_text,
    as_wedge,
    join_blocks,
    loop_pair,
)
from gauge4.value import digits


def render_blocks(blocks, sep):
    """Sorted (term, count) blocks, count copies each, joined by sep, as a wedge is written."""
    return "".join(join_blocks(blocks, TEXT, sep)[0])


def test_a_wedge_sorts_flattens_and_drops_points():
    raw = Wedge(
        (
            (Moore(3, 9), 1),
            (Wedge(((Sphere(4), 1), (SuspCP2(), 1), (Wedge(()), 1))), 1),
            (Sphere(2), 1),
            (Sphere(4), 1),
        )
    )
    assert raw.blocks == ((SuspCP2(), 1), (Sphere(4), 2), (Moore(3, 9), 1), (Sphere(2), 1))
    assert raw == Wedge(
        ((SuspCP2(), 1), (Sphere(4), 2), (Moore(3, 9), 1), (Sphere(2), 1))
    )


def test_a_degenerate_wedge_is_empty_or_one_block():
    # no term collapses to an atom: one copy of an atom is a wedge of one block,
    # and as_wedge gives an atom as that wedge and a wedge as itself
    assert Wedge(((Wedge(()), 1), (Wedge(()), 1))) == Wedge(()) and Wedge(()).blocks == ()
    assert Wedge(((Sphere(3), 1),)).blocks == ((Sphere(3), 1),)
    assert Wedge(((Wedge(()), 1), (Moore(4, 5), 1))).blocks == ((Moore(4, 5), 1),)
    assert as_wedge(Sphere(2)) == Wedge(((Sphere(2), 1),)) != Sphere(2)
    assert as_wedge(SuspCP2()).blocks == ((SuspCP2(), 1),)
    for wedge in (Wedge(()), Wedge(((Sphere(3), 1),)), Wedge(((Moore(3, 9), 2),))):
        assert as_wedge(wedge) is wedge


def test_a_wedge_orders_by_dim_down_then_kind_then_modulus():
    got = Wedge((part, 1) for part in
                [SuspCP2(), Moore(4, 3), Moore(3, 9), Moore(3, 3), Sphere(5), Sphere(1)])
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


def test_a_wedge_is_idempotent_and_order_insensitive():
    rng = random.Random(11)
    for _ in range(300):
        term = random_term(rng)
        norm = as_wedge(term)
        assert Wedge(norm.blocks) == Wedge(((norm, 1),)) == as_wedge(norm) == norm
        assert Wedge(norm.blocks).blocks == norm.blocks
        parts = [atom for atom, count in norm.blocks for _ in range(count)]
        rng.shuffle(parts)
        assert Wedge((part, 1) for part in parts) == norm


def test_wedge_is_associative_up_to_normal_form():
    rng = random.Random(12)
    for _ in range(100):
        a, b, c = (random_term(rng) for _ in range(3))
        assert Wedge(((Wedge(((a, 1), (b, 1))), 1), (c, 1))) == Wedge(
            ((a, 1), (Wedge(((b, 1), (c, 1))), 1)))


def test_term_constructor_guards():
    with pytest.raises(TermError):
        Sphere(0)
    with pytest.raises(TermError):
        Moore(1, 3)
    with pytest.raises(TermError):
        Moore(3, 1)
    with pytest.raises(TermError):
        Wedge(((Pi1Descriptor(), 1),))
    with pytest.raises(TermError, match="^not a space term: "):
        as_wedge(Pi1Descriptor())


#: Raw wedges that the consumers of a wedge once had to normalize first.
RAW_WEDGES = [
    Wedge(((Wedge(((Sphere(2), 1),)), 1),)),
    Wedge(((Wedge(()), 1), (Sphere(3), 1))),
    Wedge(((Sphere(5), 1), (Wedge(((Sphere(3), 2),)), 1))),
    Wedge(((Sphere(3), 1), (Sphere(2), 1))),
    Wedge(((Sphere(2), 1), (Sphere(3), 1))),
]


def _gauge_answer(susp):
    """The gauge half of the unstabilized splitting susp is, or the type and text
    of what refuses it."""
    try:
        return gauge_half(Decomposition(susp, 1, 0, Pi1Kind.TRIVIAL))
    except (TermError, DecompositionError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("raw", RAW_WEDGES, ids=render)
def test_a_raw_wedge_answers_as_its_normal_form(raw):
    atoms = expand(raw.blocks)
    norm = atoms[0] if len(atoms) == 1 else raw  # one copy answers as its atom
    assert homology_of_term(raw) == homology_of_term(norm)
    assert _gauge_answer(raw) == _gauge_answer(norm)
    assert render(raw) == render(norm)


def test_motivation_answers():
    assert homology_of_term(RAW_WEDGES[0]) == homology_of_term(Sphere(2))
    assert homology_of_term(RAW_WEDGES[1]) == homology_of_term(Sphere(3))
    assert _gauge_answer(RAW_WEDGES[2]) == "G_1(M) = G_1(S^4) x O^2G x O^2G"
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
    pi1 = r"Pi1Descriptor\(free_rank=0, cyclic_factors=\(\)\)"
    with pytest.raises(TermError, match=rf"^not a space term: {pi1}$"):
        Wedge(((Pi1Descriptor(), 1),))
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
    # Blocks are put in normal form where a wedge is built, and nothing collapses
    # a wedge to an atom: the two readers of a term's blocks, a splitting and its
    # homology, take the term as its wedge.
    assert _calls("_merge") == [("terms", "Wedge.__init__")]
    assert _calls("normalize") == _calls("normalize", reads=True) == []
    assert _calls("as_wedge") == [("decomposer", "Decomposition.__init__"),
                                  ("homology", "homology_of_term")]


def test_every_written_copy_passes_the_one_cap():
    # join_blocks is the one writer of repeated summands and loop factors, text
    # or --json, and the only reader of MAX_COPIES, so no writer can leave the cap
    # out.  Each caller writes all it needs in one call: both --json lists, both
    # text halves of a splitting, and a wedge's blocks.
    assert _calls("join_blocks") == [
        ("cli", "_splitting_json"), ("decomposer", "splitting_parts"), ("terms", "render")]
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
                 "_dump", "LOOP", "_DOMAIN", "LoopFactor", "GaugeExpr", "map_space",
                 "gauge_from_suspension", "product_parts", "_loop_text", "_BASE_NAMES",
                 "normalize", "_atom_json"):
        assert gone not in defined and _calls(gone) == _calls(gone, reads=True) == []
    # the gauge half is text written from the blocks; a splitting stores no product
    assert not hasattr(Decomposition, "factors") and not hasattr(Decomposition, "gauge")
    assert [node.func.id for _, node in nodes if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("exec", "eval", "compile")] == []
    assert "json" not in _imported()


def test_one_table_of_base_summands_and_one_splitting_check():
    # terms alone says which summands are bases and how each base is written;
    # decomposer reads the table only in Decomposition, the one check of a
    # splitting, and writes a base's name only in the gauge half.
    assert _calls("GAUGE_BASE", reads=True) == [
        ("decomposer", "Decomposition.__init__"), ("decomposer", "Decomposition.__init__"),
        ("decomposer", "Decomposition.base")]
    assert _calls("BASE_NAMES", reads=True) == [("decomposer", "splitting_parts")]


def test_the_loop_order_rule_is_written_once():
    # Map*(S^n, G) = O^{n-1}G and Map*(P^n(q), G) = O^{n-1}G{q}: loop_pair alone
    # takes 1 from a summand's dimension, and its readers are the two loop-factor
    # columns of _ATOMS (through _factor_text and _factor_json), and the check of a
    # splitting's two end blocks, which also names the end a refusal is for.
    # cli writes --json from those columns, so it reads no summand's class.
    dim_minus_one = [(module, ast.unparse(node)) for module, tree in _sources()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                     and getattr(node.left, "attr", None) == "dim"
                     and getattr(node.right, "value", None) == 1]
    assert dim_minus_one == [("terms", "summand.dim - 1")]
    sources = [path.read_text() for path in Path(gauge4.__file__).parent.glob("*.py")]
    assert sum(text.count(".dim - 1") for text in sources) == 1
    assert _calls("loop_pair") == [
        ("decomposer", "Decomposition.__init__"), ("decomposer", "Decomposition.__init__"),
        ("decomposer", "Decomposition.__init__"), ("terms", "_factor_text"),
        ("terms", "_factor_json")]
    assert [row[FACTOR_TEXT] for row in (_ATOMS[Sphere], _ATOMS[Moore])] == [_factor_text] * 2
    assert [row[FACTOR_JSON] for row in (_ATOMS[Sphere], _ATOMS[Moore])] == [_factor_json] * 2
    for name in ("_atom_json", "_factor_json", "Sphere", "Moore", "SpaceTerm", "loop_pair"):
        assert name not in vars(cli), name


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
    # it is Pi1Kind.TRIVIAL, which --json writes as it writes every other case
    assert _constants("simply_connected") == [("manifold", "simply_connected")]
    assert "Pi1Kind" not in vars(cli)


def test_one_digit_class_and_one_reader_for_every_integer_written_as_text():
    # value.decimal is the one int() of text, for the four grammars alike (the integer
    # flags, --pi1, --group and --matrix), and value.digits the one test of a run of
    # digits: decimal's, and each other grammar's own before it hands a run to decimal,
    # so such a grammar's integer has no sign.
    # No module of src imports re: every grammar is read with str methods.
    assert _calls("int") == [("value", "decimal")]
    assert _calls("decimal") == [
        ("classifier", "parse_group"), ("cli", "_int_arg"), ("homology", "parse_matrix"),
        ("manifold", "parse_pi1")]
    assert _calls("digits") == [
        ("classifier", "parse_group"), ("manifold", "parse_pi1"), ("value", "decimal")]
    assert _calls("isdigit") == [("value", "digits")]
    assert [text for text in ("0123456789", "", "\u0663", "\uff13", "\u00b2", "1_0", "+1", " 1")
            if digits(text)] == ["0123456789"]
    assert not {"re", "enum", "collections", "functools"} & _imported()
    sources = [path.read_text() for path in Path(gauge4.__file__).parent.glob("*.py")]
    assert not any("\\d" in text or "[0-9]" in text for text in sources)


# --------------------------------------------------------------------------
# the correspondence


def test_loop_pair_table():
    # (n - 1, None) for S^n and (n - 1, q) for P^n(q), one pair each, on S^2..S^4, P^3(q)
    # and P^4(q)
    moore = [(k, q) for k in (3, 4) for q in range(2, 31)]
    assert [loop_pair(x) for x in [Sphere(k) for k in (2, 3, 4)] + [Moore(*m) for m in moore]] == [
        (1, None), (2, None), (3, None)] + [(k - 1, q) for k, q in moore]


@pytest.mark.parametrize("bad", [Sphere(5), SuspCP2(), Sphere(1), Sphere(6), Moore(2, 3),
                                 Moore(5, 3), Moore(2, 9), Moore(5, 25), Wedge(())], ids=render)
def test_loop_pair_gives_no_pair_outside_its_domain(bad):
    # None for both bases and everything else
    assert loop_pair(bad) is None


def test_loop_pair_keeps_the_summand_order_on_its_domain():
    # Sorted summands give their pairs by loop order down, then O^kG before
    # O^kG{q}, then by q, so the gauge half of a splitting is written in the
    # order of its summands.
    domain = [Sphere(k) for k in (2, 3, 4)]
    domain += [Moore(k, q) for k in (3, 4) for q in (2, 3, 9, 25, 27)]
    random.Random(36).shuffle(domain)
    pairs = [loop_pair(x) for x in sorted(domain, key=_atom_key)]
    assert pairs == sorted(pairs, key=lambda pair: (-pair[0], pair[1] is not None, pair[1] or 0))
    blocks = Wedge([(Sphere(5), 1), *[(x, 1) for x in domain]]).blocks
    assert join_blocks(blocks, TEXT, " v ", FACTOR_TEXT, " x ")[1][::2] == [
        f"O^{k}G" if q is None else f"O^{k}G{{{q}}}" for k, q in pairs]


# --------------------------------------------------------------------------
# rendering


@pytest.mark.parametrize("term,text", [
    (Sphere(3), "S^3"), (Moore(4, 9), "P^4(9)"), (SuspCP2(), "SCP^2"),
    # a wedge is built in normal form whatever blocks it is given, so it renders as one
    (Wedge(((Moore(3, 3), 1), (Sphere(5), 1), (Sphere(2), 1))), "S^5 v P^3(3) v S^2"),
    (Wedge(((Sphere(2), 1), (Sphere(5), 1))), "S^5 v S^2"),
    (Wedge(()), "pt"),
    (Wedge(((Wedge(()), 1), (Wedge(((Sphere(3), 1),)), 1))), "S^3"),
    # each copy of a block is written, and a point as pt
    (Wedge(((Sphere(3), 3),)), "S^3 v S^3 v S^3"),
    (Wedge(((Moore(4, 27), 2), (SuspCP2(), 1), (Wedge(()), 5))), "SCP^2 v P^4(27) v P^4(27)"),
    (Wedge(((Wedge(()), 2), (Sphere(4), 0))), "pt"),
    (Wedge(((Wedge(((Sphere(2), 2),)), 2),)), " v ".join(["S^2"] * 4)),
])
def test_render_table(term, text):
    assert render(term) == text


def test_factor_text_of_a_sphere_and_a_moore_space():
    assert _factor_text(Sphere(2)) == "O^1G"
    assert _factor_text(Moore(4, 27)) == "O^3G{27}"


def test_render_writes_every_digit_of_its_numbers():
    # A number runs to the 4300 digits Python writes, with no sign, separator or exponent.
    big = int("9" * 4300)
    assert render(Sphere(big)) == "S^" + "9" * 4300
    assert render(Moore(3, 2**64 + 1)) == "P^3(18446744073709551617)"
    assert render(Wedge(((Moore(big, big), 2),))) == " v ".join([f"P^{big}({big})"] * 2)


def test_render_is_injective_on_normal_forms():
    # Two terms render alike only when their normal forms are equal, so a written wedge
    # names one space.
    rng = random.Random(13)
    seen = {}
    for _ in range(300):
        norm = as_wedge(random_term(rng))
        assert seen.setdefault(render(norm), norm) == norm
    assert len(seen) > 100, len(seen)


def _product(base, t, summands, stabilization=0):
    """The product written for the splitting of base and the (summand, count) blocks."""
    return gauge_product(Decomposition(Wedge([(base, 1), *summands]), t, stabilization,
                                       Pi1Kind.MIXED))


GIVEN = [(Sphere(3), 1), (Moore(3, 3), 1), (Moore(4, 3), 1), (Sphere(2), 1)]


@pytest.mark.parametrize("base,t,summands,stabilization,text", [
    (Sphere(5), 2, [(Sphere(2), 1), (Sphere(4), 1)], 0, "G_2(S^4) x O^3G x O^1G"),
    # summands given in any order and repeated are one splitting, written in order
    (SuspCP2(), 4, GIVEN, 0, "G_4(CP^2) x O^3G{3} x O^2G x O^2G{3} x O^1G"),
    (SuspCP2(), 4, GIVEN[::-1], 0, "G_4(CP^2) x O^3G{3} x O^2G x O^2G{3} x O^1G"),
    (Sphere(5), 0, [(Sphere(2), 1), (Moore(4, 5), 1), (Sphere(2), 1)], 0,
     "G_0(S^4) x O^3G{5} x O^1G x O^1G"),
    (Sphere(5), 0, [], 0, "G_0(S^4)"),
    (SuspCP2(), -3, [], 0, "G_-3(CP^2)"),
    (Sphere(5), 1, [(Sphere(3), 2), (Moore(3, 3), 1), (Sphere(4), 1)], SYMBOLIC,
     "G_1(S^4) x O^3G x (O^2G)^{2+2d} x O^2G{3}"),
    (Sphere(5), 0, [(Sphere(4), 1), (Moore(3, 9), 1)], SYMBOLIC,
     "G_0(S^4) x O^3G x (O^2G)^{2d} x O^2G{9}"),
    (Sphere(5), 0, [], SYMBOLIC, "G_0(S^4) x (O^2G)^{2d}"),
])
def test_gauge_product_table(base, t, summands, stabilization, text):
    assert _product(base, t, summands, stabilization) == text


def test_counts_are_checked_and_merged_where_blocks_are_built():
    with pytest.raises(TermError, match="^block count must be >= 0, got -1$"):
        Wedge(((Sphere(3), 2), (Moore(3, 9), -1)))
    # Zero blocks vanish, equal terms merge, nested counts multiply.
    raw = Wedge(((Sphere(4), 0), (Wedge(((Sphere(3), 2), (Wedge(()), 5))), 3), (Sphere(3), 1)))
    assert raw == Wedge(((Sphere(3), 7),)) and raw.blocks == ((Sphere(3), 7),)
    assert Wedge(((Sphere(4), 0),)) == Wedge(())


# --------------------------------------------------------------------------
# grammar


def test_no_part_holds_more_than_copies_per_part():
    # A long piece is cut into repeats of COPIES_PER_PART copies, one str object
    # appended again, and one more for the rest; no part is empty.  The loop
    # factors of the blocks after the base are cut the same way.
    n = COPIES_PER_PART
    for count in (1, 2, n, n + 1, n + 2, 2 * n + 1, 3 * n + 7):
        blocks = [(Sphere(5), 1), (Sphere(3), count), (Sphere(2), 1)]
        suspension, factors = join_blocks(blocks, TEXT, " v ", FACTOR_TEXT, " x ")
        assert "".join(suspension) == " v ".join(["S^5"] + ["S^3"] * count + ["S^2"]), count
        assert "".join(factors) == " x ".join(["O^2G"] * count + ["O^1G"]), count
        for parts, text in ((suspension, "S^3"), (factors, "O^2G")):
            assert all(parts) and max(part.count(text) for part in parts) <= n
            assert len({id(part) for part in parts if part.count(text) == n}) <= 1


def test_written_out_copies_are_capped_before_expanding(hang_guard):
    # Exactly MAX_COPIES copies are written, in text and in --json alike.
    blocks = [(Sphere(3), MAX_COPIES - 1), (Sphere(2), 1)]
    assert render_blocks(blocks, " v ").split(" v ") == ["S^3"] * (MAX_COPIES - 1) + ["S^2"]
    text = "".join(join_blocks(blocks, JSON, ", ")[0])
    s3, s2 = ('{"dim": %d, "kind": "sphere", "modulus": null}' % dim for dim in (3, 2))
    assert text == ", ".join([s3] * (MAX_COPIES - 1) + [s2])
    # Zero blocks vanish where the wedge is built, so none reaches the writer.
    assert render(Wedge([(Sphere(3), 2), (Moore(3, 5), 0), (Sphere(2), 1)])) == "S^3 v S^3 v S^2"
    # One copy more is refused, with one line, before any string repeat is built:
    # 10^18 copies would not fit in memory.
    for huge, total in (([(Sphere(3), MAX_COPIES), (Sphere(2), 1)], MAX_COPIES + 1),
                        ([(Sphere(3), 10**18)], 10**18)):
        line = f"^the answer writes out {total} copies, more than the limit of 10\\*\\*6$"
        for column in (TEXT, JSON):
            with pytest.raises(ValueError, match=line):
                join_blocks(huge, column, ", ")
    # The cap counts the suspension's copies, the base among them; the loop
    # factors, one fewer, are each written, and the G_t(...) head is not a copy.
    for n in (MAX_COPIES, MAX_COPIES + 1):
        blocks = [(Sphere(5), 1), (Sphere(3), n - 1)]
        if n == MAX_COPIES:
            factors = join_blocks(blocks, TEXT, " v ", FACTOR_TEXT, " x ")[1]
            assert "".join(factors).split(" x ") == ["O^2G"] * (n - 1)
            assert _product(Sphere(5), 0, blocks[1:]).split(" x ") == (
                ["G_0(S^4)"] + ["O^2G"] * (n - 1))
        else:
            with pytest.raises(ValueError, match="limit of 10\\*\\*6"):
                join_blocks(blocks, TEXT, " v ", FACTOR_TEXT, " x ")
    # the symbolic (S^3)^{n+2d} block, and its (O^2G)^{n+2d}, is one copy, whatever n
    halves = join_blocks([(Sphere(5), 1), (Sphere(3), 10**18)], TEXT, " v ", FACTOR_TEXT, " x ",
                         True)
    assert ["".join(half) for half in halves] == [
        "S^5 v (S^3)^{1000000000000000000+2d}", "(O^2G)^{1000000000000000000+2d}"]
    assert _product(Sphere(5), 0, [(Sphere(3), 10**18)], SYMBOLIC) == (
        "G_0(S^4) x (O^2G)^{1000000000000000000+2d}")


def test_block_joiner_matches_joining_every_copy(hang_guard):
    rng = random.Random(29)
    for _ in range(300):
        parts = as_wedge(random_term(rng)).blocks
        for sep in (" v ", " x "):
            assert render_blocks(parts, sep) == sep.join(render(a) for a in expand(parts))
    dec = decompose(manifold("1", MAX_COPIES - 1))
    blocks = dec.suspension.blocks
    assert blocks == ((Sphere(5), 1), (Sphere(3), MAX_COPIES - 1))
    assert render_blocks(blocks, " v ") == " v ".join(map(render, expand(blocks)))
    assert gauge_product(dec) == product_every_copy(dec) == " x ".join(
        ["G_0(S^4)", *["O^2G"] * (MAX_COPIES - 1)])


def test_render_names_what_it_refuses():
    with pytest.raises(TermError, match="^cannot render 42$"):
        render(42)
