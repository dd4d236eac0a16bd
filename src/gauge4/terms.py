"""Formal space terms for suspension splittings, and gauge-side product terms.

The term language covers exactly the spaces that show up when a closed
orientable 4-manifold is suspended: spheres ``S^n``, Moore spaces ``P^n(q)``
(the complex whose only reduced homology is ``Z/q`` in degree ``n-1``), the
suspended complex projective plane ``SCP^2``, and finite wedges of these; the
one-point space ``pt`` is the empty wedge.

On the gauge side, ``LoopFactor`` stands for an iterated loop space of the
structure group ``G`` (``O^kG``), optionally the mod-``q`` variant ``O^kG{q}``
given by pointed maps out of a Moore space, and ``GaugeExpr`` is a finite
product of such factors over a base gauge group on ``S^4`` or ``CP^2``.

Wedges and products are multisets of ``(term, count)`` blocks, built in
one normal form (nested wedges flattened, merged, zero-free, sorted by
``_atom_key``), so no raw wedge exists: they compare by plain equality and
cost the number of distinct terms, not of copies.  ``normalize`` only
collapses a single copy to its atom.

Text is written as a list of string parts joined once.  ``block_pieces``
gives the (text, count) piece of each block, from a text column of
``_ATOMS``; ``join_blocks`` appends the pieces, in string repeats of at most
``COPIES_PER_PART`` copies, after checking ``MAX_COPIES`` from the counts;
``render`` joins what it and a head append.

``loop_pair`` is the one rule between the two sides: a wedge summand of
dimension n after the base gives ``Map*(S^n, G) = O^{n-1}G`` and
``Map*(P^n(q), G) = O^{n-1}G{q}``.  ``map_space`` builds that factor, and the
text column of ``_ATOMS``, the --json writer and the check of a splitting
read the same pair, so no factor is built to write a splitting.
``GAUGE_BASE`` pairs each base summand, S^5 or SCP^2, with the base of the
gauge group instead, named ``S4`` or ``CP2``.
"""

from __future__ import annotations  # so Iterable and Sequence need no collections.abc

from .arith import MAX_COPIES
from .value import Value, decimal, digits, integer


class TermError(ValueError):
    """Malformed or out-of-domain space/gauge term."""


# --------------------------------------------------------------------------
# space terms


class Sphere(Value):
    __slots__ = ("dim",)

    def __init__(self, dim: int) -> None:
        integer(dim, "sphere dimension", 1, TermError)
        self._set(dim)


class Moore(Value):
    """P^dim(modulus): reduced homology Z/modulus in degree dim - 1.

    Any modulus >= 2 is a legal term.  The decomposition engine only ever
    produces odd prime-power moduli; that restriction is enforced where the
    moduli enter (the fundamental-group descriptor), not here, so the
    homology engine can still talk about spaces like P^2(6).
    """

    __slots__ = ("dim", "modulus")

    def __init__(self, dim: int, modulus: int) -> None:
        integer(dim, "Moore space dimension", 2, TermError)
        integer(modulus, "Moore space modulus", 2, TermError)
        self._set(dim, modulus)


class SuspCP2(Value):
    """The suspension of the complex projective plane."""

    __slots__ = ()


class Wedge(Value):
    """Wedge sum of (term, count) blocks, ``count`` copies of each term.

    The blocks given may nest wedges and hold zero counts and repeated
    terms; the blocks stored are their normal form (see _merge), so equal
    spaces give equal wedges whatever the order or nesting.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[tuple[SpaceTerm, int]]) -> None:
        self._set(_merge(blocks, (Sphere, Moore, SuspCP2, Wedge), "space term"))


SpaceTerm = Sphere | Moore | SuspCP2 | Wedge


def _atom_key(term: Sphere | Moore | SuspCP2 | LoopFactor) -> tuple[int, int, int]:
    """The one order of summands: top dimension down; at equal dimension
    spheres, then Moore spaces by modulus, then SCP^2; loop factors by order
    down, O^kG before O^kG{q}, by q.  Loop order n - 1 grows with n, so
    map_space keeps the order.  loop_pair's domain, S^4 through S^2, is an
    interval of the summand order after both bases, so a sorted wedge lies in
    it when its first and last summands do.  The keys are in _ATOMS, by exact
    class."""
    return _ATOMS[term.__class__][0](term)


def _merge(blocks: Iterable[tuple[SpaceTerm | LoopFactor, int]], kinds: tuple[type, ...],
           what: str) -> tuple:
    """Blocks in normal form, in one pass: each term's class must be one of
    kinds (else TermError naming what) and each count an int >= 0 (else TermError);
    a nested wedge, in normal form already, gives its blocks, their counts
    multiplied; zero blocks are dropped, equal atoms merged, and the blocks
    sorted by _atom_key."""
    # _atom_key is one-to-one on summands and on loop factors, so it is the
    # merge key as well as the sort key.
    merged: dict = {}
    for term, count in blocks:
        if term.__class__ not in kinds:
            raise TermError(f"not a {what}: {term!r}")
        integer(count, "block count", 0, TermError)
        if count and term.__class__ is Wedge:
            for atom, times in term.blocks:
                key, n = _ATOMS[atom.__class__][0](atom), count * times  # _atom_key, inlined
                merged[key] = (atom, merged[key][1] + n) if key in merged else (atom, n)
        elif count:
            key = _ATOMS[term.__class__][0](term)
            merged[key] = (term, merged[key][1] + count) if key in merged else (term, count)
    return tuple([merged[key] for key in sorted(merged)])


def blocks(term: SpaceTerm) -> tuple[tuple[SpaceTerm, int], ...]:
    """The (atom, count) blocks of a term (none for the empty wedge)."""
    if isinstance(term, Wedge):
        return term.blocks
    if isinstance(term, (Sphere, Moore, SuspCP2)):
        return ((term, 1),)
    raise TermError(f"not a space term: {term!r}")


def normalize(term: SpaceTerm) -> SpaceTerm:
    """The one term for a space: a single copy of one atom collapses to that
    atom; any other term is its own.  A wedge is in normal form where it is
    built, so nothing is merged here."""
    parts = blocks(term)
    if len(parts) == 1 and parts[0][1] == 1:
        return parts[0][0]
    return term


def wedge(parts: Iterable[SpaceTerm]) -> SpaceTerm:
    """Normalized wedge sum of any iterable of terms, one copy each."""
    return normalize(Wedge((part, 1) for part in parts))


# --------------------------------------------------------------------------
# gauge-side terms


class LoopFactor(Value):
    """O^kG, or its mod-q variant O^kG{q} when a modulus is present."""

    __slots__ = ("loop_order", "modulus")

    def __init__(self, loop_order: int, modulus: int | None = None) -> None:
        if not 1 <= integer(loop_order, "loop order", error=TermError) <= 3:
            raise TermError(f"loop order must be 1..3, got {loop_order}")
        if modulus is not None:
            integer(modulus, "loop factor modulus", 2, TermError)
        self._set(loop_order, modulus)


#: Marker for a stabilization count left as the formal variable d.
SYMBOLIC = "symbolic"

Stabilization = int | str


class GaugeExpr(Value):
    """A product decomposition G_t(base) x (loop factors), possibly stabilized.

    ``blocks`` are (loop factor, count) pairs, normalized on construction
    as a wedge's are.  ``stabilization`` counts connected sums with
    S^2 x S^2: 0 means the equivalence holds for the manifold itself, a
    positive integer d means it holds after d stabilizations (and the
    blocks already include the 2d extra copies of O^2G the stabilization
    contributes on the right), and SYMBOLIC means d is kept as a formal
    variable, in which case the blocks hold only the d-independent part.
    """

    __slots__ = ("base", "t", "blocks", "stabilization")

    def __init__(self, base: str, t: int, blocks: Sequence[tuple[LoopFactor, int]] = (),
                 stabilization: Stabilization = 0) -> None:
        if base not in _BASE_NAMES:
            raise TermError(f"gauge base must be S4 or CP2, got {base!r}")
        integer(t, "bundle class t", error=TermError)
        stabilization = check_stabilization(stabilization)
        self._set(base, t, _merge(blocks, (LoopFactor,), "loop factor"), stabilization)


def check_stabilization(d: Stabilization | None) -> Stabilization:
    """SYMBOLIC for SYMBOLIC or None, else d, a non-bool int >= 0 (else TermError)."""
    if d is None or d == SYMBOLIC:
        return SYMBOLIC
    return integer(d, "stabilization count", 0, TermError)


#: The fixed atoms of every splitting, built once and shared: S^2..S^5 by dimension, SCP^2.
SPHERE = {dim: Sphere(dim) for dim in range(2, 6)}
SCP2 = SuspCP2()

#: The bases of a gauge group, the base summand each pairs with, and each base's name.
S4, CP2 = "S4", "CP2"
GAUGE_BASE = {SPHERE[5]: S4, SCP2: CP2}
_BASE_NAMES = {S4: "S^4", CP2: "CP^2"}


def loop_pair(summand: SpaceTerm) -> tuple[int, int | None] | None:
    """(loop order, modulus) of Map*(summand, G): (n - 1, None) for S^n, (n - 1, q)
    for P^n(q); None outside S^2..S^4, P^3(q) and P^4(q), bases included."""
    cls = summand.__class__
    if cls is Sphere and 2 <= summand.dim <= 4 or cls is Moore and 3 <= summand.dim <= 4:
        return summand.dim - 1, summand.modulus if cls is Moore else None
    return None


def _loop_text(order: int, modulus: int | None) -> str:
    """The text of O^orderG, or of O^orderG{modulus}."""
    return f"O^{order}G" if modulus is None else f"O^{order}G{{{modulus}}}"


def _factor_text(summand: Sphere | Moore) -> str:
    """The text of Map*(summand, G), for a summand in loop_pair's domain, as _loop_text
    writes it; written out here, as it runs once for every block a splitting writes."""
    order, modulus = loop_pair(summand)
    return f"O^{order}G" if modulus is None else f"O^{order}G{{{modulus}}}"


#: By exact class, each atom's sort key (see _atom_key), its text (column TEXT), and
#: for a summand the text of its loop factor Map*(atom, G) (column FACTOR_TEXT).
TEXT, FACTOR_TEXT = 1, 2
_ATOMS = {
    Sphere: (lambda s: (-s.dim, 0, 0), lambda s: f"S^{s.dim}", _factor_text),
    Moore: (lambda m: (-m.dim, 1, m.modulus), lambda m: f"P^{m.dim}({m.modulus})", _factor_text),
    SuspCP2: (lambda _: (-5, 2, 0), lambda _: "SCP^2", None),
    LoopFactor: (lambda f: (-f.loop_order, 0 if f.modulus is None else 1, f.modulus or 0),
                 lambda f: _loop_text(f.loop_order, f.modulus), None),
}


def map_space(summand: SpaceTerm) -> LoopFactor:
    """The gauge factor Map*(summand, G) contributed by one wedge summand,
    built from loop_pair.  S^5 and SCP^2 are base summands, refused by name;
    everything else outside loop_pair's domain is refused too."""
    if pair := loop_pair(summand):
        return LoopFactor(*pair)
    if summand in GAUGE_BASE:
        raise TermError(f"base summand: {render(summand)}")
    raise TermError(f"no loop factor for summand: {summand!r}")


# --------------------------------------------------------------------------
# rendering


def render(obj: SpaceTerm | GaugeExpr | LoopFactor) -> str:
    """Plain-text form of a term.

    A wedge is built in normal form, so it renders in the canonical order
    (``S^3 v P^3(9)``), and the empty wedge as ``pt``; gauge expressions
    render as the right-hand side of their product decomposition
    (``G_2(S^4) x O^3G x O^1G``) through product_parts.
    """
    row = _ATOMS.get(obj.__class__)
    if row:
        return row[1](obj)
    if isinstance(obj, GaugeExpr):
        stable = LoopFactor(2) if obj.stabilization == SYMBOLIC else None
        return "".join(product_parts([], obj.base, obj.t, block_pieces(obj.blocks, stable)))
    if isinstance(obj, Wedge):
        return "".join(join_blocks([], block_pieces(obj.blocks), " v ")) or "pt"
    raise TermError(f"cannot render {obj!r}")


def product_parts(parts: list[str], base: str, t: int,
                  pieces: Sequence[tuple[str, int]]) -> list[str]:
    """parts with ``G_t(base) x ...`` appended, in pieces, from the (text,
    count) pieces block_pieces writes for the factors.  The one writer of a
    product, for a GaugeExpr and a gauge half alike."""
    parts.append(f"G_{t}({_BASE_NAMES[base]})")
    if pieces:  # pieces of blocks in normal form have no zero count
        parts.append(" x ")
    return join_blocks(parts, pieces, " x ")


def block_pieces(
    blocks: Sequence[tuple[SpaceTerm | LoopFactor, int]],
    stable: Sphere | LoopFactor | None = None,
    column: int = TEXT,
) -> list[tuple[str, int]]:
    """The (text, count) pieces join_blocks writes for sorted blocks, each
    text from the given column of _ATOMS: TEXT, or FACTOR_TEXT for the loop
    factors of summands in loop_pair's domain.

    ``stable`` is the term each S^2 x S^2 adds twice, S^3 or O^2G, when the
    stabilization count d is symbolic.  Its block, present or not, is then
    one piece where its key sorts: ``(X)^{n+2d}``, or ``(X)^{2d}`` when n = 0.
    """
    pieces, key = [], None if stable is None else _atom_key(stable)
    at, n = len(blocks), 0  # the stable block's place and count
    for term, count in blocks:
        row = _ATOMS[term.__class__]
        if key is not None and (k := row[0](term)) >= key:
            at, n, key = len(pieces), count if k == key else 0, None
        pieces.append((row[column](term), count))
    if stable is not None:
        text, power = _ATOMS[stable.__class__][column](stable), f"{n}+2d" if n else "2d"
        pieces[at : at + 1 if n else at] = [(f"({text})^{{{power}}}", 1)]
    return pieces


#: The most copies one string repeat of join_blocks holds, so no part of an answer is
#: large: a large one costs page faults to build and a copy of itself to encode.
COPIES_PER_PART = 4096


def join_blocks(parts: list[str], pieces: Sequence[tuple[str, int]], sep: str) -> list[str]:
    """parts with the text of each (text, count) piece ``count`` times,
    joined by ``sep``, appended: a piece of k > 1 copies as k - 1 copies of
    text and sep, COPIES_PER_PART of them to one str object appended as
    often as they fill it and the rest in one more, and then its text.  The
    one writer of repeated summands, for the text and the --json lists
    alike; the caller joins parts once or writes them in turn.  More than
    MAX_COPIES copies in all raise ValueError before anything is appended."""
    total = 0
    for _, count in pieces:
        total += count
    if total > MAX_COPIES:
        raise ValueError(f"the answer writes out {total} copies, more than the limit of 10**6")
    start = len(parts)
    for text, count in pieces:
        if count > 1:
            full, rest = divmod(count - 1, COPIES_PER_PART)
            if full:
                parts += [(text + sep) * COPIES_PER_PART] * full
            if rest:
                parts.append((text + sep) * rest)
        if count:
            parts += (text, sep)
    if len(parts) > start:
        parts.pop()  # the separator after the last piece
    return parts


# --------------------------------------------------------------------------
# parsing

def parse_term(text: str) -> SpaceTerm:
    """Parse the rendered form of a space term; the result is normalized.

    Grammar: atoms ``pt``, ``S^n``, ``P^n(q)``, ``SCP^2`` joined by the
    wedge separator ``v``.  Whitespace around tokens is ignored.
    """
    if not text.strip():
        raise TermError("empty term")
    parts = [p.strip() for p in text.split("v")]
    atoms = [_parse_atom(p) for p in parts]
    return wedge(atoms)


def _parse_atom(text: str) -> SpaceTerm:
    if text == "pt":
        return Wedge(())
    if text == "SCP^2":
        return SuspCP2()
    kind, _, rest = text.partition("^")  # S^n, or P^n(q)
    if kind == "S" and digits(rest):
        return Sphere(decimal(rest, "sphere dimension", TermError))
    n, _, q = rest.partition("(")
    if kind == "P" and digits(n) and q[-1:] == ")" and digits(q[:-1]):
        return Moore(decimal(n, "Moore space dimension", TermError),
                     decimal(q[:-1], "Moore space modulus", TermError))
    raise TermError(f"bad term atom: {text!r}")
