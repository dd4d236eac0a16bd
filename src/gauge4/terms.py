"""Formal space terms for suspension splittings, and the text of their gauge side.

The term language covers exactly the spaces that show up when a closed
orientable 4-manifold is suspended: spheres ``S^n``, Moore spaces ``P^n(q)``
(the complex whose only reduced homology is ``Z/q`` in degree ``n-1``), the
suspended complex projective plane ``SCP^2``, and finite wedges of these; the
one-point space ``pt`` is the empty wedge.

On the gauge side, each wedge summand after the base gives a loop factor:
an iterated loop space of the structure group ``G`` (``O^kG``), or its
mod-``q`` variant ``O^kG{q}`` given by pointed maps out of a Moore space.
No value stands for a loop factor; its text is written from the summand.

Wedges are multisets of ``(term, count)`` blocks, which ``Wedge(...)`` builds
in one normal form (nested wedges flattened, merged, zero-free, sorted by
``_atom_key``).  The one caller that builds a wedge past it,
``decomposer._assemble``, writes its blocks in that form and takes them as
given (``Wedge._as_given``); the box test of ``tests/test_cli.py`` checks
that ``Wedge`` gives back the same blocks on each of its splittings.  So no
raw wedge exists: wedges compare by plain equality and cost the number of
distinct terms, not of copies.  ``as_wedge`` gives any
term as its wedge, an atom as one block of one copy, so a reader of blocks
meets one form.

Text and --json are written as lists of string parts joined once.
``join_blocks`` adds up the copies of sorted blocks and checks ``MAX_COPIES``,
then in one pass appends each summand's text or --json object and, for a
splitting, each loop factor's, from two columns of ``_ATOMS``, straight into
two lists, in string repeats of at most ``COPIES_PER_PART`` copies.

``loop_pair`` is the one rule between the two sides: a wedge summand of
dimension n after the base gives ``Map*(S^n, G) = O^{n-1}G`` and
``Map*(P^n(q), G) = O^{n-1}G{q}``.  The two loop-factor columns of
``_ATOMS``, text and --json, and the check of a splitting read that pair.
``GAUGE_BASE`` pairs each base summand, S^5 or SCP^2, with the base of the
gauge group instead, named ``S4`` or ``CP2`` and written as ``BASE_NAMES`` says.
"""

from .arith import MAX_COPIES
from .value import Value, integer


class TermError(ValueError):
    """Malformed or out-of-domain space term."""


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
    spaces give equal wedges whatever the order or nesting.  ``_as_given``
    takes a tuple of blocks in that form as it is, for decomposer._assemble.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: "Iterable[tuple[SpaceTerm, int]]") -> None:
        self._set(_merge(blocks))


SpaceTerm = Sphere | Moore | SuspCP2 | Wedge


def _atom_key(term: "Sphere | Moore | SuspCP2") -> tuple[int, int, int]:
    """The one order of summands: top dimension down; at equal dimension
    spheres, then Moore spaces by modulus, then SCP^2.  Loop order n - 1 grows
    with n, so the loop factors of sorted summands are sorted too: by order
    down, O^kG before O^kG{q}, by q.  loop_pair's domain, S^4 through S^2, is
    an interval of the summand order after both bases, so a sorted wedge lies
    in it when its first and last summands do.  The keys are in _ATOMS, by
    exact class."""
    return _ATOMS[term.__class__][0](term)


def _merge(blocks: "Iterable[tuple[SpaceTerm, int]]") -> tuple:
    """Blocks in normal form, in one pass: each term must be a space term (else
    TermError) and each count an int >= 0 (else TermError); a nested wedge, in
    normal form already, gives its blocks, their counts multiplied; zero
    blocks are dropped, equal atoms merged, and the blocks sorted by _atom_key."""
    # _atom_key is one-to-one on summands, so it is the merge key as well as the sort key.
    merged: dict = {}
    for term, count in blocks:
        row = _ATOMS.get(term.__class__)  # an atom's row; None for a wedge
        if row is None and term.__class__ is not Wedge:
            raise TermError(f"not a space term: {term!r}")
        integer(count, "block count", 0, TermError)
        if count and row is None:
            for atom, times in term.blocks:
                key, n = _ATOMS[atom.__class__][0](atom), count * times  # _atom_key, inlined
                merged[key] = (atom, merged[key][1] + n) if key in merged else (atom, n)
        elif count:
            key = row[0](term)
            merged[key] = (term, merged[key][1] + count) if key in merged else (term, count)
    return tuple([merged[key] for key in sorted(merged)])


def as_wedge(term: SpaceTerm) -> Wedge:
    """The term as a wedge: a wedge is its own, an atom one block of one copy."""
    return term if term.__class__ is Wedge else Wedge(((term, 1),))


# --------------------------------------------------------------------------
# the gauge side


#: Marker for a stabilization count left as the formal variable d.
SYMBOLIC = "symbolic"

Stabilization = int | str


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
BASE_NAMES = {S4: "S^4", CP2: "CP^2"}


def loop_pair(summand: SpaceTerm) -> tuple[int, int | None] | None:
    """(loop order, modulus) of Map*(summand, G): (n - 1, None) for S^n, (n - 1, q)
    for P^n(q); None outside S^2..S^4, P^3(q) and P^4(q), bases included."""
    cls = summand.__class__
    if cls is Sphere and 2 <= summand.dim <= 4 or cls is Moore and 3 <= summand.dim <= 4:
        return summand.dim - 1, summand.modulus if cls is Moore else None
    return None


def _factor_text(summand: Sphere | Moore) -> str:
    """The text of Map*(summand, G), O^kG or O^kG{q}, for a summand in loop_pair's domain."""
    order, modulus = loop_pair(summand)
    return f"O^{order}G" if modulus is None else f"O^{order}G{{{modulus}}}"


def _factor_json(summand: Sphere | Moore) -> str:
    """The --json object of Map*(summand, G), for a summand in loop_pair's domain."""
    order, modulus = loop_pair(summand)
    return f'{{"loop_order": {order}, "modulus": {"null" if modulus is None else modulus}}}'


#: By exact class, each atom's sort key (see _atom_key), its text (column TEXT) and
#: --json object (JSON), and for a summand the text and --json object of its loop
#: factor Map*(atom, G) (columns FACTOR_TEXT and FACTOR_JSON).
TEXT, FACTOR_TEXT, JSON, FACTOR_JSON = 1, 2, 3, 4
_ATOMS = {
    Sphere: (lambda s: (-s.dim, 0, 0), lambda s: f"S^{s.dim}", _factor_text,
             lambda s: f'{{"dim": {s.dim}, "kind": "sphere", "modulus": null}}', _factor_json),
    Moore: (lambda m: (-m.dim, 1, m.modulus), lambda m: f"P^{m.dim}({m.modulus})", _factor_text,
            lambda m: f'{{"dim": {m.dim}, "kind": "moore", "modulus": {m.modulus}}}',
            _factor_json),
    SuspCP2: (lambda _: (-5, 2, 0), lambda _: "SCP^2", None,
              lambda _: '{"dim": 5, "kind": "susp_cp2", "modulus": null}', None),
}

#: join_blocks' row for the one S^3 piece at a symbolic d, its term the power: (X)^{power}.
_POWER = (None, *[lambda power, text=write(SPHERE[3]): f"({text})^{{{power}}}"
                  for write in _ATOMS[Sphere][1:]])


# --------------------------------------------------------------------------
# rendering


def render(obj: SpaceTerm) -> str:
    """Plain-text form of a space term.

    A wedge is built in normal form, so it renders in the canonical order
    (``S^3 v P^3(9)``), and the empty wedge as ``pt``.
    """
    row = _ATOMS.get(obj.__class__)
    if row:
        return row[1](obj)
    if isinstance(obj, Wedge):
        return "".join(join_blocks(obj.blocks, TEXT, " v ")[0]) or "pt"
    raise TermError(f"cannot render {obj!r}")


#: The most copies one string repeat of join_blocks holds, so no part of an answer is
#: large: a large one costs page faults to build and a copy of itself to encode.
COPIES_PER_PART = 4096


def join_blocks(blocks: "Sequence[tuple[SpaceTerm, int]]", column: int, sep: str,
                factor_column: int | None = None, factor_sep: str = "",
                symbolic: bool = False) -> list[list[str]]:
    """Two lists of parts, written in one pass over sorted blocks: each block's
    text from the given column of _ATOMS, TEXT or JSON, count times, joined by
    sep; and with a factor column, FACTOR_TEXT or FACTOR_JSON, the loop factor
    of each block after the first, the base, joined by factor_sep (else none).
    A piece of k > 1 copies is k - 1 copies of text and sep, COPIES_PER_PART of
    them to one str object appended as often as they fill it and the rest in
    one more, and then its text.  The one writer of repeated summands and loop
    factors, text and --json alike; the caller joins the parts or writes them.

    With ``symbolic`` (d symbolic), the S^3 block, which each S^2 x S^2 adds two
    copies to, is written whether present or not as one piece where S^3 sorts:
    ``(X)^{n+2d}``, or ``(X)^{2d}`` when n = 0, X being the column's S^3 or O^2G.
    The copies are added up first: more than MAX_COPIES of them, that piece
    counted as one, raise ValueError before any string repeat is built."""
    total = 0
    for _, count in blocks:
        total += count
    if symbolic:  # the S^3 block, found by _atom_key, present or not, is one _POWER piece
        at, n, key = len(blocks), 0, _atom_key(SPHERE[3])
        for i, (term, count) in enumerate(blocks):
            if (k := _ATOMS[term.__class__][0](term)) >= key:
                at, n = i, count if k == key else 0
                break
        total += 1 - n
        blocks = (*blocks[:at], (f"{n}+2d" if n else "2d", 1), *blocks[at + 1 if n else at :])
    if total > MAX_COPIES:
        raise ValueError(f"the answer writes out {total} copies, more than the limit of 10**6")
    texts, factors = [], []
    for term, count in blocks:
        row = _ATOMS.get(term.__class__, _POWER)
        if factor_column and texts:  # a block after the base
            text = row[factor_column](term)
            if count > 1:
                full, rest = divmod(count - 1, COPIES_PER_PART)
                if full:
                    factors += [(text + factor_sep) * COPIES_PER_PART] * full
                if rest:
                    factors.append((text + factor_sep) * rest)
            factors += (text, factor_sep)
        text = row[column](term)
        if count > 1:
            full, rest = divmod(count - 1, COPIES_PER_PART)
            if full:
                texts += [(text + sep) * COPIES_PER_PART] * full
            if rest:
                texts.append((text + sep) * rest)
        texts += (text, sep)
    del texts[-1:], factors[-1:]  # the separator after the last piece
    return [texts, factors]
