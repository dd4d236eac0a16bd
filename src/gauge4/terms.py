"""Formal space terms for suspension splittings, and gauge-side product terms.

The term language covers exactly the spaces that show up when a closed
orientable 4-manifold is suspended: spheres ``S^n``, Moore spaces ``P^n(q)``
(the complex whose only reduced homology is ``Z/q`` in degree ``n-1``), the
suspended complex projective plane ``SCP^2``, the one-point space ``pt``, and
finite wedges of these.

On the gauge side, ``LoopFactor`` stands for an iterated loop space of the
structure group ``G`` (``O^kG``), optionally the mod-``q`` variant ``O^kG{q}``
given by pointed maps out of a Moore space, and ``GaugeExpr`` is a finite
product of such factors over a base gauge group on ``S^4`` or ``CP^2``.

Wedges and products are multisets of ``(term, count)`` blocks, built in
one normal form (nested wedges flattened, merged, zero-free, sorted by
``_atom_key``), so no raw wedge exists: they compare by plain equality and
cost the number of distinct terms, not of copies.  ``normalize`` only
collapses an empty wedge to ``pt`` and a single copy to its atom.

``map_space`` is the bridge between the two sides: it sends a wedge summand
``Y`` to the factor ``Map*(Y, G)`` contributes to a gauge group, using
``Map*(S^k, G) = O^kG`` and ``Map*(P^k(q), G) = O^{k-1}G{q}``; a factor sorts
where its summand does.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable, Sequence

from .arith import MAX_COPIES
from .value import Value, integer


class TermError(ValueError):
    """Malformed or out-of-domain space/gauge term."""


# --------------------------------------------------------------------------
# space terms


class Point(Value):
    """The one-point space; unit for wedge sum."""

    __slots__ = ()


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

    The blocks given may nest wedges and hold points, zero counts and
    repeated terms; the blocks stored are their normal form (see _merge),
    so equal spaces give equal wedges whatever the order or nesting.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[tuple[SpaceTerm, int]]) -> None:
        self._set(_merge(blocks, (Point, Sphere, Moore, SuspCP2, Wedge), "space term"))


SpaceTerm = Point | Sphere | Moore | SuspCP2 | Wedge


def _atom_key(term: Sphere | Moore | SuspCP2 | LoopFactor) -> tuple[int, int, int]:
    """The one order of summands: top dimension down; at equal dimension
    spheres, then Moore spaces by modulus, then SCP^2.  A loop factor sorts
    as the summand it comes from (O^kG{q} as P^{k+1}(q)), so map_space keeps
    the order and the two halves of a splitting are written in step."""
    if isinstance(term, Sphere):
        return (-term.dim, 0, 0)
    if isinstance(term, Moore):
        return (-term.dim, 1, term.modulus)
    if isinstance(term, SuspCP2):
        return (-5, 2, 0)
    return (-term.loop_order - 1, 0 if term.modulus is None else 1, term.modulus or 0)


def _merge(blocks: Iterable[tuple[SpaceTerm | LoopFactor, int]], kinds: tuple[type, ...],
           what: str) -> tuple:
    """Blocks in normal form, in one pass: each term must be one of kinds
    (else TermError naming what) and each count an int >= 0 (else TermError);
    a nested wedge, in normal form already, gives its blocks, their counts
    multiplied; points and zero blocks are dropped, equal atoms merged, and
    the blocks sorted by _atom_key."""
    # _atom_key is one-to-one on summands and on loop factors, so it is the
    # merge key as well as the sort key.
    merged: dict = {}
    for term, count in blocks:
        if not isinstance(term, kinds):
            raise TermError(f"not a {what}: {term!r}")
        integer(count, "block count", 0, TermError)
        if count and not isinstance(term, Point):
            for atom, times in term.blocks if isinstance(term, Wedge) else ((term, 1),):
                key = _atom_key(atom)
                merged[key] = (atom, count * times + merged.get(key, (atom, 0))[1])
    return tuple([merged[key] for key in sorted(merged)])


def blocks(term: SpaceTerm) -> tuple[tuple[SpaceTerm, int], ...]:
    """The (atom, count) blocks of a term (none for the point)."""
    if isinstance(term, Point):
        return ()
    if isinstance(term, Wedge):
        return term.blocks
    if isinstance(term, (Sphere, Moore, SuspCP2)):
        return ((term, 1),)
    raise TermError(f"not a space term: {term!r}")


def normalize(term: SpaceTerm) -> SpaceTerm:
    """The one term for a space: an empty wedge collapses to the point and a
    single copy of one atom to that atom; any other term is its own.  A wedge
    is in normal form where it is built, so nothing is merged here."""
    parts = blocks(term)
    if not parts:
        return Point()
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
        if base not in ("S4", "CP2"):
            raise TermError(f"gauge base must be S4 or CP2, got {base!r}")
        integer(t, "bundle class t", error=TermError)
        stabilization = check_stabilization(stabilization)
        self._set(base, t, _merge(blocks, (LoopFactor,), "loop factor"), stabilization)


def check_stabilization(d: Stabilization | None) -> Stabilization:
    """SYMBOLIC for SYMBOLIC or None, else d, a non-bool int >= 0 (else TermError)."""
    if d is None or d == SYMBOLIC:
        return SYMBOLIC
    return integer(d, "stabilization count", 0, TermError)


def map_space(summand: SpaceTerm) -> LoopFactor:
    """The gauge factor Map*(summand, G) contributed by one wedge summand.

    Spheres S^2..S^4 give plain loop factors O^1G..O^3G; Moore summands
    P^3(q) and P^4(q) give the mod-q factors O^2G{q} and O^3G{q}.  S^5 and
    SCP^2 are base summands — they pair with the base gauge group, not with
    a loop factor — and everything else is outside the correspondence.
    """
    if isinstance(summand, Sphere) and 2 <= summand.dim <= 4:
        return LoopFactor(summand.dim - 1)
    if isinstance(summand, Moore) and 3 <= summand.dim <= 4:
        return LoopFactor(summand.dim - 1, summand.modulus)
    if isinstance(summand, SuspCP2) or (isinstance(summand, Sphere) and summand.dim == 5):
        raise TermError(f"base summand: {render(summand)}")
    raise TermError(f"no loop factor for summand: {summand!r}")


# --------------------------------------------------------------------------
# rendering

_BASE_NAMES = {"S4": "S^4", "CP2": "CP^2"}


def render(obj: SpaceTerm | GaugeExpr | LoopFactor) -> str:
    """Plain-text form of a term.

    A wedge is built in normal form, so it renders in the canonical order
    (``S^3 v P^3(9)``), and the empty wedge as ``pt``; gauge expressions
    render as the right-hand side of their product decomposition
    (``G_2(S^4) x O^3G x O^1G``) through render_product.
    """
    if isinstance(obj, GaugeExpr):
        return render_product(obj.base, obj.t, obj.blocks, obj.stabilization)
    if isinstance(obj, LoopFactor):
        mod = "" if obj.modulus is None else f"{{{obj.modulus}}}"
        return f"O^{obj.loop_order}G{mod}"
    if isinstance(obj, Point):
        return "pt"
    if isinstance(obj, Sphere):
        return f"S^{obj.dim}"
    if isinstance(obj, Moore):
        return f"P^{obj.dim}({obj.modulus})"
    if isinstance(obj, SuspCP2):
        return "SCP^2"
    if isinstance(obj, Wedge):
        return render_blocks(obj.blocks, " v ") or "pt"
    raise TermError(f"cannot render {obj!r}")


def render_product(base: str, t: int, blocks: Sequence, stabilization: Stabilization) -> str:
    """``G_t(base) x ...`` from (loop factor, count) blocks already in normal
    form, written as they come; with a symbolic stabilization the plain O^2G
    block is ``(O^2G)^{b+2d}``."""
    head = f"G_{t}({_BASE_NAMES[base]})"
    body = render_blocks(blocks, " x ", LoopFactor(2) if stabilization == SYMBOLIC else None)
    return f"{head} x {body}" if body else head


def render_blocks(
    blocks: Sequence[tuple[SpaceTerm | LoopFactor, int]],
    sep: str,
    stable: Sphere | LoopFactor | None = None,
) -> str:
    """Sorted (term, count) blocks, ``count`` copies each, joined by ``sep``.

    ``stable`` is the term each S^2 x S^2 adds twice, S^3 or O^2G, when the
    stabilization count d is symbolic.  Its block, present or not, is then
    one piece in its place: ``(X)^{n+2d}``, or ``(X)^{2d}`` when n = 0.
    The pieces are written by join_blocks, so more than MAX_COPIES copies
    raise ValueError before any text is built.
    """
    pieces = [(render(term), count) for term, count in blocks]
    if stable is not None:
        i = bisect_left(blocks, _atom_key(stable), key=lambda block: _atom_key(block[0]))
        n = dict(blocks[i : i + 1]).get(stable, 0)
        power = f"{n}+2d" if n else "2d"
        pieces[i : i + 1 if n else i] = [(f"({render(stable)})^{{{power}}}", 1)]
    return join_blocks(pieces, sep)


def join_blocks(pieces: Sequence[tuple[str, int]], sep: str) -> str:
    """The text of each (text, count) piece ``count`` times, joined by ``sep``,
    each piece one string repeat: the one writer of repeated summands, for
    the text and the --json lists alike.  More than MAX_COPIES copies in all
    raise ValueError before any text is built."""
    total = sum(count for _, count in pieces)
    if total > MAX_COPIES:
        raise ValueError(f"the answer writes out {total} copies, more than the limit of 10**6")
    return sep.join([text if k == 1 else (text + sep) * (k - 1) + text for text, k in pieces if k])


# --------------------------------------------------------------------------
# parsing

_SPHERE_RE = re.compile(r"^S\^(\d+)$")
_MOORE_RE = re.compile(r"^P\^(\d+)\((\d+)\)$")


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
        return Point()
    if text == "SCP^2":
        return SuspCP2()
    m = _SPHERE_RE.match(text)
    if m:
        return Sphere(int(m.group(1)))
    m = _MOORE_RE.match(text)
    if m:
        return Moore(int(m.group(1)), int(m.group(2)))
    raise TermError(f"bad term atom: {text!r}")
