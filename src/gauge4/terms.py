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

Wedges and products are multisets of ``(term, count)`` blocks with one
normal form (merged, zero-free, sorted by ``_atom_key``), so they compare
by plain equality and cost the number of distinct terms, not of copies.

``map_space`` is the bridge between the two sides: it sends a wedge summand
``Y`` to the factor ``Map*(Y, G)`` contributes to a gauge group, using
``Map*(S^k, G) = O^kG`` and ``Map*(P^k(q), G) = O^{k-1}G{q}``; a factor sorts
where its summand does.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .arith import MAX_COPIES


class TermError(ValueError):
    """Malformed or out-of-domain space/gauge term."""


# --------------------------------------------------------------------------
# space terms


@dataclass(frozen=True, slots=True)
class Point:
    """The one-point space; unit for wedge sum."""


@dataclass(frozen=True, slots=True)
class Sphere:
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise TermError(f"sphere dimension must be >= 1, got {self.dim}")


@dataclass(frozen=True, slots=True)
class Moore:
    """P^dim(modulus): reduced homology Z/modulus in degree dim - 1.

    Any modulus >= 2 is a legal term.  The decomposition engine only ever
    produces odd prime-power moduli; that restriction is enforced where the
    moduli enter (the fundamental-group descriptor), not here, so the
    homology engine can still talk about spaces like P^2(6).
    """

    dim: int
    modulus: int

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise TermError(f"Moore space dimension must be >= 2, got {self.dim}")
        if self.modulus < 2:
            raise TermError(f"Moore space modulus must be >= 2, got {self.modulus}")


@dataclass(frozen=True, slots=True)
class SuspCP2:
    """The suspension of the complex projective plane."""


@dataclass(frozen=True, slots=True)
class Wedge:
    """Wedge sum of (term, count) blocks, ``count`` copies of each term; a
    raw wedge may nest wedges and points (see normalize)."""

    blocks: tuple[tuple["SpaceTerm", int], ...]

    def __post_init__(self) -> None:
        for term, count in self.blocks:
            if not isinstance(term, (Point, Sphere, Moore, SuspCP2, Wedge)):
                raise TermError(f"not a space term: {term!r}")
            if count < 0:
                raise TermError(f"negative count {count} of {term!r}")


SpaceTerm = Union[Point, Sphere, Moore, SuspCP2, Wedge]


def _atom_key(term: SpaceTerm | LoopFactor) -> tuple[int, int, int]:
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
    if isinstance(term, LoopFactor):
        return (-term.loop_order - 1, 0 if term.modulus is None else 1, term.modulus or 0)
    raise TermError(f"not an atomic wedge summand: {term!r}")


def _merge(blocks: Iterable[tuple[SpaceTerm | LoopFactor, int]]) -> tuple:
    """Blocks in normal form, in one pass: nested wedges flattened (their
    counts multiplied), points and zero blocks dropped, equal terms merged,
    then sorted by _atom_key.  A negative count raises TermError."""
    merged: dict = {}
    _add(merged, blocks, 1)
    return tuple([merged[key] for key in sorted(merged)])


def _add(merged: dict, blocks: Iterable[tuple[SpaceTerm | LoopFactor, int]], times: int) -> None:
    # _atom_key is one-to-one on summands and on loop factors, so it is the
    # merge key as well as the sort key.
    for term, count in blocks:
        if count < 0:
            raise TermError(f"negative count {count} of {term!r}")
        if isinstance(term, Wedge):
            _add(merged, term.blocks, times * count)
        elif count and not isinstance(term, Point):
            key = _atom_key(term)
            merged[key] = (term, times * count + merged.get(key, (term, 0))[1])


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
    """Rewrite a term to its unique normal form, in one pass.

    Nested wedges are flattened, their counts multiplied; points and zero
    blocks are dropped, equal atoms merged, and the blocks sorted top
    dimension down (at equal dimension spheres, then Moore spaces by
    ascending modulus, then SCP^2).  An empty wedge collapses to the point
    and a single copy of one atom to that atom.
    """
    merged = _merge(blocks(term))
    if not merged:
        return Point()
    if len(merged) == 1 and merged[0][1] == 1:
        return merged[0][0]
    return Wedge(merged)


def wedge(parts: Iterable[SpaceTerm]) -> SpaceTerm:
    """Normalized wedge sum of any iterable of terms, one copy each."""
    return normalize(Wedge(tuple((part, 1) for part in parts)))


# --------------------------------------------------------------------------
# gauge-side terms


@dataclass(frozen=True, slots=True)
class LoopFactor:
    """O^kG, or its mod-q variant O^kG{q} when a modulus is present."""

    loop_order: int
    modulus: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.loop_order <= 3:
            raise TermError(f"loop order must be 1..3, got {self.loop_order}")
        if self.modulus is not None and self.modulus < 2:
            raise TermError(f"loop factor modulus must be >= 2, got {self.modulus}")


#: Marker for a stabilization count left as the formal variable d.
SYMBOLIC = "symbolic"

Stabilization = Union[int, str]


@dataclass(frozen=True, slots=True)
class GaugeExpr:
    """A product decomposition G_t(base) x (loop factors), possibly stabilized.

    ``blocks`` are (loop factor, count) pairs, normalized on construction
    as a wedge's are.  ``stabilization`` counts connected sums with
    S^2 x S^2: 0 means the equivalence holds for the manifold itself, a
    positive integer d means it holds after d stabilizations (and the
    blocks already include the 2d extra copies of O^2G the stabilization
    contributes on the right), and SYMBOLIC means d is kept as a formal
    variable, in which case the blocks hold only the d-independent part.
    """

    base: str  # "S4" | "CP2"
    t: int
    blocks: tuple[tuple[LoopFactor, int], ...] = ()
    stabilization: Stabilization = 0

    def __post_init__(self) -> None:
        if self.base not in ("S4", "CP2"):
            raise TermError(f"gauge base must be S4 or CP2, got {self.base!r}")
        if isinstance(self.stabilization, int):
            if self.stabilization < 0:
                raise TermError("stabilization count must be >= 0")
        elif self.stabilization != SYMBOLIC:
            raise TermError(f"bad stabilization: {self.stabilization!r}")
        if not all(isinstance(factor, LoopFactor) for factor, _ in self.blocks):
            raise TermError(f"gauge blocks must hold loop factors: {self.blocks!r}")
        object.__setattr__(self, "blocks", _merge(self.blocks))


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

    Wedges are normalized before rendering, so the output is always the
    canonical form (``S^3 v P^3(9)``); gauge expressions render as the
    right-hand side of their product decomposition
    (``G_2(S^4) x O^3G x O^1G``) through render_blocks, which writes the
    plain O^2G block as ``(O^2G)^{b+2d}`` when the stabilization is
    symbolic.
    """
    if isinstance(obj, GaugeExpr):
        return _render_gauge(obj)
    if isinstance(obj, LoopFactor):
        return _render_factor(obj)
    if isinstance(obj, Point):
        return "pt"
    if isinstance(obj, Sphere):
        return f"S^{obj.dim}"
    if isinstance(obj, Moore):
        return f"P^{obj.dim}({obj.modulus})"
    if isinstance(obj, SuspCP2):
        return "SCP^2"
    if isinstance(obj, Wedge):
        norm = normalize(obj)
        if isinstance(norm, Wedge):
            return " v ".join(render_blocks(norm.blocks))
        return render(norm)
    raise TermError(f"cannot render {obj!r}")


def _render_factor(f: LoopFactor) -> str:
    if f.modulus is None:
        return f"O^{f.loop_order}G"
    return f"O^{f.loop_order}G{{{f.modulus}}}"


def _render_gauge(expr: GaugeExpr) -> str:
    stable = LoopFactor(2) if expr.stabilization == SYMBOLIC else None
    pieces = render_blocks(expr.blocks, stable)
    return " x ".join([f"G_{expr.t}({_BASE_NAMES[expr.base]})", *pieces])


def render_blocks(
    blocks: Sequence[tuple[SpaceTerm | LoopFactor, int]], stable: Sphere | LoopFactor | None = None
) -> list[str]:
    """The rendered terms of sorted (term, count) blocks, ``count`` copies each.

    ``stable`` is the term each S^2 x S^2 adds twice, S^3 or O^2G, when the
    stabilization count d is symbolic.  Its block, present or not, is then
    one piece in its place: ``(X)^{n+2d}``, or ``(X)^{2d}`` when n = 0.
    More than MAX_COPIES pieces raise ValueError, as in ``copies``.
    """
    pieces = [(render(term), count) for term, count in blocks]
    if stable is not None:
        i = bisect_left(blocks, _atom_key(stable), key=lambda block: _atom_key(block[0]))
        n = dict(blocks[i : i + 1]).get(stable, 0)
        power = f"{n}+2d" if n else "2d"
        pieces[i : i + 1 if n else i] = [(f"({render(stable)})^{{{power}}}", 1)]
    return copies(pieces)


def copies(blocks: Sequence[tuple[object, int]]) -> list:
    """Each item of (item, count) blocks, written out ``count`` times; more
    than MAX_COPIES items in all raise ValueError before any is written."""
    total = sum(count for _, count in blocks)
    if total > MAX_COPIES:
        raise ValueError(f"the answer writes out {total} copies, more than the limit of 10**6")
    out = []
    for item, count in blocks:
        out += [item] * count
    return out


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
