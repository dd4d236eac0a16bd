"""Suspension splittings and the matching gauge-group product decompositions.

For a closed orientable smooth 4-manifold M described by a ManifoldSpec,
the suspension of M splits as a wedge of spheres, Moore spaces and (for a
nontrivial top-cell attaching map) one copy of SCP^2.  Each wedge summand
beyond the base contributes a pointed mapping space into the structure
group, so the gauge group G_t(M) splits as a product of a base gauge group
— over S^4 or CP^2 — and loop factors.  This module builds both halves and
keeps them in correspondence.

A splitting is stored once, as its normalized wedge, whose (summand,
count) blocks are in display order; equal cyclic factors of pi1 enter as
one Moore block per dimension.  The gauge product is read off the blocks
through map_space, and terms.join_blocks writes both halves, in text and
in --json, one string repeat per block.  Every view costs the number of
distinct summands, and a written answer that plus its bytes.

Four fundamental-group shapes are handled.  Trivial and free pi1, and a
single odd prime-power cyclic pi1, split on the nose.  A genuinely mixed
free product splits after stabilizing, i.e. after taking the connected sum
with d copies of S^2 x S^2.  A concrete d is the splitting of the
stabilized manifold; a symbolic d keeps only the d-independent count in
the S^3 block, which renders as (S^3)^{n+2d}.
"""

from __future__ import annotations

from itertools import groupby

from .manifold import ManifoldSpec, Pi1Kind, classify_pi1, stabilize
from .terms import (
    SYMBOLIC,
    GaugeExpr,
    LoopFactor,
    Moore,
    SpaceTerm,
    Sphere,
    Stabilization,
    SuspCP2,
    TermError,
    Wedge,
    blocks,
    check_stabilization,
    map_space,
    normalize,
    render_blocks,
    render_product,
)
from .value import Value, integer


class DecompositionError(ValueError):
    """A wedge that does not correspond to any gauge-group product."""


#: The base summands, and the base of the gauge group each one pairs with.
_GAUGE_BASE = {Sphere(5): "S4", SuspCP2(): "CP2"}


class Decomposition(Value):
    """Both halves of one splitting, plus how it was obtained.

    ``suspension`` is the wedge, normalized on construction; its first
    block must be the one base summand (S^5 or SCP^2), of count 1.
    ``stabilization`` is 0 for the on-the-nose cases, a d >= 0 or SYMBOLIC
    for the stabilized one; with SYMBOLIC the S^3 count is the
    d-independent part.
    """

    __slots__ = ("suspension", "t", "stabilization", "case_used")

    def __init__(self, suspension: SpaceTerm, t: int, stabilization: Stabilization,
                 case_used: Pi1Kind) -> None:
        integer(t, "bundle class t", error=DecompositionError)
        stabilization = check_stabilization(stabilization)
        susp = normalize(suspension)
        bases = [atom for atom, _ in blocks(susp) if atom in _GAUGE_BASE]
        if len(bases) != 1 or blocks(susp)[0] != (bases[0], 1):
            raise DecompositionError("a splitting needs exactly one base summand")
        self._set(susp, t, stabilization, case_used)

    @property
    def blocks(self) -> tuple[tuple[SpaceTerm, int], ...]:
        """The (wedge summand, count) blocks, base first, in display order."""
        return blocks(self.suspension)

    @property
    def factors(self) -> list[tuple[LoopFactor, int]]:
        """(Map*(summand, G), count) per non-base block, in normal form as it comes."""
        return [(map_space(atom), count) for atom, count in self.blocks[1:]]

    @property
    def gauge(self) -> GaugeExpr:
        """The corresponding product G_t(base) x Map*(summand, G) x ..."""
        return GaugeExpr(self.base, self.t, self.factors, self.stabilization)

    @property
    def base(self) -> str:
        """The base of the gauge group: "S4" or "CP2"."""
        return _GAUGE_BASE[self.blocks[0][0]]


def decompose(spec: ManifoldSpec, t: int = 0, *, d: Stabilization = SYMBOLIC) -> Decomposition:
    """Split the suspension and the gauge group G_t(M) of a described M.

    ``d`` is the stabilization count, SYMBOLIC (or None) or an int >= 0,
    checked by check_stabilization for every pi1; only a mixed free product
    uses it.  The structure group stays the formal symbol G: the shape of
    the splitting never depends on it.
    """
    d = check_stabilization(d)
    kind = classify_pi1(spec.pi1)
    if kind is Pi1Kind.MIXED:
        return mixed_decomposition(spec, t, d=d)
    return _assemble(spec, t, 0, kind)


def mixed_decomposition(spec: ManifoldSpec, t: int = 0, *, d: Stabilization = SYMBOLIC) -> Decomposition:
    """The stabilized splitting, applicable to every valid spec.

    This is the formula decompose() dispatches to for mixed free products;
    it is exposed separately so the exact cases can be compared against
    their stabilized counterparts at d = 0.  d is checked as in decompose();
    a concrete d is the exact formula applied to the stabilized manifold.
    """
    d = check_stabilization(d)
    stabilized = spec if d == SYMBOLIC else stabilize(spec, d)
    return _assemble(stabilized, t, d, Pi1Kind.MIXED)


def _assemble(spec: ManifoldSpec, t: int, stabilization: Stabilization, kind: Pi1Kind) -> Decomposition:
    m = spec.pi1.free_rank
    if spec.sigma_f_trivial:
        base, n3 = Sphere(5), spec.b2
    else:
        base, n3 = SuspCP2(), spec.b2 - 1  # one 2-cell is spent on the CP^2 block
    blocks = [(base, 1), (Sphere(4), m), (Sphere(3), n3), (Sphere(2), m)]
    for (p, r), run in groupby(spec.pi1.cyclic_factors):  # sorted, so equal factors adjoin
        n = sum(1 for _ in run)
        blocks += [(Moore(3, p**r), n), (Moore(4, p**r), n)]
    return Decomposition(Wedge(blocks), t, stabilization, kind)


def gauge_from_suspension(susp: SpaceTerm, t: int) -> GaugeExpr:
    """Read a gauge-group product off an already-split suspension.

    The wedge must contain exactly one base summand (S^5 or SCP^2); every
    other summand must lie in the map_space correspondence.  This is the
    independent route to the product decomposition: it never looks at the
    manifold, only at the wedge.
    """
    base = None
    rest: list[tuple[SpaceTerm, int]] = []
    for atom, count in blocks(susp):
        if atom in _GAUGE_BASE:
            if base is not None or count > 1:
                raise DecompositionError("multiple base summands")
            base = atom
        else:
            rest.append((atom, count))
    if base is None:
        raise DecompositionError("no base summand")
    try:
        factors = tuple((map_space(atom), count) for atom, count in rest)
    except TermError as exc:
        raise DecompositionError(f"summand outside the correspondence: {exc}") from None
    return GaugeExpr(_GAUGE_BASE[base], t, factors, 0)


# --------------------------------------------------------------------------
# rendering


def render_suspension_half(dec: Decomposition) -> str:
    """``SM = ...``, or the stabilized ``S(M #_d(S^2xS^2)) = ...``."""
    stab = dec.stabilization
    body = render_blocks(dec.blocks, " v ", Sphere(3) if stab == SYMBOLIC else None)
    if stab == 0:
        return f"SM = {body}"
    return f"S(M #_{'d' if stab == SYMBOLIC else stab}(S^2xS^2)) = {body}"


def render_gauge_half(dec: Decomposition) -> str:
    """``G_t(M) = ...``, or the stabilized ``G_t(M) x (O^2G)^{2d} ~ ...``."""
    t, stab = dec.t, dec.stabilization
    right = render_product(dec.base, t, dec.factors, stab)
    if stab == 0:
        return f"G_{t}(M) = {right}"
    power = "{2d}" if stab == SYMBOLIC else str(2 * stab)
    return f"G_{t}(M) x (O^2G)^{power} ~ {right}"


def render_decomposition(dec: Decomposition) -> str:
    """Both halves on one line, suspension first."""
    return f"{render_suspension_half(dec)}; {render_gauge_half(dec)}"
