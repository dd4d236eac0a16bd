"""Suspension splittings and the matching gauge-group product decompositions.

For a closed orientable smooth 4-manifold M described by a ManifoldSpec,
the suspension of M splits as a wedge of spheres, Moore spaces and (for a
nontrivial top-cell attaching map) one copy of SCP^2.  Each wedge summand
beyond the base contributes a pointed mapping space into the structure
group, so the gauge group G_t(M) splits as a product of a base gauge group
— over S^4 or CP^2 — and loop factors.  This module builds both halves and
keeps them in correspondence.

A splitting is stored once, as its normalized wedge, whose (summand,
count) blocks are in display order; the gauge product is read off them
through map_space, and terms.render_blocks prints both halves.  Every view
but the expanded summand list costs the number of distinct summands.

Four fundamental-group shapes are handled.  Trivial and free pi1, and a
single odd prime-power cyclic pi1, split on the nose.  A genuinely mixed
free product splits after stabilizing, i.e. after taking the connected sum
with d copies of S^2 x S^2.  A concrete d is the splitting of the
stabilized manifold; a symbolic d keeps only the d-independent count in
the S^3 block, which renders as (S^3)^{n+2d}.
"""

from __future__ import annotations

from dataclasses import dataclass

from .manifold import ManifoldSpec, Pi1Kind, classify_pi1, stabilize, validate
from .terms import (
    SYMBOLIC,
    GaugeExpr,
    Moore,
    SpaceTerm,
    Sphere,
    Stabilization,
    SuspCP2,
    TermError,
    Wedge,
    blocks,
    copies,
    map_space,
    normalize,
    render,
    render_blocks,
)


class DecompositionError(ValueError):
    """A wedge that does not correspond to any gauge-group product."""


#: The base summands, and the base of the gauge group each one pairs with.
_GAUGE_BASE = {Sphere(5): "S4", SuspCP2(): "CP2"}


@dataclass(frozen=True, slots=True)
class Decomposition:
    """Both halves of one splitting, plus how it was obtained.

    ``suspension`` is the wedge, normalized on construction; its first
    block must be the one base summand (S^5 or SCP^2), of count 1.
    ``stabilization`` is 0 for the on-the-nose cases, a d >= 0 or SYMBOLIC
    for the stabilized one; with SYMBOLIC the S^3 count is the
    d-independent part.
    """

    suspension: SpaceTerm
    t: int
    stabilization: Stabilization
    case_used: Pi1Kind

    def __post_init__(self) -> None:
        susp = normalize(self.suspension)
        bases = [atom for atom, _ in blocks(susp) if atom in _GAUGE_BASE]
        if len(bases) != 1 or blocks(susp)[0] != (bases[0], 1):
            raise DecompositionError("a splitting needs exactly one base summand")
        object.__setattr__(self, "suspension", susp)

    @property
    def blocks(self) -> tuple[tuple[SpaceTerm, int], ...]:
        """The (wedge summand, count) blocks, base first, in display order."""
        return blocks(self.suspension)

    @property
    def summands(self) -> list[SpaceTerm]:
        """Every wedge summand, one per copy, in display order (at most
        MAX_COPIES of them, else ValueError)."""
        return copies(self.blocks)

    @property
    def gauge(self) -> GaugeExpr:
        """The corresponding product G_t(base) x Map*(summand, G) x ..."""
        factors = tuple((map_space(atom), count) for atom, count in self.blocks[1:])
        return GaugeExpr(self.base, self.t, factors, self.stabilization)

    @property
    def base(self) -> str:
        """The base of the gauge group: "S4" or "CP2"."""
        return _GAUGE_BASE[self.blocks[0][0]]


def decompose(spec: ManifoldSpec, t: int = 0, *, d: int | None = None) -> Decomposition:
    """Split the suspension and the gauge group G_t(M) of a described M.

    ``d`` is the stabilization count and only matters when pi1 is a mixed
    free product; None keeps it symbolic there and is ignored elsewhere.
    The structure group stays the formal symbol G: the shape of the
    splitting never depends on it.
    """
    validate(spec)
    kind = classify_pi1(spec.pi1)
    if kind is Pi1Kind.MIXED:
        return mixed_decomposition(spec, t, d=d)
    return _assemble(spec, t, 0, kind)


def mixed_decomposition(spec: ManifoldSpec, t: int = 0, *, d: int | None = None) -> Decomposition:
    """The stabilized splitting, applicable to every valid spec.

    This is the formula decompose() dispatches to for mixed free products;
    it is exposed separately so the exact cases can be compared against
    their stabilized counterparts at d = 0.  A concrete d is the exact
    formula applied to the stabilized manifold.
    """
    validate(spec)
    if d is None:
        return _assemble(spec, t, SYMBOLIC, Pi1Kind.MIXED)
    if d < 0:
        raise DecompositionError(f"stabilization count must be >= 0, got {d}")
    return _assemble(stabilize(spec, d), t, d, Pi1Kind.MIXED)


def _assemble(spec: ManifoldSpec, t: int, stabilization: Stabilization, kind: Pi1Kind) -> Decomposition:
    m = spec.pi1.free_rank
    if spec.sigma_f_trivial:
        base, n3 = Sphere(5), spec.b2
    else:
        base, n3 = SuspCP2(), spec.b2 - 1  # one 2-cell is spent on the CP^2 block
    blocks = [(base, 1), (Sphere(4), m), (Sphere(3), n3), (Sphere(2), m)]
    blocks += [(Moore(dim, p**r), 1) for p, r in spec.pi1.cyclic_factors for dim in (3, 4)]
    return Decomposition(Wedge(tuple(blocks)), t, stabilization, kind)


def suspension_of_spec(spec: ManifoldSpec, d: int | None = None) -> SpaceTerm:
    """Just the wedge side of decompose(); see there for the role of d."""
    return decompose(spec, d=d).suspension


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
    """``SM = ...`` (or the connected-sum left side when stabilized)."""
    stable = Sphere(3) if dec.stabilization == SYMBOLIC else None
    body = " v ".join(render_blocks(dec.blocks, stable))
    return f"{_suspension_left(dec.stabilization)} = {body}"


def _suspension_left(stab: Stabilization) -> str:
    if stab == 0:
        return "SM"
    d = "d" if stab == SYMBOLIC else str(stab)
    return f"S(M #_{d}(S^2xS^2))"


def render_gauge_half(dec: Decomposition) -> str:
    """``G_t(M) = ...``, or the stabilized ``G_t(M) x (O^2G)^{2d} ~ ...``."""
    right = render(dec.gauge)
    t = dec.t
    stab = dec.stabilization
    if stab == 0:
        return f"G_{t}(M) = {right}"
    power = "{2d}" if stab == SYMBOLIC else str(2 * stab)
    return f"G_{t}(M) x (O^2G)^{power} ~ {right}"


def render_decomposition(dec: Decomposition) -> str:
    """Both halves on one line, suspension first."""
    return f"{render_suspension_half(dec)}; {render_gauge_half(dec)}"
