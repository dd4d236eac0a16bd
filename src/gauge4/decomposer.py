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
through map_space.  An answer, in text or in --json, is one list of string
parts: fixed heads, and per repeated block one string repeat appended by
terms.join_blocks, by splitting_parts for the text and by the CLI for
--json.  render_decomposition joins the text once; the CLI writes either in
turn.  Every view costs the number of distinct summands, and a written
answer that plus its bytes.

Four fundamental-group shapes are handled.  Trivial and free pi1, and a
single odd prime-power cyclic pi1, split on the nose.  A genuinely mixed
free product splits after stabilizing, i.e. after taking the connected sum
with d copies of S^2 x S^2.  A concrete d is the splitting of the
stabilized manifold; a symbolic d keeps only the d-independent count in
the S^3 block, which renders as (S^3)^{n+2d}.
"""

from __future__ import annotations

from itertools import groupby

from .manifold import ManifoldSpec, Pi1Kind, classify_pi1
from .terms import (
    GAUGE_BASE,
    SCP2,
    SPHERE,
    SYMBOLIC,
    GaugeExpr,
    LoopFactor,
    Moore,
    SpaceTerm,
    Stabilization,
    TermError,
    Wedge,
    _atom_key,
    block_pieces,
    blocks,
    check_stabilization,
    join_blocks,
    map_space,
    normalize,
    product_parts,
)
from .value import Value, integer


class DecompositionError(ValueError):
    """A wedge that does not correspond to any gauge-group product."""


#: map_space's domain, S^4 through S^2, as the interval of the blocks' order it is.
_DOMAIN = _atom_key(SPHERE[4]), _atom_key(SPHERE[2])


class Decomposition(Value):
    """Both halves of one splitting, plus how it was obtained.

    ``suspension`` is the wedge, normalized on construction; its first
    block must be the one base summand (S^5 or SCP^2), of count 1, and
    every other block must lie in map_space's domain.
    ``stabilization`` is 0 for the on-the-nose cases, a d >= 0 or SYMBOLIC
    for the stabilized one; with SYMBOLIC the S^3 count is the
    d-independent part.  ``case_used`` is a Pi1Kind.
    """

    __slots__ = ("suspension", "t", "stabilization", "case_used")

    def __init__(self, suspension: SpaceTerm, t: int, stabilization: Stabilization,
                 case_used: Pi1Kind) -> None:
        integer(t, "bundle class t", error=DecompositionError)
        stabilization = check_stabilization(stabilization)
        if not isinstance(case_used, Pi1Kind):
            raise DecompositionError(f"case_used must be a Pi1Kind, got {case_used!r}")
        susp = normalize(suspension)
        parts = blocks(susp)
        # The base blocks, found as they are read: a splitting reads its first block alone.
        bases = (block for block in parts if block[0] in GAUGE_BASE)
        base = next(bases, None)
        # Both bases sort before map_space's domain, an interval of the blocks' order, so
        # with a first base of count 1 the keys of the two ends of the rest check all.
        ok = base is not None and base is parts[0] and base[1] == 1
        rest = parts[1:] if ok else parts
        if ok and rest:
            ok = _DOMAIN[0] <= _atom_key(rest[0][0]) and _atom_key(rest[-1][0]) <= _DOMAIN[1]
        if not ok:  # only a refusal reads on, to choose its line
            if base is None or base[1] != 1 or next(bases, None):
                raise DecompositionError("a splitting needs exactly one base summand")
            # one base of count 1, after a summand outside the domain or before one,
            # which map_space refuses with the line given
            try:
                for atom, _ in rest[:1] + rest[-1:]:
                    map_space(atom)
            except TermError as exc:
                raise DecompositionError(f"summand outside the correspondence: {exc}") from None
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
        return GAUGE_BASE[self.blocks[0][0]]


def decompose(spec: ManifoldSpec, t: int = 0, *, d: Stabilization = SYMBOLIC) -> Decomposition:
    """Split the suspension and the gauge group G_t(M) of a described M.

    ``d`` is the stabilization count, SYMBOLIC (or None) or an int >= 0,
    checked by check_stabilization for every pi1; only a mixed free product
    uses it.  The structure group stays the formal symbol G: the shape of
    the splitting never depends on it.
    """
    d = check_stabilization(d)
    kind = classify_pi1(spec.pi1)
    return _assemble(spec, t, d if kind is Pi1Kind.MIXED else 0, kind)


def mixed_decomposition(spec: ManifoldSpec, t: int = 0, *, d: Stabilization = SYMBOLIC) -> Decomposition:
    """The stabilized splitting, applicable to every valid spec.

    This is the formula decompose() dispatches to for mixed free products;
    it is exposed separately so the exact cases can be compared against
    their stabilized counterparts at d = 0.  d is checked as in decompose();
    a concrete d is the exact formula applied to the stabilized manifold.
    """
    return _assemble(spec, t, check_stabilization(d), Pi1Kind.MIXED)


def _assemble(spec: ManifoldSpec, t: int, stabilization: Stabilization, kind: Pi1Kind) -> Decomposition:
    """The splitting from a checked stabilization count; a concrete d is that of
    stabilize(spec, d), whose b2 is 2d larger, so 2d more copies of S^3."""
    m = spec.pi1.free_rank
    n3 = spec.b2 if stabilization == SYMBOLIC else spec.b2 + 2 * stabilization
    if spec.sigma_f_trivial:
        base = SPHERE[5]
    else:
        base, n3 = SCP2, n3 - 1  # one 2-cell is spent on the CP^2 block
    blocks = [(base, 1), (SPHERE[4], m), (SPHERE[3], n3), (SPHERE[2], m)]
    for (p, r), run in groupby(spec.pi1.cyclic_factors):  # sorted, so equal factors adjoin
        n, q = len(list(run)), p**r
        blocks += [(Moore(3, q), n), (Moore(4, q), n)]
    return Decomposition(Wedge(blocks), t, stabilization, kind)


def gauge_from_suspension(susp: SpaceTerm, t: int) -> GaugeExpr:
    """Read a gauge-group product off an already-split suspension: the gauge
    half of the splitting it is, refused as Decomposition refuses it."""
    return Decomposition(susp, t, 0, Pi1Kind.TRIVIAL).gauge  # gauge reads no case


# --------------------------------------------------------------------------
# rendering


def render_decomposition(dec: Decomposition) -> str:
    """Both halves on one line, suspension first, joined once."""
    return "".join(splitting_parts(dec, True))


def splitting_parts(dec: Decomposition, gauge: bool) -> list[str]:
    """The parts of ``SM = ...``, or of the stabilized ``S(M #_d(S^2xS^2)) = ...``;
    with gauge, then of ``; G_t(M) = ...``, or ``; G_t(M) x (O^2G)^{2d} ~ ...``."""
    t, stab = dec.t, dec.stabilization
    parts = ["SM = " if stab == 0 else f"S(M #_{'d' if stab == SYMBOLIC else stab}(S^2xS^2)) = "]
    join_blocks(parts, block_pieces(dec.blocks, SPHERE[3] if stab == SYMBOLIC else None), " v ")
    if gauge:
        power = "{2d}" if stab == SYMBOLIC else 2 * stab
        parts.append(f"; G_{t}(M) = " if stab == 0 else f"; G_{t}(M) x (O^2G)^{power} ~ ")
        product_parts(parts, dec.base, t, dec.factors, stab)
    return parts
