"""Suspension splittings and the matching gauge-group product decompositions.

For a closed orientable smooth 4-manifold M described by a ManifoldSpec,
the suspension of M splits as a wedge of spheres, Moore spaces and (for a
nontrivial top-cell attaching map) one copy of SCP^2.  Each wedge summand
beyond the base contributes a pointed mapping space into the structure
group, so the gauge group G_t(M) splits as a product of a base gauge group
— over S^4 or CP^2 — and loop factors.  This module builds the splitting
and writes both halves from it.

A splitting is stored once, as a Wedge, one block or many, whose (summand,
count) blocks are in display order; equal cyclic factors of pi1 enter as
one Moore block per dimension, and no block of count 0 is entered.  That
is the normal form terms._merge gives, and the base comes first, so
_assemble takes its Wedge and its Decomposition as given, each made in one
frame past its checks; the box test of tests/test_cli.py checks, for every
splitting it builds, that Wedge and Decomposition give back the same values.
Decomposition's one check lists the base blocks and past them reads the two
ends of the rest alone, since loop_pair's domain is an interval of the order.
The gauge product is not stored: terms.join_blocks adds up the copies, then
one pass over the blocks writes both halves, each summand after the base read
by the loop-factor columns of terms._ATOMS, from terms.loop_pair.  An
answer, in text or in --json, is one list of string parts: fixed heads,
and per repeated block one string repeat, for the text by splitting_parts
and for --json by the CLI.  render_decomposition joins the text once; the
CLI writes either in turn.  Every view costs the number of distinct summands,
and a written answer that plus its bytes.

Four fundamental-group shapes are handled.  Trivial and free pi1, and a
single odd prime-power cyclic pi1, split on the nose.  A genuinely mixed
free product splits after stabilizing, i.e. after taking the connected sum
with d copies of S^2 x S^2.  A concrete d is the splitting of the
stabilized manifold; a symbolic d keeps only the d-independent count in
the S^3 block, which renders as (S^3)^{n+2d}.
"""

from itertools import groupby

from .manifold import PI1_KINDS, ManifoldSpec, Pi1Kind, classify_pi1
from .terms import (
    BASE_NAMES,
    FACTOR_TEXT,
    GAUGE_BASE,
    SCP2,
    SPHERE,
    SYMBOLIC,
    TEXT,
    Moore,
    SpaceTerm,
    Stabilization,
    Wedge,
    as_wedge,
    check_stabilization,
    join_blocks,
    loop_pair,
)
from .value import Value, integer


class DecompositionError(ValueError):
    """A wedge that does not correspond to any gauge-group product."""


class Decomposition(Value):
    """Both halves of one splitting, plus how it was obtained.

    ``suspension`` is a Wedge, an atom given being wrapped as one block of one copy; it
    must hold one base summand (S^5 or SCP^2), of count 1, and every other block must lie
    in loop_pair's domain: one check lists the base blocks and past them reads only the two
    ends of the rest.  ``stabilization`` is 0 for the on-the-nose cases, a d >= 0 or
    SYMBOLIC for the stabilized one, with the d-independent S^3 count.  ``case_used`` is
    one of PI1_KINDS.  _assemble builds its own past these checks (_as_given).
    """

    __slots__ = ("suspension", "t", "stabilization", "case_used")

    def __init__(self, suspension: SpaceTerm, t: int, stabilization: Stabilization,
                 case_used: str) -> None:
        integer(t, "bundle class t", error=DecompositionError)
        stabilization = check_stabilization(stabilization)
        if case_used not in PI1_KINDS:
            raise DecompositionError(f"case_used must be a Pi1Kind, got {case_used!r}")
        susp = as_wedge(suspension)
        bases = [block for block in susp.blocks if block[0] in GAUGE_BASE]
        if len(bases) != 1 or bases[0][1] != 1:
            raise DecompositionError("a splitting needs exactly one base summand")
        # the rest lies in loop_pair's domain, an interval of the order, when its two ends do
        rest = [block for block in susp.blocks if block is not bases[0]]
        for atom, _ in rest[:1] + rest[-1:]:
            if not loop_pair(atom):
                raise DecompositionError(
                    f"summand outside the correspondence: no loop factor for summand: {atom!r}")
        self._set(susp, t, stabilization, case_used)

    @property
    def base(self) -> str:
        """The base of the gauge group: "S4" or "CP2"."""
        return GAUGE_BASE[self.suspension.blocks[0][0]]


def decompose(spec: ManifoldSpec, t: int = 0, *, d: Stabilization = SYMBOLIC) -> Decomposition:
    """Split the suspension and the gauge group G_t(M) of a described M.

    ``d`` is the stabilization count, SYMBOLIC (or None) or an int >= 0,
    checked by check_stabilization for every pi1; only a mixed free product
    uses it.  The structure group stays the formal symbol G: the shape of
    the splitting never depends on it.
    """
    d = check_stabilization(d)
    kind = classify_pi1(spec.pi1)
    return _assemble(spec, t, d if kind == Pi1Kind.MIXED else 0, kind)


def mixed_decomposition(spec: ManifoldSpec, t: int = 0, *, d: Stabilization = SYMBOLIC) -> Decomposition:
    """The stabilized splitting, applicable to every valid spec.

    This is the formula decompose() dispatches to for mixed free products;
    it is exposed separately so the exact cases can be compared against
    their stabilized counterparts at d = 0.  d is checked as in decompose();
    a concrete d is the exact formula applied to the stabilized manifold.
    """
    return _assemble(spec, t, check_stabilization(d), Pi1Kind.MIXED)


def _assemble(spec: ManifoldSpec, t: int, stabilization: Stabilization, kind: str) -> Decomposition:
    """The splitting from a checked stabilization count; a concrete d is that of
    stabilize(spec, d), whose b2 is 2d larger, so 2d more copies of S^3.  The blocks
    are built in the normal form of a wedge: no block of count 0, and in _atom_key's
    order, the base, S^4, P^4(q) by q, S^3, P^3(q) by q, S^2; so the wedge is taken as
    given, with no _merge, and with t checked here, so is the Decomposition."""
    integer(t, "bundle class t", error=DecompositionError)
    m = spec.pi1.free_rank
    n3 = spec.b2 if stabilization == SYMBOLIC else spec.b2 + 2 * stabilization
    if spec.sigma_f_trivial:
        base = SPHERE[5]
    else:
        base, n3 = SCP2, n3 - 1  # one 2-cell is spent on the CP^2 block
    # Equal factors adjoin in the sorted cyclic factors, sorted by (p, r); their runs are
    # sorted again by q = p^r, the display order, where 9 = 3^2 comes after 5 and 7.
    runs = sorted([(p**r, len(list(run))) for (p, r), run in groupby(spec.pi1.cyclic_factors)])
    upper, lower = [(Moore(4, q), n) for q, n in runs], [(Moore(3, q), n) for q, n in runs]
    blocks = [(base, 1), (SPHERE[4], m), *upper] if m else [(base, 1), *upper]
    if n3:
        blocks.append((SPHERE[3], n3))
    blocks += lower
    if m:
        blocks.append((SPHERE[2], m))
    return Decomposition._as_given(Wedge._as_given(tuple(blocks)), t, stabilization, kind)


# --------------------------------------------------------------------------
# rendering


def render_decomposition(dec: Decomposition) -> str:
    """Both halves on one line, suspension first, joined once."""
    return "".join(splitting_parts(dec, True))


def splitting_parts(dec: Decomposition, gauge: bool) -> list[str]:
    """The parts of ``SM = ...``, or of the stabilized ``S(M #_d(S^2xS^2)) = ...``;
    with gauge, then of ``; G_t(M) = ...``, or ``; G_t(M) x (O^2G)^{2d} ~ ...``.
    Both halves are written in one join_blocks pass over the splitting's blocks,
    the product ``G_t(base) x ...`` from the loop factor of each summand after the base."""
    t, stab = dec.t, dec.stabilization
    symbolic = stab == SYMBOLIC
    parts, factors = join_blocks(dec.suspension.blocks, TEXT, " v ",
                                 FACTOR_TEXT if gauge else None, " x ", symbolic)
    parts.insert(0, "SM = " if stab == 0 else f"S(M #_{'d' if symbolic else stab}(S^2xS^2)) = ")
    if gauge:
        power = "{2d}" if symbolic else 2 * stab
        parts.append(f"; G_{t}(M) = " if stab == 0 else f"; G_{t}(M) x (O^2G)^{power} ~ ")
        parts.append(f"G_{t}({BASE_NAMES[dec.base]})")
        if factors:
            parts += (" x ", *factors)
    return parts
