"""Input descriptors for closed orientable smooth 4-manifolds.

A manifold enters the engine as the triple of data the decomposition
formulas actually consume: the fundamental group (a free product of copies
of Z and of cyclic groups of odd prime-power order), the second Betti
number, and whether the suspended attaching map of the top cell is trivial
(for these manifolds that flag is exactly "admits a spin structure", so the
constructors accept ``spin=`` as an alias).
"""

from __future__ import annotations

from .arith import prime_power
from .terms import SYMBOLIC, TermError, check_stabilization
from .value import Value, decimal, digits, integer


class InvalidSpecError(ValueError):
    """A manifold description the engine rejects, with its reasons joined by "; "."""


class Pi1ParseError(ValueError):
    """Unparseable fundamental-group expression."""


class Pi1Descriptor(Value):
    """Free product Z^{*free_rank} * (Z/p1^r1) * ... * (Z/pk^rk).

    Cyclic factors are (p, r) pairs with p prime, kept sorted, so two
    descriptors of the same group are equal as values: a prime-power base
    is rewritten, (9, 1) to (3, 2), any other base is rejected, and so is
    an exponent r < 1.  Even p is kept here: ManifoldSpec rejects it.
    """

    __slots__ = ("free_rank", "cyclic_factors")

    def __init__(self, free_rank: int = 0, cyclic_factors: tuple = ()) -> None:
        integer(free_rank, "free rank", 0, InvalidSpecError)
        bases: dict[int, tuple[int, int] | None] = {}  # each distinct base is decided once
        factors = []
        for p, r in cyclic_factors:
            if p not in bases:
                integer(p, "cyclic factor base", error=InvalidSpecError)
                bases[p] = prime_power(p)
            integer(r, "cyclic factor exponent", 1, InvalidSpecError)
            pr = bases[p]
            if pr is None:
                power = "" if r == 1 else f"^{r}"
                raise InvalidSpecError(f"modulus {p}{power} is not a prime power")
            factors.append((pr[0], pr[1] * r))
        self._set(free_rank, tuple(sorted(factors)))


TRIVIAL_PI1 = Pi1Descriptor()


class Pi1Kind:
    """Which decomposition formula a fundamental group calls for: one of the four constants
    TRIVIAL, FREE, CYCLIC and MIXED, in PI1_KINDS, each with its --json label as ``value``.

    ``Pi1Kind(label)`` gives back the constant of that label and refuses any other, so no
    fifth kind is built, and copy and pickle give back the constant.  A kind prints as an
    enum member does, and its fields cannot be changed."""

    __slots__ = ("name", "value")

    def __new__(cls, value: object) -> Pi1Kind:
        for kind in PI1_KINDS:
            if value is kind or value == kind.value:
                return kind
        raise ValueError(f"{value!r} is not a valid Pi1Kind")

    def __reduce__(self) -> tuple:
        return Pi1Kind, (self.value,)

    def __repr__(self) -> str:
        return f"<Pi1Kind.{self.name}: {self.value!r}>"

    def __setattr__(self, name: str, *value: object):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


def _kind(name: str, value: str) -> Pi1Kind:
    kind = object.__new__(Pi1Kind)
    object.__setattr__(kind, "name", name)
    object.__setattr__(kind, "value", value)
    setattr(Pi1Kind, name, kind)
    return kind


PI1_KINDS = (_kind("TRIVIAL", "simply_connected"), _kind("FREE", "free"),
             _kind("CYCLIC", "cyclic"), _kind("MIXED", "mixed"))


def classify_pi1(pi1: Pi1Descriptor) -> Pi1Kind:
    """Sort a fundamental group into one of the four supported shapes.

    Trivial; free of rank m >= 1; a single cyclic group of odd prime-power
    order; or a genuinely mixed free product (>= 2 cyclic factors, or a
    free part alongside torsion), which is only decomposed after
    stabilization.
    """
    has_free = pi1.free_rank >= 1
    n_cyclic = len(pi1.cyclic_factors)
    if not has_free and n_cyclic == 0:
        return Pi1Kind.TRIVIAL
    if has_free and n_cyclic == 0:
        return Pi1Kind.FREE
    if not has_free and n_cyclic == 1:
        return Pi1Kind.CYCLIC
    return Pi1Kind.MIXED


class ManifoldSpec(Value):
    """(fundamental group, second Betti number, top-cell suspension flag).

    Only specs in the engine's domain can be built.  Besides a pi1 that is
    not a Pi1Descriptor, a b2 that is not an int >= 0 and a flag that is
    not a bool, exactly two conditions are rejected: a torsion prime of 2
    (the decompositions need odd torsion), and a nontrivial top-cell flag
    with b2 = 0 (no CP^2 summand to suspend).  Both are reported at once,
    each once, the prime first.
    """

    __slots__ = ("pi1", "b2", "sigma_f_trivial")

    def __init__(
        self, pi1: Pi1Descriptor = TRIVIAL_PI1, b2: int = 0, sigma_f_trivial: bool = True
    ) -> None:
        if not isinstance(pi1, Pi1Descriptor):
            raise InvalidSpecError(f"pi1 must be a Pi1Descriptor, got {pi1!r}")
        integer(b2, "b2", 0, InvalidSpecError)
        if not isinstance(sigma_f_trivial, bool):
            raise InvalidSpecError(f"sigma-f flag must be a bool, got {sigma_f_trivial!r}")
        errors = []
        if any(p % 2 == 0 for p, _ in pi1.cyclic_factors):
            errors.append("even torsion prime")
        if not sigma_f_trivial and b2 == 0:
            errors.append("nontrivial sigma-f with b2 = 0")
        if errors:
            raise InvalidSpecError("; ".join(errors))
        self._set(pi1, b2, sigma_f_trivial)


def manifold(
    pi1: Pi1Descriptor | str = TRIVIAL_PI1,
    b2: int = 0,
    *,
    sigma_f_trivial: bool | None = None,
    spin: bool | None = None,
) -> ManifoldSpec:
    """Convenience constructor; accepts a pi1 string and the spin alias."""
    if isinstance(pi1, str):
        pi1 = parse_pi1(pi1)
    if sigma_f_trivial is None:
        sigma_f_trivial = True if spin is None else spin
    elif spin is not None and spin != sigma_f_trivial:
        raise InvalidSpecError("conflicting sigma-f / spin flags")
    return ManifoldSpec(pi1, b2, sigma_f_trivial)


def connected_sum(a: ManifoldSpec, b: ManifoldSpec) -> ManifoldSpec:
    """Connected sum: free product on pi1, sum on b2, AND on the flag."""
    pi1 = Pi1Descriptor(
        a.pi1.free_rank + b.pi1.free_rank,
        a.pi1.cyclic_factors + b.pi1.cyclic_factors,
    )
    return ManifoldSpec(pi1, a.b2 + b.b2, a.sigma_f_trivial and b.sigma_f_trivial)


def stabilize(spec: ManifoldSpec, d: int) -> ManifoldSpec:
    """Connected sum with d copies of S^2 x S^2, d an int >= 0: b2 grows by 2d."""
    if check_stabilization(d) == SYMBOLIC:
        raise TermError(f"stabilize needs a concrete count, got {d!r}")
    return ManifoldSpec(spec.pi1, spec.b2 + 2 * d, spec.sigma_f_trivial)


# --------------------------------------------------------------------------
# the pi1 grammar, shared with the command line

def parse_pi1(text: str) -> Pi1Descriptor:
    """Parse ``1`` or a ``*``-joined product of ``Z`` and ``Z/q`` atoms.

    Whitespace around ``1``, ``Z``, ``/`` and ``q`` is ignored, and none
    inside q.  Each q must be a prime power; q = p^r with p
    odd is what the engine supports, but p = 2 is accepted here and
    rejected by ManifoldSpec, so the error message can say why.
    """
    if not (bare := text.strip()):
        raise Pi1ParseError("empty fundamental group")
    if bare == "1":
        return TRIVIAL_PI1
    free_rank = 0
    factors = []
    for atom in bare.split("*"):
        z, slash, q = atom.partition("/")
        q = q.strip()
        if z.strip() != "Z" or slash and not digits(q):
            raise Pi1ParseError(f"bad fundamental-group atom: {atom.strip()!r}")
        if not slash:
            free_rank += 1
            continue
        factors.append((decimal(q, "cyclic factor base", Pi1ParseError), 1))
    try:
        return Pi1Descriptor(free_rank, tuple(factors))
    except InvalidSpecError as exc:  # the descriptor splits each q into p^r, or rejects it
        raise Pi1ParseError(str(exc)) from None


def render_pi1(pi1: Pi1Descriptor) -> str:
    """Inverse of parse_pi1 on descriptors: ``1``, ``Z*Z/9``, ..."""
    atoms = ["Z"] * pi1.free_rank
    atoms += [f"Z/{p**r}" for p, r in pi1.cyclic_factors]
    return "*".join(atoms) if atoms else "1"
