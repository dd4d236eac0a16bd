"""The readers of gauge4's five text grammars as they were when regular expressions read
them, kept unchanged as the reference the str-method readers are checked against:
``value.decimal``'s signed token, ``parse_pi1``'s atom, ``parse_term``'s ``S^n`` and
``P^n(q)``, ``parse_group``, and ``parse_matrix``'s shape and rows.  Each builds its
value with gauge4's own classes and raises gauge4's own errors.  Only tests import it."""

import re

from gauge4.classifier import GroupParseError, LieGroupSpec
from gauge4.homology import IntMatrix
from gauge4.manifold import TRIVIAL_PI1, InvalidSpecError, Pi1Descriptor, Pi1ParseError
from gauge4.terms import Moore, Sphere, SuspCP2, TermError, Wedge, wedge
from gauge4.value import invalid_int, past_digit_limit

DIGITS = "[0-9]+"
_SIGNED = re.compile(rf"\s*[+-]?{DIGITS}\s*").fullmatch


def decimal(token: str, what: str, error: type = ValueError, malformed=invalid_int) -> int:
    if not _SIGNED(token):
        raise error(malformed(token))
    try:
        return int(token)
    except ValueError:
        raise error(past_digit_limit(what)) from None


_ATOM_RE = re.compile(rf"\s*Z\s*(?:/\s*({DIGITS})\s*)?")


def parse_pi1(text: str) -> Pi1Descriptor:
    if not (bare := text.strip()):
        raise Pi1ParseError("empty fundamental group")
    if bare == "1":
        return TRIVIAL_PI1
    free_rank = 0
    factors = []
    for atom in bare.split("*"):
        if not (m := _ATOM_RE.fullmatch(atom)):
            raise Pi1ParseError(f"bad fundamental-group atom: {atom.strip()!r}")
        if m.group(1) is None:
            free_rank += 1
            continue
        factors.append((decimal(m.group(1), "cyclic factor base", Pi1ParseError), 1))
    try:
        return Pi1Descriptor(free_rank, tuple(factors))
    except InvalidSpecError as exc:
        raise Pi1ParseError(str(exc)) from None


_SPHERE_RE = re.compile(rf"S\^({DIGITS})")
_MOORE_RE = re.compile(rf"P\^({DIGITS})\(({DIGITS})\)")


def parse_term(text: str):
    if not text.strip():
        raise TermError("empty term")
    parts = [p.strip() for p in text.split("v")]
    atoms = [_parse_atom(p) for p in parts]
    return wedge(atoms)


def _parse_atom(text: str):
    if text == "pt":
        return Wedge(())
    if text == "SCP^2":
        return SuspCP2()
    if m := _SPHERE_RE.fullmatch(text):
        return Sphere(decimal(m.group(1), "sphere dimension", TermError))
    if m := _MOORE_RE.fullmatch(text):
        return Moore(decimal(m.group(1), "Moore space dimension", TermError),
                     decimal(m.group(2), "Moore space modulus", TermError))
    raise TermError(f"bad term atom: {text!r}")


_GROUP_RE = re.compile(rf"(SU|Sp)\(({DIGITS})\)")


def parse_group(text: str) -> LieGroupSpec:
    text = text.strip()
    if text == "G2":
        return LieGroupSpec("G2")
    if not (m := _GROUP_RE.fullmatch(text)):
        raise GroupParseError(f"bad group name: {text!r}")
    return LieGroupSpec(m.group(1), decimal(m.group(2), "group rank n", GroupParseError))


_ROW = r"\[([^][]*)\]"  # one row: the text inside a bracket pair that holds no bracket
_SHAPE = rf"\s*\[\s*(?:{_ROW}\s*(?:,\s*{_ROW}\s*)*)?\]\s*"  # rows, comma-split, in brackets


def parse_matrix(text: str) -> IntMatrix:
    if not re.fullmatch(_SHAPE, text):
        raise ValueError("bad matrix syntax: expected a bracketed list of bracketed rows")
    return IntMatrix.from_rows([
        [decimal(entry.strip(), "bad matrix syntax: an entry", ValueError,
                 "bad matrix entry: {!r}".format) for entry in row.split(",")]
        if row.strip() else [] for row in re.findall(_ROW, text.strip()[1:-1])])
