"""The five text grammars read as the regular expressions of ``regex_grammars`` read them.

A seeded corpus of texts per grammar, drawn from every whitespace code point, ASCII
digits, digits of other scripts, the underscore, signs and the grammar's own punctuation,
nested and unbalanced brackets included, is read by gauge4 and by the reference: the two
must accept the same texts with the same value and refuse the others with the same error
class and line."""

import random
import re

import pytest

import regex_grammars
from gauge4 import parse_group, parse_matrix, parse_pi1, parse_term
from gauge4.value import decimal

#: Every code point for which str.isspace() is true, which is what re's \s matches in a
#: str pattern and what str.strip() strips (checked below over all code points).
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
              + "".join(map(chr, range(0x2000, 0x200B))) + "\u2028\u2029\u202f\u205f\u3000")
#: What may stand in a digit run and is not an ASCII digit: an Arabic-Indic three, a
#: fullwidth three, a superscript two (all str.isdigit()), and the underscore int() reads.
NOT_DIGITS = ["\u0663", "\uff13", "\u00b2", "_"]
#: Each grammar's own punctuation, brackets nested and unbalanced among them.
PUNCTUATION = {
    "decimal": ["+", "-", "++", "+-", ".", "e"],
    "pi1": ["Z", "z", "/", "//", "*", "**", "1", "(", ")"],
    "term": ["S", "P", "^", "^^", "(", ")", "((", "))", "v", "V", "pt", "SCP^2", "SCP"],
    "group": ["SU", "Sp", "G2", "S", "U", "p", "(", ")", "((", "))", "+", "-"],
    "matrix": ["[", "]", "[[", "]]", "[]", "][", ",", ",,", "+", "-", "--"],
}


def pad(rng: random.Random) -> str:
    return "".join(rng.choices(WHITESPACE, k=rng.choice((0, 0, 0, 1, 2))))


def number(rng: random.Random, signed: float = 0.05) -> str:
    """A digit run of a value the grammars accept, at times with a leading zero, a sign, a
    character from NOT_DIGITS or whitespace inside it, past Python's digit limit, or empty."""
    text = str(rng.choice((0, 1, 2, 3, 4, 5, 7, 9, 11, 25, 27, 49, 121, 343, 6, 10, 100)))
    r = rng.random()
    if r < signed:
        text = rng.choice("+-") + text
    elif r < signed + 0.1:
        text = "0" + text
    elif r < signed + 0.2:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(NOT_DIGITS + list(WHITESPACE)) + text[at:]
    elif r < signed + 0.23:
        text = ""
    elif r < signed + 0.24:
        text = "9" * 4400
    return text


def _decimal(rng):
    return pad(rng) + number(rng, signed=0.4) + pad(rng)


def _pi1(rng):
    if rng.random() < 0.1:
        return pad(rng) + "1" + pad(rng)
    atoms = [pad(rng) + "Z" + pad(rng) + (f"/{pad(rng)}{number(rng)}{pad(rng)}"
                                            if rng.random() < 0.6 else "")
             for _ in range(rng.randint(1, 3))]
    return "*".join(atoms)


def _term(rng):
    def atom():
        return rng.choice(("pt", "SCP^2", f"S^{number(rng)}", f"P^{number(rng)}({number(rng)})"))

    return "v".join(pad(rng) + atom() + pad(rng) for _ in range(rng.randint(1, 3)))


def _group(rng):
    name = rng.choice(("G2", f"SU({number(rng)})", f"Sp({number(rng)})"))
    return pad(rng) + name + pad(rng)


def _matrix(rng):
    cols = rng.randint(0, 3)
    rows = ["[" + ",".join(pad(rng) + number(rng, signed=0.3) + pad(rng) for _ in range(cols))
            + "]" for _ in range(rng.randint(0, 3))]
    return pad(rng) + "[" + pad(rng) + ",".join(pad(rng) + row + pad(rng) for row in rows) \
        + pad(rng) + "]" + pad(rng)


#: grammar -> (its text generator, the gauge4 reader, the reference reader)
GRAMMARS = {
    "decimal": (_decimal, lambda text: decimal(text, "an integer"),
                lambda text: regex_grammars.decimal(text, "an integer")),
    "pi1": (_pi1, parse_pi1, regex_grammars.parse_pi1),
    "term": (_term, parse_term, regex_grammars.parse_term),
    "group": (_group, parse_group, regex_grammars.parse_group),
    "matrix": (_matrix, parse_matrix, regex_grammars.parse_matrix),
}


def corpus(grammar: str, count: int, seed: int) -> list[str]:
    """count texts: a grammar's text, edited at times by a few insertions, replacements or
    deletions of pieces, or else a run of pieces at random."""
    rng = random.Random(f"{grammar}:{seed}")
    build = GRAMMARS[grammar][0]
    pieces = PUNCTUATION[grammar] + NOT_DIGITS + list(WHITESPACE) + list("0123456789")
    texts = []
    for _ in range(count):
        r = rng.random()
        if r < 0.15:
            texts.append("".join(rng.choices(pieces, k=rng.randint(0, 8))))
            continue
        text = build(rng)
        if r < 0.55:
            for _ in range(rng.randint(1, 2)):
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(pieces) * (rng.random() < 0.8) \
                    + text[at + rng.randint(0, 1):]
        texts.append(text)
    return texts


def outcome(read, text):
    """("value", repr) of what read gives, or (error class, line) of what it raises."""
    try:
        return "value", repr(read(text))
    except ValueError as exc:  # every grammar's error class is a ValueError
        return type(exc), str(exc)


@pytest.mark.parametrize("grammar", sorted(GRAMMARS))
def test_each_grammar_reads_as_its_regular_expression(grammar):
    _, read, reference = GRAMMARS[grammar]
    accepted = refused = 0
    for text in corpus(grammar, 2000, 37):
        want = outcome(reference, text)
        assert outcome(read, text) == want, repr(text)
        accepted += want[0] == "value"
        refused += want[0] != "value"
    assert accepted > 300 and refused > 300, (accepted, refused)


def test_whitespace_is_one_set_of_29_code_points():
    # re's \s in a str pattern, str.isspace() and str.strip() agree on every code point
    everything = "".join(map(chr, range(0x110000)))
    assert "".join(re.findall(r"\s", everything)) == WHITESPACE
    assert "".join(c for c in everything if c.isspace()) == WHITESPACE
    assert "".join(c for c in everything if not c.strip()) == WHITESPACE
    assert len(WHITESPACE) == 29
