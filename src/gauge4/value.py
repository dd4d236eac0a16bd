"""The one base of all of gauge4's value classes, a hundredth of a frozen dataclass's cost
to define; gauge4 defines no dataclass, so importing it loads neither ``dataclasses`` nor
``inspect``.  A subclass names its fields in ``__slots__`` and sets them in ``__init__``
through ``_set``, after its own checks.  A value equals only values of its own class with
equal fields, so ``Moore(3, 3) != LoopFactor(3, 3)``; it hashes by them, has the dataclass
repr, and cannot be changed: copy and pickle build it again through ``__init__``.  Only
``GradedAbelianGroup`` compares and hashes by a key of its field, its invariant factors.

``integer`` is the one check of an integer a value holds: a count, a dimension, a modulus,
a rank, a class t or s, a prime.  Each module passes its own error class.  ``decimal`` is the
one reader of an integer written as text, in the five grammars and the five integer flags:
a run of ASCII digits that ``digits`` passes, so no other script's digit and no underscore,
with whitespace around ignored; a flag's integer or a matrix entry may carry a sign, and
each grammar checks its own runs with ``digits``, so its integers carry none.  The grammars
are read with str methods, so no pattern is compiled at import: ``str.strip`` strips exactly
the code points for which ``str.isspace`` is true, the whitespace that ``\\s`` matched."""

import sys
from operator import attrgetter

invalid_int = "invalid int value: {!r}".format  # the line refusing a malformed token


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # _values reads the fields in one C call; _set writes them unrolled, as a dataclass
        # does, each through its slot's own setter, which looks up no name (see _SET).
        cls._values = attrgetter(*cls.__slots__ or ("__class__",))
        cls._set = _SET[len(cls.__slots__)](*[vars(cls)[name].__set__ for name in cls.__slots__])

    def __eq__(self, other: object):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle build the value again
        return self.__class__, tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, *value: object):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


# By field count 0-4, what binds slot setters s0, s1, ... into a _set(self, v0, v1, ...)
# calling s0(self, v0), s1(self, v1), ... in turn (a setter returns None, so ``or`` runs
# each); every _set of a count shares one code object.
_SET = (
    lambda: lambda self: None,
    lambda s0: lambda self, v0: s0(self, v0),
    lambda s0, s1: lambda self, v0, v1: s0(self, v0) or s1(self, v1),
    lambda s0, s1, s2: lambda self, v0, v1, v2: s0(self, v0) or s1(self, v1) or s2(self, v2),
    lambda s0, s1, s2, s3: lambda self, v0, v1, v2, v3: (
        s0(self, v0) or s1(self, v1) or s2(self, v2) or s3(self, v3)),
)


def integer(value, what: str, low: int | None = None, error: type = ValueError) -> int:
    """value, if it is an int (a bool is not) and at least low; else error(...) naming what."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise error(f"{what} must be >= {low}, got {value}")
    return value


def digits(text: str) -> bool:
    """Whether text is a run of the ASCII digits 0-9, the one spelling of an integer's digits."""
    return text.isascii() and text.isdigit()


def decimal(token: str, what: str, error: type = ValueError, malformed=invalid_int) -> int:
    """int(token) for a run of digits with whitespace around and at most one sign before
    it, else error(malformed(token)); past Python's digit limit, error(...) naming what."""
    run = token.strip()
    if not digits(run[1:] if run[:1] in "+-" else run):
        raise error(malformed(token))
    try:
        return int(token)
    except ValueError:  # int() past Python's digit limit, the one way such a token fails
        raise error(past_digit_limit(what)) from None


def past_digit_limit(what: str) -> str:
    """The one line refusing an integer past the digits the interpreter reads and writes."""
    return f"{what} has more than {sys.get_int_max_str_digits()} digits"
