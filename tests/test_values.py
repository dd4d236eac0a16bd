"""Value semantics of gauge4's immutable value classes, and what importing
gauge4 loads.

Every value class derives from ``gauge4.value.Value``: equal only within its
own class, hashed by its fields (a graded group by its invariant factors),
printed in the dataclass form, and closed to assignment and deletion.  gauge4
defines no dataclass, so ``import gauge4`` loads neither ``dataclasses`` nor the
``inspect`` it pulls in.  It compiles no pattern and builds no Enum, named tuple
or Counter, so neither it nor any query loads ``re``, ``enum``, ``collections``
or ``functools``; and no query loads ``json``.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gauge4
import gauge4.cli
from conftest import graded
from gauge4 import (
    ClassRule,
    Decomposition,
    EquivalenceVerdict,
    GaugeExpr,
    IntMatrix,
    LieGroupSpec,
    LoopFactor,
    ManifoldSpec,
    Moore,
    Pi1Descriptor,
    Pi1Kind,
    Sphere,
    SuspCP2,
    Wedge,
)
from gauge4.value import Value

RULE = ClassRule(12, "integral")

#: (build, repr) for each of the value classes: build() makes a fresh value,
#: equal to but not the same object as the last, printed as repr.
VALUES = [
    (lambda: Wedge(()), "Wedge(blocks=())"),
    (lambda: Sphere(3), "Sphere(dim=3)"),
    (lambda: Moore(3, 9), "Moore(dim=3, modulus=9)"),
    (lambda: SuspCP2(), "SuspCP2()"),
    (lambda: Wedge(((Sphere(5), 1), (Moore(3, 3), 2))),
     "Wedge(blocks=((Sphere(dim=5), 1), (Moore(dim=3, modulus=3), 2)))"),
    (lambda: LoopFactor(2), "LoopFactor(loop_order=2, modulus=None)"),
    (lambda: GaugeExpr("S4", 1, ((LoopFactor(3, 9), 1),), "symbolic"),
     "GaugeExpr(base='S4', t=1, blocks=((LoopFactor(loop_order=3, modulus=9), 1),), "
     "stabilization='symbolic')"),
    (lambda: Pi1Descriptor(1, ((9, 1),)),
     "Pi1Descriptor(free_rank=1, cyclic_factors=((3, 2),))"),
    (lambda: ManifoldSpec(Pi1Descriptor(1, ((9, 1),)), 2, False),
     "ManifoldSpec(pi1=Pi1Descriptor(free_rank=1, cyclic_factors=((3, 2),)), b2=2, "
     "sigma_f_trivial=False)"),
    (lambda: LieGroupSpec("SU", 3), "LieGroupSpec(family='SU', n=3)"),
    (lambda: ClassRule(12, "integral"), "ClassRule(k=12, scope='integral', odd_prime_bound=None)"),
    (lambda: EquivalenceVerdict("no", {3: "yes"}, RULE, True),
     "EquivalenceVerdict(integral='no', local={3: 'yes'}, "
     "rule_used=ClassRule(k=12, scope='integral', odd_prime_bound=None), stabilized=True)"),
    (lambda: graded({0: (1, ()), 1: (0, (12,))}),
     "GradedAbelianGroup(groups=((1, ()), (0, (12,)), (0, ()), (0, ()), (0, ()), (0, ())))"),
    (lambda: IntMatrix.from_rows([[1, 2]]), "IntMatrix(rows=1, cols=2, entries=((1, 2),))"),
    (lambda: Decomposition(Wedge(((Sphere(3), 2), (Sphere(5), 1))), 4, 0, Pi1Kind.TRIVIAL),
     "Decomposition(suspension=Wedge(blocks=((Sphere(dim=5), 1), (Sphere(dim=3), 2))), t=4, "
     "stabilization=0, case_used=<Pi1Kind.TRIVIAL: 'simply_connected'>)"),
]
#: Each row is named for its class, but the point, the empty wedge, for itself.
IDS = ["point", *(text.split("(")[0] for _, text in VALUES[1:])]


def test_every_value_class_is_covered():
    assert sorted(IDS[1:]) == sorted(cls.__name__ for cls in Value.__subclasses__())


@pytest.mark.parametrize("build,text", VALUES, ids=IDS)
def test_repr_is_the_dataclass_form(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build,text", VALUES, ids=IDS)
def test_equal_values_hash_alike_and_serve_as_keys(build, text):
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    if isinstance(a, EquivalenceVerdict):  # it holds a dict, as the dataclass did
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    assert {a: text}[b] == text
    assert len({a, b}) == 1


@pytest.mark.parametrize("build,text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(build, text):
    value = build()
    for name in type(value).__slots__ + ("other",):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("build,text", VALUES, ids=IDS)
def test_copy_and_pickle_give_an_equal_value(build, text):
    value = build()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and type(twin) is type(value) and repr(twin) == text


@pytest.mark.parametrize("build,text", VALUES, ids=IDS)
def test_a_value_is_built_again_from_its_fields(build, text):
    value = build()
    assert type(value)(*[getattr(value, name) for name in type(value).__slots__]) == value


def test_a_wedge_does_not_depend_on_the_order_of_its_blocks():
    value = VALUES[IDS.index("Wedge")][0]()
    again = Wedge(value.blocks[::-1])
    assert again == value and hash(again) == hash(value) and repr(again) == repr(value)


def test_equality_holds_only_within_a_class():
    assert Moore(3, 3) != LoopFactor(3, 3)
    assert Wedge(()) != SuspCP2()
    assert Sphere(3) != (3,) and Sphere(3) != 3
    assert Pi1Descriptor() != ()
    assert len({Moore(3, 3), LoopFactor(3, 3), Wedge(()), SuspCP2()}) == 4
    assert Moore(3, 3) != Moore(3, 9) and Sphere(3) != Sphere(4)
    assert ClassRule(12, "integral") != ClassRule(12, "integral", 2)


def test_keywords_and_defaults_follow_the_fields():
    assert LoopFactor(loop_order=2) == LoopFactor(2, None)
    assert Pi1Descriptor() == Pi1Descriptor(0, ())
    assert ClassRule(k=6, scope="odd-primes", odd_prime_bound=3) == ClassRule(6, "odd-primes", 3)
    assert GaugeExpr("CP2", 2) == GaugeExpr("CP2", 2, (), 0)
    assert EquivalenceVerdict("yes", {}, None).stabilized is False


def test_gauge4_defines_no_dataclass():
    # Defining a frozen dataclass costs about a millisecond at import, a
    # hundred times what a Value subclass costs, and importing dataclasses
    # loads inspect, ast, dis and tokenize besides.
    found = set()
    for info in pkgutil.iter_modules(gauge4.__path__):
        if info.name == "__main__":  # it runs the command line
            continue
        module = importlib.import_module(f"gauge4.{info.name}")
        found |= {
            f"{module.__name__}.{name}"
            for name, obj in vars(module).items()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and "__dataclass_fields__" in vars(obj)
        }
    assert found == set()


#: Run in a fresh interpreter: the modules loaded at its start, after ``import gauge4``
#: and after ``import gauge4.cli``, one line each.
_IMPORTS = """
import sys
loaded = [" ".join(sorted(sys.modules))]
for name in ("gauge4", "gauge4.cli"):
    __import__(name)
    loaded.append(" ".join(sorted(sys.modules)))
print("\\n".join(loaded))
"""

#: The standard-library modules ``import gauge4`` loads beyond a bare interpreter's: no
#: regular expression, enum, named tuple or Counter is built at import.
_LIBRARY_IMPORTS = {"__future__", "_operator", "itertools", "math", "operator"}
#: The modules ``import gauge4.cli`` loads beyond those of ``import gauge4``: itself, os
#: (and the _collections_abc it reads) for the exit of a query whose reader has gone, and
#: types for SimpleNamespace.  No option parser, so neither its translations (gettext,
#: locale) nor its terminal width (shutil).
_CLI_IMPORTS = {"gauge4.cli", "os", "os.path", "posixpath", "genericpath", "stat", "_stat",
                "_collections_abc", "types"}


def test_import_loads_only_gauge4_and_json():
    # -S: no site, so nothing a .pth file imports counts as free; nothing is imported
    # first, so nothing hides a module gauge4 loads (json would hide re).
    src = str(Path(gauge4.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-S", "-c", _IMPORTS], env=env, check=True,
                         capture_output=True, text=True).stdout
    bare, library, cli = (set(line.split()) for line in out.splitlines())
    added = {name for name in library - bare if name.split(".")[0] != "gauge4"}
    assert added == _LIBRARY_IMPORTS
    assert cli - library == _CLI_IMPORTS
    assert not {"argparse", "gettext", "locale", "shutil"} & cli


#: The modules no import of gauge4 and no query loads: json, as every --json document is
#: written by hand, and re, enum, collections and functools, as no pattern, Enum, named
#: tuple or Counter is built.
_NEVER_LOADED = ("json", "re", "enum", "collections", "functools")

#: Run in a fresh interpreter: which of _NEVER_LOADED are loaded after ``import gauge4``,
#: after ``import gauge4.cli`` and after each query, as the last line, below the answers
#: of the queries.
_JSON_LOADS = """
import sys
loaded = []
import gauge4
loaded.append([name for name in {never!r} if name in sys.modules])
import gauge4.cli
loaded.append([name for name in {never!r} if name in sys.modules])
for argv in {queries!r}:
    gauge4.cli.run(argv)
    loaded.append([name for name in {never!r} if name in sys.modules])
print(loaded)
"""

#: The queries of _JSON_LOADS, in turn: each subcommand as text and with --json.
JSON_QUERIES = [
    ["decompose", "--pi1", "Z/9*Z", "--b2", "2", "--t", "1", "--d", "3"],
    ["suspension", "--pi1", "Z/3*Z/5", "--b2", "1"],
    ["homology", "--pi1", "Z*Z/9", "--b2", "2", "--suspension"],
    ["classify", "--group", "SU(3)", "--t", "1", "--s", "2", "--primes", "3,11"],
    ["snf", "--matrix", "[[2,4],[6,8]]"],
    ["parse", "--pi1", "Z/25*Z", "--b2", "3"],
    ["decompose", "--pi1", "Z/9*Z", "--b2", "2", "--t", "1", "--d", "3", "--json"],
    ["suspension", "--pi1", "Z/3*Z/5", "--b2", "1", "--json"],
    ["homology", "--pi1", "Z*Z/9", "--b2", "2", "--suspension", "--json"],
    ["classify", "--group", "SU(3)", "--t", "1", "--s", "2", "--primes", "3,11", "--json"],
    ["snf", "--matrix", "[[2,4],[6,8]]", "--json"],
    ["parse", "--pi1", "Z/25*Z", "--b2", "3", "--json"],
]


def test_json_is_never_loaded(capsys):
    # -S, as above: with site, a .pth file may load re and enum before gauge4 is imported
    src = str(Path(gauge4.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    script = _JSON_LOADS.format(never=_NEVER_LOADED, queries=JSON_QUERIES)
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    *answers, loaded = out.splitlines()
    assert loaded == repr([[]] * (2 + len(JSON_QUERIES)))
    for argv in JSON_QUERIES:  # the same bytes as in this process, where json is loaded
        assert gauge4.cli.run(argv) == 0
    assert answers == capsys.readouterr().out.splitlines()


def test_value_classes_of_one_field_count_share_one_set():
    # _set is written out once per field count and bound to each class's slot setters, so
    # defining a value class builds no code, only a closure over its setters.
    codes: dict[int, set] = {}
    classes = Value.__subclasses__()
    for cls in classes:
        codes.setdefault(len(cls.__slots__), set()).add(cls._set.__code__)
    assert sorted(codes) == [0, 1, 2, 3, 4]
    assert all(len(shared) == 1 for shared in codes.values())
    assert len(classes) > len(codes)
