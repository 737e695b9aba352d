"""One way to fail a check.

A failed check on the program's own results raises `InvariantError`
(`UnclassifiableError` is one); a bad argument raises `ValueError`.  Neither
may be an `assert`, which `python -O` strips.
"""

import ast
import copy
from collections import Counter
from functools import cached_property
from pathlib import Path

import pytest

import degen_atlas
from degen_atlas.chamber_walk import (
    Chamber,
    ComponentFate,
    LiftFan,
    StableModelDescription,
    WallEvent,
    lift_fan,
)
from degen_atlas.ec_oracle import (
    Curve,
    MembershipVerdict,
    PointAssignment,
    pinned_curves,
    randomized_membership_test,
)
from degen_atlas.exact_lattice import GramForm, QuotientLattice, SmithForm, mat, snf
from degen_atlas.period_relations import (
    DeriveResult,
    Divisor,
    RelationRow,
    RelationSystem,
    derive,
    relation_rows,
)
from degen_atlas.root_classifier import (
    GeneralizedRootSet,
    LatticeType,
    model_type,
    script_L,
)
from degen_atlas.surface_pair import (
    P2,
    CatalogueRow,
    CurveEntry,
    PairLattice,
    SurfaceModel,
    catalogue_model,
    curve_catalogue,
    make_pair_lattice,
)
from oracles import run_python, run_python_O

SRC = Path(degen_atlas.__file__).resolve().parent


def _second_mechanisms(tree):
    """Line and text of each assert, AssertionError or _require in `tree`,
    except the one base class of InvariantError."""
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "InvariantError":
            allowed.update(id(base) for base in node.bases)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "AssertionError" and id(node) not in allowed:
            found.append((node.lineno, "AssertionError"))
        elif "_require" in (getattr(node, key, None) for key in ("id", "attr", "name")):
            found.append((node.lineno, "_require"))
    return found


def test_src_has_one_invariant_mechanism():
    modules = sorted(SRC.glob("*.py"))
    assert "exact_lattice.py" in {path.name for path in modules}
    found = {
        path.name: hits
        for path in modules
        if (hits := _second_mechanisms(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_the_scan_sees_each_second_mechanism():
    code = (
        "class InvariantError(AssertionError):\n"
        "    pass\n"
        "def _require(ok):\n"
        "    assert ok\n"
        "    raise AssertionError('x')\n"
        "try:\n"
        "    checks._require(0)\n"
        "except (AssertionError, ValueError):\n"
        "    pass\n"
        "from checks import _require\n"
    )
    assert sorted(_second_mechanisms(ast.parse(code))) == [
        (3, "_require"), (4, "assert"), (5, "AssertionError"),
        (7, "_require"), (8, "AssertionError"), (10, "_require"),
    ]


# The package's layers, lowest first.  A module imports from the package only
# what lies in a lower layer, so the imports have no cycle; the facade
# __init__ sits on top with the command line.
LAYERS = (
    {"exact_lattice"},
    {"surface_pair"},
    {"root_classifier", "period_relations", "chamber_walk"},
    {"ec_oracle"},
    {"cli", "__init__"},
)


def _package_imports(tree):
    """The package modules that `tree` imports by `from .x import` or
    `from . import x`, anywhere: at the top, in a function or under a guard."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_src_imports_follow_the_layers():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    modules = {path.stem: path for path in SRC.glob("*.py")}
    assert set(modules) == set(layer)
    upward = {
        (name, imported)
        for name, path in modules.items()
        for imported in _package_imports(ast.parse(path.read_text(), str(path)))
        if layer[imported] >= layer[name]
    }
    assert upward == set()
    assert _package_imports(ast.parse(modules["surface_pair"].read_text())) == {"exact_lattice"}


def test_the_import_scan_sees_lazy_and_guarded_imports():
    code = (
        "from typing import TYPE_CHECKING\n"
        "from .exact_lattice import mat\n"
        "if TYPE_CHECKING:\n"
        "    from .period_relations import Divisor\n"
        "def f():\n"
        "    from . import chamber_walk\n"
    )
    want = {"exact_lattice", "period_relations", "chamber_walk"}
    assert _package_imports(ast.parse(code)) == want


_FLOAT_MATH = {"sqrt", "log", "exp"}


def _floating_point(tree):
    """Line and text of each true division, float literal, float() call and
    math.sqrt, math.log or math.exp in `tree`, imported by name or not."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            hits.append(node)
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hits.append(node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            hits.append(node)
        elif (isinstance(node, ast.Attribute) and node.attr in _FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            hits.append(node)
        elif (isinstance(node, ast.ImportFrom) and node.module == "math"
              and {a.name for a in node.names} & _FLOAT_MATH):
            hits.append(node)
    return sorted((node.lineno, ast.unparse(node)) for node in hits)


def test_src_has_no_floating_point():
    # the core promises exact arithmetic: integers and exact rationals only
    modules = sorted(SRC.glob("*.py"))
    assert "exact_lattice.py" in {path.name for path in modules}
    found = {
        path.name: hits
        for path in modules
        if (hits := _floating_point(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_the_float_scan_sees_each_kind():
    code = (
        "import math\n"
        "from math import isqrt, log\n"
        "a = 7 // 2\n"
        "b = 7 / 2\n"
        "b /= 2\n"
        "c = 0.5\n"
        "d = float('1')\n"
        "e = math.sqrt(2) + math.exp(1) + math.isqrt(4)\n"
    )
    assert [line for line, _ in _floating_point(ast.parse(code))] == [2, 4, 5, 6, 7, 8, 8]


def test_bad_arguments_raise_value_error_under_python_O():
    # bad arguments raise ValueError also under -O, which strips asserts
    code = (
        "from degen_atlas.exact_lattice import GramForm, in_span, mat\n"
        "from degen_atlas.period_relations import Divisor\n"
        "from degen_atlas.root_classifier import discriminant_group_order\n"
        "from degen_atlas.surface_pair import point_symbol\n"
        "calls = [\n"
        "    lambda: mat([[1, 2], [3]]),\n"
        "    lambda: discriminant_group_order(GramForm(mat([[1]]))),\n"
        "    lambda: in_span((1, 1, 0), [(1, 0), (0, 1)]),\n"
        "    lambda: Divisor.of({'x5': 1, 'q': -1}),\n"
        "    lambda: point_symbol('l'),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        print('accepted:', call())\n"
        "    except ValueError as exc:\n"
        "        print(f'{type(exc).__name__}: {exc}')\n"
    )
    done = run_python_O(["-c", code], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "ValueError: ragged matrix",
        "ValueError: form is not negative definite",
        "ValueError: dimension mismatch",
        "ValueError: unknown point symbol 'x5'",
        "ValueError: l is not an exceptional class",
    ]


# Plain records are NamedTuples: immutable, equal and hashed by their
# fields, and printed as Name(field=value, ...).  A class is an explicit
# FrozenValue, with the same behaviour written out once in its base, only
# for what a tuple cannot do: state its constructor checks or converts, a
# cached_property, or arithmetic, where a tuple base would make `d * 3` a
# repetition.  No class is a dataclass, whose methods are generated when
# the package is imported.
RECORDS = (
    ComponentFate, StableModelDescription, WallEvent, Chamber, LiftFan,
    PointAssignment, MembershipVerdict, SmithForm, QuotientLattice,
    RelationSystem, DeriveResult, RelationRow, GeneralizedRootSet, LatticeType,
    CurveEntry,
)


@pytest.fixture(scope="module")
def records():
    """One instance of each plain record, as the program makes it."""
    fan = lift_fan(catalogue_model("E8E8"))
    event = fan.events[0]
    row = next(r for r in relation_rows() if r.key == "D17")
    _, _, system, target = row.oriented()
    refuted = randomized_membership_test(
        system, target + Divisor.of({"p2": 1, "p3": -1}), curve=pinned_curves()[0]
    )
    d17 = catalogue_model("D17")
    lattice_type, roots = model_type(d17)
    made = (
        fan, fan.chambers[1], event, event.stable_model, event.stable_model.components[0],
        refuted, refuted.witness, snf(mat([[2, 4], [6, 8]])), script_L(d17),
        system, derive(system, target), row, roots, lattice_type, curve_catalogue(d17)[0],
    )
    return {type(r): r for r in made}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_plain_records_are_frozen_values(records, cls):
    assert set(records) == set(RECORDS)
    record = records[cls]
    first = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        record.extra = 1
    twin = cls(**{k: copy.deepcopy(v) for k, v in record._asdict().items()})
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    fields = ", ".join(f"{k}={v!r}" for k, v in record._asdict().items())
    assert repr(record) == f"{cls.__name__}({fields})"


def test_record_reprs_are_unchanged(records):
    row = records[RelationRow]
    _, _, system, target = row.oriented()
    verdict = randomized_membership_test(system, target, curve=pinned_curves()[0])
    assert repr(verdict) == "MembershipVerdict(verdict='SUPPORTED', trials=100, witness=None)"
    assert repr(records[Chamber]) == (
        "Chamber(upper=(1, -1), lower=(1, -2), labels=('Bl9P2', 'Bl9P2'), flops=(\"e'10\",))"
    )


# One instance of each value class, and its repr as a frozen dataclass.
VALUES = {
    GramForm: (lambda: GramForm(mat([[-2]])), "GramForm(gram=((-2,),))"),
    PairLattice: (
        lambda: make_pair_lattice(P2, 1, P2, 0),
        "PairLattice(base0='P2', base1='P2', names=('l', 'e1', \"l'\"), "
        "gram_form=GramForm(gram=((1, 0, 0), (0, -1, 0), (0, 0, 1))))",
    ),
    SurfaceModel: (
        lambda: SurfaceModel(
            "CUSTOM", make_pair_lattice(P2, 1, P2, 0), (0, 0, 1), (1, 0, 0),
            restrictions={"l": {"q": 3}, "e1": {"p1": 1}, "l'": {"q'": 3}},
            aux_relations=({"p1": 1, "q": -1},)),
        "SurfaceModel(id='CUSTOM', lattice=PairLattice(base0='P2', base1='P2', "
        "names=('l', 'e1', \"l'\"), gram_form=GramForm(gram=((1, 0, 0), (0, -1, 0), "
        "(0, 0, 1)))), tags=(0, 0, 1), h=(1, 0, 0), fiber_classes=(), flop_history=(), "
        "annotation=None, restrictions=mappingproxy({'l': mappingproxy({'q': 3}), "
        "'e1': mappingproxy({'p1': 1}), \"l'\": mappingproxy({\"q'\": 3})}), "
        "aux_relations=(mappingproxy({'p1': 1, 'q': -1}),))",
    ),
    CatalogueRow: (
        lambda: CatalogueRow(
            P2, 1, P2, 0, {"l": 1}, "A1", (((1, 0), (1, -1)), ()), {"q": 3, "p1": -3},
            fibers=({"l": 1, "e1": -1},), overrides=({"l": {"q": 3}}, ({"p1": 1},))),
        "CatalogueRow(base0='P2', n0=1, base1='P2', n1=0, h=mappingproxy({'l': 1}), "
        "type='A1', fan=(((1, 0), (1, -1)), ()), relation=mappingproxy({'q': 3, 'p1': -3}), "
        "fibers=(mappingproxy({'l': 1, 'e1': -1}),), annotation=None, "
        "overrides=(mappingproxy({'l': mappingproxy({'q': 3})}), (mappingproxy({'p1': 1}),)))",
    ),
    Curve: (
        lambda: pinned_curves()[0],
        "Curve(p=10007, a=1, b=1, order=10065, exponent=10065, generator=(1, 8530))",
    ),
    Divisor: (lambda: Divisor.of({"q": 3, "p1": -3}), "Divisor(coeffs=(('q', 3), ('p1', -3)))"),
}
CACHED = {
    GramForm: {"rows", "bareiss"},
    PairLattice: {"_positions"},
    SurfaceModel: {"xi", "_double_curve_classes"},
    CatalogueRow: set(),
    Curve: {"_inverses", "_arithmetic", "_multiples"},
    Divisor: set(),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_classes_are_frozen_values(cls):
    make, want = VALUES[cls]
    value = make()
    assert repr(value) == want
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    twin = cls(**{name: getattr(value, name) for name in value._fields})
    assert twin is not value and twin == value and repr(twin) == want
    if cls is CatalogueRow:  # its read-only mappings are unhashable
        with pytest.raises(TypeError, match="unhashable type: 'mappingproxy'"):
            hash(value)
    else:
        assert hash(twin) == hash(value)
    # the caches stay cached properties, and a copy carries none of them over
    cached = {name for name, attr in vars(cls).items() if isinstance(attr, cached_property)}
    assert cached == CACHED[cls]
    if cls is not Curve:  # a curve's caches are tables of size p
        for name in cached:
            getattr(value, name)
        assert set(vars(value)) == set(value._fields) | cached
    first = value._fields[0]
    copied = value._replace(**{first: getattr(value, first)})
    assert copied == value and set(vars(copied)) == set(value._fields)


def test_a_model_hash_skips_its_mappings_and_a_copy_recomputes_xi():
    make, _ = VALUES[SurfaceModel]
    m = make()
    bare = m._replace(restrictions=None, aux_relations=())
    assert bare != m and hash(bare) == hash(m)
    assert m.xi == (-3, 1, 3)
    moved = m._replace(tags=(0, 1, 1))
    assert moved.xi == (-3, -1, 3) and m.xi == (-3, 1, 3)


def test_importing_the_package_loads_no_dataclasses_and_no_fractions():
    # pytest itself imports dataclasses, so only a fresh interpreter shows this
    code = ("import sys\nimport degen_atlas.cli\n"
            "print(sorted({'dataclasses', 'fractions'} & set(sys.modules)))\n")
    done = run_python(["-c", code], timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_divisor_times_an_integer_is_not_repetition():
    q = Divisor.of({"q": 1})
    assert 3 * q == Divisor.of({"q": 3})
    with pytest.raises(TypeError):
        q * 3


_ARITHMETIC = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__"}


def _referenced_name(node):
    """The name a decorator or base refers to: `x`, `x(...)` or `m.x` give x."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _record_breaches(tree):
    """Line, class and breach of each class in `tree` that breaks the record
    rule: a @dataclass of any kind, or a NamedTuple that defines an
    arithmetic dunder."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        names = {n.name for n in node.body if isinstance(n, ast.FunctionDef)} | {
            t.id for n in node.body if isinstance(n, ast.Assign)
            for t in n.targets if isinstance(t, ast.Name)
        }
        if any(_referenced_name(d) == "dataclass" for d in node.decorator_list):
            found.append((node.lineno, node.name, "dataclass"))
        if any(_referenced_name(b) == "NamedTuple" for b in node.bases) and names & _ARITHMETIC:
            found.append((node.lineno, node.name, "NamedTuple with arithmetic"))
    return found


def test_src_defines_no_dataclass_and_no_namedtuple_arithmetic():
    modules = sorted(SRC.glob("*.py"))
    assert "exact_lattice.py" in {path.name for path in modules}
    found = {
        path.name: hits
        for path in modules
        if (hits := _record_breaches(ast.parse(path.read_text(), str(path))))
    }
    assert found == {}


def test_the_record_scan_sees_each_breach():
    code = (
        "@dataclass(frozen=True)\n"
        "class Plain:\n"
        "    x: int\n"
        "@dataclasses.dataclass\n"
        "class Cached:\n"
        "    @functools.cached_property\n"
        "    def y(self): return 1\n"
        "@dataclass\n"
        "class Checked:\n"
        "    def __post_init__(self): pass\n"
        "@dataclass(frozen=True)\n"
        "class Sum:\n"
        "    def __add__(self, other): return self\n"
        "class Tuple(NamedTuple):\n"
        "    def __neg__(self): return self\n"
        "class Scaled(typing.NamedTuple):\n"
        "    def __rmul__(self, k): return self\n"
        "    __mul__ = __rmul__\n"
        "class Record(NamedTuple):\n"
        "    def total(self): return 0\n"
    )
    assert _record_breaches(ast.parse(code)) == [
        (2, "Plain", "dataclass"),
        (5, "Cached", "dataclass"),
        (9, "Checked", "dataclass"),
        (12, "Sum", "dataclass"),
        (14, "Tuple", "NamedTuple with arithmetic"),
        (16, "Scaled", "NamedTuple with arithmetic"),
    ]


# Where a name of src/ counts as used: the program, its demos and its
# benchmark, which wraps functions by name, but not the tests.
USERS = [SRC.parent.parent / "demos", SRC.parent.parent / "perfbench"]


def _names_read(tree):
    """How often `tree` reads each name: as an ast.Name or ast.Attribute not
    assigned to, or as a string constant that is an identifier."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Store):
            counts[node.id if isinstance(node, ast.Name) else node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            counts[node.value] += 1
    return counts


def _definitions(tree):
    """Line, name and own subtree of each top-level function, class and
    assigned name in `tree` and of each method of its classes but dunders;
    an assignment owns no subtree."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id, None) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(n.lineno, n.name, n) for n in node.body if isinstance(n, ast.FunctionDef)
                      and not (n.name.startswith("__") and n.name.endswith("__"))]
    return found


def _unused_definitions(trees, users):
    """Module, line and name of each definition in `trees` (module ->
    tree) that neither `trees` nor `users` read outside its own subtree."""
    read = sum((_names_read(t) for t in [*trees.values(), *users]), Counter())
    return [
        (module, line, name)
        for module, tree in trees.items()
        for line, name, own in _definitions(tree)
        if read[name] == (_names_read(own)[name] if own else 0)
    ]


def test_src_defines_nothing_that_nothing_uses():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    users = [ast.parse(path.read_text(), str(path))
             for folder in USERS for path in sorted(folder.glob("*.py"))
             if not path.name.startswith("test_")]
    assert "exact_lattice.py" in trees and len(users) >= 10
    unused = [hit for hit in _unused_definitions(trees, users) if hit[2] != "__version__"]
    assert unused == []  # __version__ is read by the package's users


def test_the_unused_scan_sees_each_kind():
    code = (
        "LIMIT = 3\n"
        "def helper(x): return x\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Box:\n"
        "    def __init__(self): self.opened = Box.opened\n"
        "    def opened(self): return helper(self)\n"
        "    def closed(self): return 'wrapped'\n"
        "def by_name(): return LIMIT\n"
    )
    users = [ast.parse("import m\nm.by_name\nfind('wrapped')\n")]
    assert _unused_definitions({"m": ast.parse(code)}, users) == [
        ("m", 3, "recursive"), ("m", 4, "Box"), ("m", 7, "closed"),
    ]
