"""The value-type contract of every record class, and the lazy package exports."""

import copy
import importlib
import sys

import pytest

import nilcoh
from nilcoh import families
from nilcoh.cocycles import (CocycleLemmaX, CocycleLemmaY, CocycleSum,
                             ExtElement, ExtensionGroup, Primitive,
                             VerificationReport, build_extension)
from nilcoh.cohomology import H2Report, h2
from nilcoh.exactlinalg import (AbelianGroupInvariants, IntMatrix,
                                SmithDecomposition, _Value, smith_normal_form)
from nilcoh.grouplaw import GroupElement, GroupPresentation, ValidationReport

HEIS = families.heisenberg()
E11 = CocycleLemmaY(phi=((1,), (0,)))
Z2 = AbelianGroupInvariants(free_rank=0, torsion=(2,))

# One builder per value class; each call makes a fresh, equal instance,
# giving every field by keyword.
SAMPLES = {
    "IntMatrix": lambda: IntMatrix(rows=1, cols=2,
                                   nonzeros=(((0, 3), (1, -4)),)),
    "SmithDecomposition": lambda: SmithDecomposition(
        U=IntMatrix.identity(1), D=IntMatrix(1, 1, [[(0, 2)]]),
        V=IntMatrix.identity(1), invariants=(2,)),
    "AbelianGroupInvariants": lambda: AbelianGroupInvariants(
        free_rank=3, torsion=(2, 4)),
    "GroupPresentation": lambda: GroupPresentation(
        n=2, m=1, bracket={(0, 1): (2,)}),
    "GroupElement": lambda: GroupElement(a=(1, -2), b=(5,)),
    "ValidationReport": lambda: ValidationReport(ok=False, failures=("bad",)),
    "H2Report": lambda: H2Report(
        total=Z2, coker_cstar=Z2, hom_part_rank=0, ker_c_rank=0,
        ext_part=Z2, crosscheck=Z2, agree=True),
    "CocycleLemmaX": lambda: CocycleLemmaX(f=(1, 0, 2), order=2),
    "CocycleLemmaY": lambda: CocycleLemmaY(phi=((1,), (0,))),
    "CocycleSum": lambda: CocycleSum(terms=((2, E11),)),
    "VerificationReport": lambda: VerificationReport(
        ok=True, trials=3, message="fine", counterexample=()),
    "ExtElement": lambda: ExtElement(g=GroupElement((1, 0), (0,)), t=(7,)),
    "ExtensionGroup": lambda: ExtensionGroup(base=HEIS, fibers=(E11,)),
    "Primitive": lambda: Primitive(coeffs=(3, 0, -2)),
}


def _other_class(x):
    """An instance of a different value class holding x's field values."""
    other = type("Other", (_Value,), {"__slots__": type(x).__slots__})
    return other._trusted(*(getattr(x, name) for name in type(x).__slots__))


def _hashable(x):
    try:
        hash(x)
    except TypeError:
        return False
    return True


@pytest.fixture(params=list(SAMPLES.values()), ids=list(SAMPLES))
def build(request):
    return request.param


class TestValueContract:
    def test_every_value_class_has_a_sample(self):
        modules = ("exactlinalg", "grouplaw", "cohomology", "cocycles")
        classes = {name for mod in modules
                   for name, obj in vars(importlib.import_module(
                       "nilcoh." + mod)).items()
                   if isinstance(obj, type) and issubclass(obj, _Value)
                   and obj is not _Value}
        assert classes == set(SAMPLES)

    def test_equal_copies(self, build):
        x, y = build(), build()
        assert x is not y
        assert x == y and not x != y
        assert copy.copy(x) == x
        if _hashable(x):
            assert hash(x) == hash(y)

    def test_other_class_with_same_fields_is_unequal(self, build):
        x = build()
        other = _other_class(x)
        assert x != other and other != x
        assert x.__eq__(other) is NotImplemented
        assert x != tuple(getattr(x, name) for name in x._fields)

    def test_fields_are_read_only(self, build):
        x = build()
        for name in type(x).__slots__:
            value = getattr(x, name)
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) is value
        with pytest.raises(AttributeError):
            x.extra = 1
        assert not hasattr(x, "__dict__")

    def test_repr_names_class_and_fields(self, build):
        x = build()
        text = repr(x)
        assert text.startswith(type(x).__name__ + "(")
        for name in x._fields:
            assert "%s=%r" % (name, getattr(x, name)) in text

    def test_positional_arguments_match_keywords(self, build):
        x = build()
        assert type(x)(*(getattr(x, name) for name in x._fields)) == x

    @pytest.mark.parametrize("short, full", [
        (lambda: IntMatrix(0, 0), lambda: IntMatrix(0, 0, ())),
        (lambda: AbelianGroupInvariants(3), lambda: AbelianGroupInvariants(3, ())),
        (lambda: GroupPresentation(2, 0), lambda: GroupPresentation(2, 0, {})),
        (lambda: ValidationReport(ok=True),
         lambda: ValidationReport(True, ())),
        (lambda: CocycleLemmaX(f=(1,)), lambda: CocycleLemmaX((1,), 0)),
        (lambda: VerificationReport(ok=True, trials=1),
         lambda: VerificationReport(True, 1, "", ())),
        (lambda: ValidationReport(False, ["bad"]),
         lambda: ValidationReport(False, ("bad",))),
        (lambda: ExtensionGroup(HEIS, [E11]),
         lambda: build_extension(HEIS, [E11])),
    ], ids=["IntMatrix", "AbelianGroupInvariants", "GroupPresentation",
            "ValidationReport", "CocycleLemmaX", "VerificationReport",
            "ValidationReport-list", "ExtensionGroup-list"])
    def test_defaults(self, short, full):
        assert short() == full()

    def test_extension_group_equality_ignores_compiled_fibers(self):
        E1 = ExtensionGroup(base=HEIS, fibers=(E11,))
        E2 = ExtensionGroup(base=HEIS, fibers=(E11,))
        assert E1._values != E2._values  # distinct compiled closures
        assert E1 == E2
        assert "_values" not in repr(E1)
        assert ExtensionGroup(base=HEIS, fibers=(E11, E11)) != E1

    def test_results_are_values(self):
        rep = h2(HEIS, 1)
        assert rep == h2(HEIS, 1)
        assert hash(rep) == hash(h2(HEIS, 1))
        A = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert smith_normal_form(A) == smith_normal_form(A)


class TestLazyExports:
    def test_names_are_the_submodule_objects(self):
        assert len(nilcoh.__all__) == 17
        for name in nilcoh.__all__:
            obj = getattr(nilcoh, name)
            if name == "families":
                assert obj is sys.modules["nilcoh.families"]
            else:
                assert obj.__module__.startswith("nilcoh.")
                assert getattr(sys.modules[obj.__module__], name) is obj

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nilcoh.no_such_name
        assert not hasattr(nilcoh, "no_such_name")

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from nilcoh import *", scope)
        assert set(nilcoh.__all__) <= set(scope)
        for name in nilcoh.__all__:
            assert scope[name] is getattr(nilcoh, name)

    def test_dir_lists_every_name(self):
        assert set(nilcoh.__all__) <= set(dir(nilcoh))
