"""Value classes: typed tuples that are equal only to a value of the same
class with equal fields, hash alike when equal, cannot be assigned to, and
check their fields on construction and on ``_replace``."""

import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

import mlncount
from mlncount.constraints import (
    Between, CardinalityConstraint, Conjunction, Equals, FunctionConstraint,
)
from mlncount.errors import VocabularyError
from mlncount.lifted import CompiledTheory, Fo2Theory, _Branch
from mlncount.logic import (
    And, Atom, Domain, Eq, Exists, ForAll, Iff, Implies, Not, Or, Predicate,
    Truth, Var, _Value,
)
from mlncount.mln import Mln
from mlncount.modelfile import Model
from mlncount.spectrum import CountDistribution, CountSpec, Spectrum

P, Q = Predicate("p", 2), Predicate("q", 1)
X, Y = Var("x"), Var("y")
A, B = Atom(P, (X, Y)), Atom(Q, (X,))
GRID = np.zeros(3)  # shared, so that equal values hold the same array

# Per value class, a function building one value of it from equal fields.
VALUES = [
    lambda: Domain(3), lambda: Predicate("p", 2), lambda: Var("x"),
    lambda: Atom(P, (X, Y)), lambda: Eq(X, 0), lambda: Truth(True),
    lambda: Not(A), lambda: And(A, B), lambda: Or(A, B),
    lambda: Implies(A, B), lambda: Iff(A, B), lambda: ForAll(X, B),
    lambda: Exists(X, B), lambda: Fo2Theory((ForAll(X, B),), (Q,)),
    lambda: _Branch((), 1, ([[True]],), {}, ((1,),), {}),
    lambda: CompiledTheory((Q,), ()), lambda: Mln(((B, 1.0),), (Q,)),
    lambda: CountSpec((A, B)), lambda: Spectrum(GRID, 2.0),
    lambda: CountDistribution(GRID, 2.0, 0.0), lambda: Equals(0, 3),
    lambda: Between(0, 1, 2), lambda: Conjunction((Equals(0, 3),)),
    lambda: CardinalityConstraint(CountSpec((A,)), Equals(0, 3)),
    lambda: FunctionConstraint(P),
    lambda: Model(Domain(3), (Q,), Mln(((B, 1.0),), (Q,)), None, None,
                  (("b", B),)),
]
IDS = [type(make()).__name__ for make in VALUES]


def _hashable(value):
    try:
        hash(value)
    except TypeError:  # a dict or an array among the fields
        return False
    return True


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_covered():
    classes = {c for c in _subclasses(_Value) if hasattr(c, "_fields")}
    assert classes == {type(make()) for make in VALUES}
    assert len(classes) == 26


@pytest.mark.parametrize("make", VALUES, ids=IDS)
def test_equal_fields_make_equal_values(make):
    one, two = make(), make()
    assert one == two and not one != two
    if _hashable(one):
        assert hash(one) == hash(two)
        assert pickle.loads(pickle.dumps(one)) == one


@pytest.mark.parametrize("make", VALUES, ids=IDS)
def test_a_value_is_not_its_plain_tuple(make):
    value = make()
    for left, right in ((value, tuple(value)), (tuple(value), value)):
        assert left != right and not left == right


def test_equality_holds_only_within_a_class():
    assert And(A, B) != Or(A, B) and not And(A, B) == Or(A, B)
    assert Var("x") != ("x",)
    assert Equals(0, 3) != (0, 3)
    assert len({And(A, B), Or(A, B), (A, B)}) == 3
    assert {Var("x"): 1}.get(("x",)) is None


@pytest.mark.parametrize("make", VALUES, ids=IDS)
def test_values_cannot_be_assigned_to(make):
    value = make()
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("build, error, message", [
    (lambda: Domain(0), ValueError, "domain size must be >= 1"),
    (lambda: Predicate("p", 3), VocabularyError,
     "predicate p/3: arity must be 0, 1 or 2"),
    (lambda: Atom(P, (X,)), VocabularyError,
     "atom p given 1 argument(s), declared arity is 2"),
    (lambda: CountSpec(()), ValueError,
     "count spec must contain at least one formula"),
    (lambda: CardinalityConstraint(CountSpec((A,)), Equals(1, 0)),
     ValueError,
     "predicate inspects dimension 1 but the count spec has 1 formula(s)"),
    (lambda: FunctionConstraint(Q), ValueError,
     "function constraint needs a binary relation, got q/1"),
    (lambda: Domain(3)._replace(size=0), ValueError,
     "domain size must be >= 1"),
    (lambda: Predicate("p", 2)._replace(arity=-1), VocabularyError,
     "predicate p/-1: arity must be 0, 1 or 2"),
])
def test_constructor_checks(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert str(raised.value) == message


def test_count_spec_length_and_replace():
    # CountSpec's len() counts its formulas, not its one field.
    spec = CountSpec((A, B))
    assert len(spec) == 2
    assert spec._replace(formulas=(B,)) == CountSpec((B,))
    assert CountSpec._make([(A, B)]) == spec


def test_reprs():
    assert repr(Predicate("p", 2)) == "Predicate(name='p', arity=2)"
    assert repr(Domain(3)) == "Domain(size=3)"
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(And(A, Not(B))) == "And('p(x, y) & !q(x)')"
    assert str(Predicate("p", 2)) == "p/2"


def test_cli_import_leaves_out_dataclasses():
    # Each frozen dataclass execs its generated methods at import, a few
    # tenths of a millisecond per class on every start of the CLI.
    src = pathlib.Path(mlncount.__file__).parent.parent
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mlncount.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
