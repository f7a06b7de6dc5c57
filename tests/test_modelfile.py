import math

import pytest

from mlncount import (
    Atom, Domain, Equals, Exists, ForAll, Predicate, Var, parse_model_text,
)
from mlncount.constraints import Between, Conjunction
from mlncount.errors import (
    FormulaSyntaxError, TooManyVariablesError, VocabularyError,
)
from mlncount.parser import _KEYWORDS

X, Y = Var("x"), Var("y")

EXAMPLE_1 = """
# functions on ten elements
domain 10
predicate f/2
hard : forall x exists y f(x,y)
count nf : f(x,y)
count fix : f(x,x)
cardinality nf == 10
query has_fix : exists x f(x,x)
"""


class TestParseModel:
    def test_example_model(self):
        model = parse_model_text(EXAMPLE_1)
        f = Predicate("f", 2)
        assert model.domain == Domain(10)
        assert model.vocabulary == (f,)
        assert model.mln.weighted_formulas == (
            (ForAll(X, Exists(Y, Atom(f, (X, Y)))), math.inf),)
        assert model.count_spec.formulas == (Atom(f, (X, Y)), Atom(f, (X, X)))
        assert model.cardinality.predicate == Equals(0, 10)
        assert model.queries[0][0] == "has_fix"

    def test_weight_and_odds_agree(self):
        base = "domain 2\npredicate p/1\n"
        via_weight = parse_model_text(base + f"weight {math.log(3)} : p(x)\n")
        via_odds = parse_model_text(base + "odds 3 : p(x)\n")
        (fw, ww), = via_weight.mln.weighted_formulas
        (fo, wo), = via_odds.mln.weighted_formulas
        assert fw == fo
        assert ww == pytest.approx(wo)

    def test_function_constraint_rewritten(self):
        model = parse_model_text(
            "domain 3\npredicate f/2\nfunction f\ncount fix : f(x,x)\n")
        f = Predicate("f", 2)
        # hard totality sentence appended
        assert (ForAll(X, Exists(Y, Atom(f, (X, Y)))), math.inf) in \
            model.mln.weighted_formulas
        # synthetic count axis after the declared ones, pinned to |domain|
        assert model.count_spec.formulas == (Atom(f, (X, X)), Atom(f, (X, Y)))
        assert model.cardinality.predicate == Equals(1, 3)

    def test_two_function_constraints(self):
        model = parse_model_text(
            "domain 2\npredicate f/2\npredicate h/2\nfunction f\nfunction h\n")
        assert isinstance(model.cardinality.predicate, Conjunction)
        assert model.cardinality.predicate.parts == (Equals(0, 2), Equals(1, 2))

    def test_cardinality_range(self):
        model = parse_model_text(
            "domain 3\npredicate p/1\ncount np : p(x)\ncardinality np in 1..2\n")
        assert model.cardinality.predicate == Between(0, 1, 2)


class TestParseErrors:
    def test_arity_three_rejected(self):
        with pytest.raises(VocabularyError, match="line 2"):
            parse_model_text("domain 3\npredicate p/3\n")

    @pytest.mark.parametrize("word", sorted(_KEYWORDS))
    def test_keyword_is_no_predicate_name(self, word):
        with pytest.raises(VocabularyError,
                           match=f"line 2: '{word}' is a reserved word"):
            parse_model_text(f"domain 3\npredicate {word}/1\n")

    def test_undeclared_predicate_in_formula(self):
        with pytest.raises(VocabularyError, match="line 2"):
            parse_model_text("domain 3\nhard : q(x)\n")

    def test_duplicate_domain(self):
        with pytest.raises(FormulaSyntaxError, match="duplicate"):
            parse_model_text("domain 3\ndomain 4\n")

    def test_missing_domain(self):
        with pytest.raises(FormulaSyntaxError, match="missing domain"):
            parse_model_text("predicate p/1\n")

    def test_unknown_directive(self):
        with pytest.raises(FormulaSyntaxError, match="line 1"):
            parse_model_text("frobnicate 3\n")

    def test_cardinality_on_undeclared_count(self):
        with pytest.raises(VocabularyError, match="nope"):
            parse_model_text("domain 2\npredicate p/1\ncardinality nope == 1\n")

    def test_open_query_rejected(self):
        with pytest.raises(FormulaSyntaxError, match="sentence"):
            parse_model_text("domain 2\npredicate p/1\nquery q1 : p(x)\n")

    def test_function_on_unary_rejected(self):
        with pytest.raises(VocabularyError, match="binary"):
            parse_model_text("domain 2\npredicate p/1\nfunction p\n")

    def test_duplicate_count_name(self):
        with pytest.raises(VocabularyError, match="duplicate"):
            parse_model_text(
                "domain 2\npredicate p/1\ncount c : p(x)\ncount c : p(x)\n")

    def test_formula_error_carries_line(self):
        with pytest.raises(FormulaSyntaxError, match="line 3"):
            parse_model_text("domain 2\npredicate p/1\nhard : p(x) &\n")
        with pytest.raises(FormulaSyntaxError) as err:
            parse_model_text("domain 2\npredicate p/1\nhard : p(x) & )\n")
        assert (err.value.line, err.value.column) == (3, 8)
        assert str(err.value) == "line 3: column 8: unexpected token ')'"

    def test_variable_limit_error_carries_line(self):
        with pytest.raises(TooManyVariablesError,
                           match=r"^line 3: formula uses 3 distinct variables"):
            parse_model_text("domain 2\npredicate r/2\n"
                             "hard : forall x forall y forall z r(x,z)\n")

    @pytest.mark.parametrize("directive", [
        "weight inf", "weight -inf", "weight nan", "weight 1e999",
        "odds inf", "odds nan"])
    def test_non_finite_weight_rejected(self, directive):
        with pytest.raises(FormulaSyntaxError,
                           match="line 3: .*finite.*'hard : <formula>'"):
            parse_model_text(f"domain 2\npredicate p/1\n{directive} : p(x)\n")


HEAD = "domain 2\npredicate p/1\npredicate f/2\ncount c : p(x)\n"


class TestDirectiveChecks:
    # Each text fails on its last line; the message names that line.
    @pytest.mark.parametrize("text,error,message", [
        ("domain 0\n", FormulaSyntaxError,
         "domain size must be a positive integer, got '0'"),
        ("domain x\n", FormulaSyntaxError,
         "domain size must be a positive integer, got 'x'"),
        ("domain 2\npredicate p\n", FormulaSyntaxError,
         "expected 'predicate name/arity', got 'p'"),
        ("domain 2\npredicate p/1\npredicate p/2\n", VocabularyError,
         "duplicate predicate 'p'"),
        (HEAD + "weight abc : p(x)\n", FormulaSyntaxError,
         "expected a numeric weight, got 'abc'"),
        (HEAD + "weight 1.0 p(x)\n", FormulaSyntaxError,
         "expected '<head> : <formula>'"),
        (HEAD + "weight 1.0 :\n", FormulaSyntaxError,
         "expected '<head> : <formula>'"),
        (HEAD + "odds 0 : p(x)\n", FormulaSyntaxError,
         "odds must be positive, got '0'"),
        (HEAD + "odds -2 : p(x)\n", FormulaSyntaxError,
         "odds must be positive, got '-2'"),
        (HEAD + "hard p(x)\n", FormulaSyntaxError,
         "expected 'hard : <formula>'"),
        (HEAD + "count C : p(x)\n", FormulaSyntaxError,
         "invalid count name 'C'"),
        (HEAD + "query Q : exists x p(x)\n", FormulaSyntaxError,
         "invalid query name 'Q'"),
        (HEAD + "query q : exists x p(x)\nquery q : forall x p(x)\n",
         VocabularyError, "duplicate query name 'q'"),
        (HEAD + "function g\n", VocabularyError, "undeclared predicate 'g'"),
        (HEAD + "cardinality c == x\n", FormulaSyntaxError,
         "expected an integer after '==', got 'x'"),
        (HEAD + "cardinality nope in 0..3\n", VocabularyError,
         "undeclared count name 'nope'"),
        (HEAD + "cardinality c in 0-3\n", FormulaSyntaxError,
         "expected 'lo..hi' after 'in', got '0-3'"),
        (HEAD + "cardinality c in 3..1\n", FormulaSyntaxError,
         "empty range 3..1"),
        (HEAD + "cardinality c < 3\n", FormulaSyntaxError,
         "expected 'cardinality <name> == <int>' or "
         "'cardinality <name> in <lo>..<hi>'"),
    ])
    def test_rejected_with_line(self, text, error, message):
        line = text.count("\n")
        with pytest.raises(error) as err:
            parse_model_text(text)
        assert type(err.value) is error
        assert str(err.value) == f"line {line}: {message}"
        if error is FormulaSyntaxError:
            assert (err.value.line, err.value.column) == (line, 0)
