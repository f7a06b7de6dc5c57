"""Line-oriented model files: declarations, weighted formulas, count specs,
cardinality clauses, function constraints and named queries.

One directive per line; ``#`` starts a comment.  Directives::

    domain <int>
    predicate <name>/<arity>
    weight <float> : <formula>      # natural-log scale; finite
    odds <float> : <formula>        # positive and finite; log is taken
    hard : <formula>
    count <name> : <formula>
    cardinality <name> == <int>
    cardinality <name> in <lo>..<hi>
    function <predicate>
    query <name> : <sentence>

Function constraints are rewritten at load time into a hard totality
sentence plus an exact-size cardinality clause on a synthetic count axis.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple

from .constraints import (
    Between, CardinalityConstraint, Conjunction, Equals, FunctionConstraint,
    rewrite_function_constraints,
)
from .errors import FormulaSyntaxError, TooManyVariablesError, VocabularyError
from .logic import Domain, Formula, Predicate, _Value, free_variables
from .mln import Mln
from .parser import _KEYWORDS, parse_formula
from .spectrum import CountSpec

_PRED_DECL = re.compile(r"^([a-z_][A-Za-z0-9_]*)\s*/\s*(\d+)$")
_NAME = re.compile(r"^[a-z_][A-Za-z0-9_]*$")
_RANGE = re.compile(r"^(\d+)\s*\.\.\s*(\d+)$")


class Model(_Value, namedtuple("Model", [
    "domain", "vocabulary", "mln",
    "count_spec",  # a CountSpec or None
    "cardinality",  # a CardinalityConstraint or None
    "queries",  # ((name, Formula), ...)
])):
    """A fully validated model file."""

    __slots__ = ()


def parse_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model_text(handle.read())


def parse_model_text(text: str) -> Model:
    domain = None
    preds: dict[str, Predicate] = {}
    weighted: list[tuple[Formula, float]] = []
    counts: list[tuple[str, Formula]] = []
    clauses: list = []
    functions: list[FunctionConstraint] = []
    queries: list[tuple[str, Formula]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head == "domain":
                if domain is not None:
                    raise FormulaSyntaxError("duplicate domain directive")
                if not rest.isdigit() or int(rest) < 1:
                    raise FormulaSyntaxError(
                        f"domain size must be a positive integer, got {rest!r}")
                domain = Domain(int(rest))
            elif head == "predicate":
                m = _PRED_DECL.match(rest)
                if not m:
                    raise FormulaSyntaxError(
                        f"expected 'predicate name/arity', got {rest!r}")
                name, arity = m.group(1), int(m.group(2))
                if name in _KEYWORDS:
                    raise VocabularyError(f"{name!r} is a reserved word")
                if name in preds:
                    raise VocabularyError(f"duplicate predicate {name!r}")
                if arity not in (1, 2):
                    raise VocabularyError(
                        f"predicate {name}/{arity}: arity must be 1 or 2")
                preds[name] = Predicate(name, arity)
            elif head in ("weight", "odds"):
                value_text, formula_text = _split_colon(rest)
                try:
                    value = float(value_text)
                except ValueError:
                    raise FormulaSyntaxError(
                        f"expected a numeric weight, got {value_text!r}")
                if not math.isfinite(value):
                    raise FormulaSyntaxError(
                        f"{head} must be finite, got {value_text!r}; "
                        f"use 'hard : <formula>' for a hard formula")
                if head == "odds":
                    if value <= 0:
                        raise FormulaSyntaxError(
                            f"odds must be positive, got {value_text!r}")
                    value = math.log(value)
                formula = parse_formula(formula_text, list(preds.values()))
                weighted.append((formula, value))
            elif head == "hard":
                if not rest.startswith(":"):
                    raise FormulaSyntaxError("expected 'hard : <formula>'")
                formula = parse_formula(rest[1:].strip(), list(preds.values()))
                weighted.append((formula, math.inf))
            elif head in ("count", "query"):
                name, formula_text = _split_colon(rest)
                named = counts if head == "count" else queries
                if not _NAME.match(name):
                    raise FormulaSyntaxError(f"invalid {head} name {name!r}")
                if any(n == name for n, _ in named):
                    raise VocabularyError(f"duplicate {head} name {name!r}")
                formula = parse_formula(formula_text, list(preds.values()))
                if head == "query" and free_variables(formula):
                    raise FormulaSyntaxError(
                        f"query {name!r} must be a sentence "
                        f"(free variables: "
                        f"{', '.join(sorted(v.name for v in free_variables(formula)))})")
                named.append((name, formula))
            elif head == "cardinality":
                clauses.append(_parse_cardinality(rest, counts))
            elif head == "function":
                pred = preds.get(rest)
                if pred is None:
                    raise VocabularyError(f"undeclared predicate {rest!r}")
                if pred.arity != 2:
                    raise VocabularyError(
                        f"function constraint needs a binary relation, "
                        f"{pred} is unary")
                functions.append(FunctionConstraint(pred))
            else:
                raise FormulaSyntaxError(f"unknown directive {head!r}")
        except (FormulaSyntaxError, VocabularyError,
                TooManyVariablesError) as err:
            err.args = (f"line {lineno}: {err}",)
            if isinstance(err, FormulaSyntaxError):
                err.line = lineno
            raise err from None

    if domain is None:
        raise FormulaSyntaxError("missing domain directive")

    vocabulary = tuple(preds.values())
    betas = [formula for _, formula in counts]

    func_sentences, func_cc = rewrite_function_constraints(functions, domain)
    for sentence in func_sentences:
        weighted.append((sentence, math.inf))
    if func_cc is not None:
        clauses += [Equals(len(betas) + i, domain.size)
                    for i in range(len(functions))]
        betas += func_cc.psi.formulas

    mln = Mln.of(weighted, vocabulary)
    count_spec = CountSpec.of(betas) if betas else None
    cardinality = None
    if clauses:
        predicate = clauses[0] if len(clauses) == 1 else Conjunction(tuple(clauses))
        cardinality = CardinalityConstraint(count_spec, predicate)
    return Model(domain, vocabulary, mln, count_spec, cardinality,
                 tuple(queries))


def _split_colon(rest: str) -> tuple[str, str]:
    left, sep, right = rest.partition(":")
    if not sep or not right.strip():
        raise FormulaSyntaxError("expected '<head> : <formula>'")
    return left.strip(), right.strip()


def _parse_cardinality(rest: str, counts):
    names = [n for n, _ in counts]
    op = next((op for op in ("==", " in ") if op in rest), None)
    if op is None:
        raise FormulaSyntaxError(
            "expected 'cardinality <name> == <int>' or "
            "'cardinality <name> in <lo>..<hi>'")
    name, _, value = (part.strip() for part in rest.partition(op))
    if name not in names:
        raise VocabularyError(f"undeclared count name {name!r}")
    if op == "==":
        if not value.isdigit():
            raise FormulaSyntaxError(
                f"expected an integer after '==', got {value!r}")
        return Equals(names.index(name), int(value))
    m = _RANGE.match(value)
    if not m:
        raise FormulaSyntaxError(
            f"expected 'lo..hi' after 'in', got {value!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise FormulaSyntaxError(f"empty range {lo}..{hi}")
    return Between(names.index(name), lo, hi)
