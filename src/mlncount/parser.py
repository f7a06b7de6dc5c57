"""Recursive-descent parser for the formula surface syntax.

Grammar (loosest to tightest binding)::

    iff      := implies ('<->' implies)*
    implies  := or ('->' implies)?          # right-associative
    or       := and ('|' and)*
    and      := unary ('&' unary)*
    unary    := '!' unary | quantified | primary
    quantified := ('forall' | 'exists') var unary-or-rest-of-expression
    primary  := atom | 'true' | 'false' | '(' iff ')'
    atom     := name [ '(' term (',' term)* ')' ]
    term     := variable | integer

A quantifier's body extends to the end of the current (sub)expression.
Variables are lowercase identifiers; integer literals denote domain
elements.  Equality atoms have no surface syntax; they are built
programmatically for the exhaustive oracle only.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError, TooManyVariablesError, VocabularyError
from .logic import (
    _BINARY, _PREC, Atom, Exists, FALSE, ForAll, Formula, Implies, Not,
    Predicate, TRUE, Var,
)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[a-z_][A-Za-z0-9_]*)
  | (?P<upper>[A-Z][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<sym><->|->|[()!&|,])
""", re.VERBOSE)

_KEYWORDS = {"forall", "exists", "true", "false"}
# The binary connectives, loosest first.
_LEVELS = sorted(_BINARY, key=_PREC.get)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}",
                                     column=pos + 1)
        kind = m.lastgroup
        if kind == "upper":
            raise FormulaSyntaxError(
                f"named constant {m.group()!r} is not supported; domain "
                "elements are written as integers", column=pos + 1)
        if kind != "ws":
            tokens.append((kind, m.group(), pos + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, vocab):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vocab = {p.name: p for p in vocab}
        self.names = set()  # every variable name met, bound or free

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula",
                                     column=len(self.text) + 1)
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok[1] != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {tok[1]!r}",
                                     column=tok[2])
        return tok

    def parse(self) -> Formula:
        f = self.binary()
        tok = self.peek()
        if tok is not None:
            raise FormulaSyntaxError(f"unexpected trailing input {tok[1]!r}",
                                     column=tok[2])
        if len(self.names) > 2:
            raise TooManyVariablesError(
                f"formula uses {len(self.names)} distinct variables "
                f"({', '.join(sorted(self.names))}); at most 2 allowed")
        return f

    def binary(self, level=0) -> Formula:
        """The connectives of ``_LEVELS[level]`` and tighter binding ones."""
        if level == len(_LEVELS):
            return self.unary()
        node, f = _LEVELS[level], self.binary(level + 1)
        while (tok := self.peek()) and tok[1] == _BINARY[node]:
            self.next()
            # -> associates right: its right side is a whole implication.
            f = node(f, self.binary(level + (node is not Implies)))
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of formula",
                                     column=len(self.text) + 1)
        if tok[1] == "!":
            self.next()
            return Not(self.unary())
        if tok[1] in ("forall", "exists"):
            return self.quantified()
        return self.primary()

    def quantified(self) -> Formula:
        word = self.next()
        var_tok = self.next()
        if var_tok[0] != "name" or var_tok[1] in _KEYWORDS:
            raise FormulaSyntaxError(
                f"expected a variable after {word[1]!r}, found {var_tok[1]!r}",
                column=var_tok[2])
        # Body runs to the end of the enclosing expression.
        body = self.binary()
        node = ForAll if word[1] == "forall" else Exists
        self.names.add(var_tok[1])
        return node(Var(var_tok[1]), body)

    def primary(self) -> Formula:
        tok = self.next()
        if tok[1] == "(":
            f = self.binary()
            self.expect(")")
            return f
        if tok[1] == "true":
            return TRUE
        if tok[1] == "false":
            return FALSE
        if tok[0] == "name":
            return self.atom(tok)
        raise FormulaSyntaxError(f"unexpected token {tok[1]!r}", column=tok[2])

    def atom(self, name_tok) -> Formula:
        name = name_tok[1]
        pred = self.vocab.get(name)
        if pred is None:
            raise VocabularyError(f"undeclared predicate {name!r}")
        args = []
        if (tok := self.peek()) and tok[1] == "(":
            self.next()
            while True:
                args.append(self.term())
                tok = self.next()
                if tok[1] == ")":
                    break
                if tok[1] != ",":
                    raise FormulaSyntaxError(
                        f"expected ',' or ')' in argument list, found {tok[1]!r}",
                        column=tok[2])
        if len(args) != pred.arity:
            raise VocabularyError(
                f"predicate {name}/{pred.arity} applied to {len(args)} "
                f"argument(s)")
        return Atom(pred, tuple(args))

    def term(self):
        tok = self.next()
        if tok[0] == "int":
            return int(tok[1])
        if tok[0] == "name" and tok[1] not in _KEYWORDS:
            self.names.add(tok[1])
            return Var(tok[1])
        raise FormulaSyntaxError(f"expected a term, found {tok[1]!r}",
                                 column=tok[2])


def parse_formula(text: str, vocab: list[Predicate]) -> Formula:
    """Parse ``text`` against the declared vocabulary.

    Rejects undeclared predicates, arity mismatches and formulas with more
    than two distinct variables.
    """
    return _Parser(text, vocab).parse()
