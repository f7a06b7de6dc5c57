"""Exhaustive-enumeration oracle for weighted model counting and for the
log-linear distribution of a model.

Worlds are identified with bitmasks over a fixed atom order.  One walk
visits them in blocks of 2^6 worlds per uint64 word and evaluates ground
formulas bit-parallel, so that domains of up to 30 ground atoms stay
tractable.  Its two consumers aggregate the satisfying worlds exactly into
integer count classes: per-predicate true-atom counts for the weighted
count, true-grounding counts of the model's formulas for the model
references.  The only floating-point rounding is one final sum over the
classes.

The model references count the true groundings of the original formulas,
not of ``translate_mln``'s indicator theory, so they share no translation
with the polynomial-time engine.  The code they do share with it,
``evaluate_bitwise`` and ``fold``, is tested against ``evaluate`` in
``tests/helpers.py``.  Everything here is exponential by design: it
exists to cross-validate the engine, not to replace it.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from functools import reduce
from itertools import accumulate

import numpy as np

from .errors import (
    BruteForceCapError, InfeasibleConstraintError, VocabularyError,
)
from .logic import (
    And, Domain, Eq, Exists, FALSE, ForAll, Formula, Iff, Implies, Not, Or,
    TRUE, WeightFunction, children, conjoin, diagonal, evaluate_bitwise, fold,
    free_variables, ground_atoms, groundings, predicates_of, substitute,
    universal_closure,
)

DEFAULT_ATOM_CAP = 30

# Worlds per vectorized block: 2^14 words of 64 worlds each.
_CHUNK_WORDS = 1 << 14

if sys.byteorder != "little":
    raise ImportError("bit-packed world enumeration assumes a little-endian host")


def _expand(f: Formula, d: Domain) -> Formula:
    if isinstance(f, Eq):
        return TRUE if f.left == f.right else FALSE
    if isinstance(f, (Not, And, Or, Implies, Iff)):
        return type(f)(*(_expand(g, d) for g in children(f)))
    if isinstance(f, (ForAll, Exists)):
        return reduce(And if isinstance(f, ForAll) else Or,
                      [_expand(substitute(f.body, {f.var: e}), d)
                       for e in d.elements])
    return f


def _ground_expand(f: Formula, d: Domain) -> Formula:
    """Expand the quantifiers of closed ``f`` over the domain and resolve
    its equalities, then fold: TRUE, FALSE or a ground connective tree."""
    return fold(_expand(f, d))


# Within-word patterns of the six lowest index bits: bit b of word-local
# position, for positions 0..63.
_LOW_PATTERNS = tuple(
    np.uint64(sum(1 << pos for pos in range(64) if pos >> b & 1))
    for b in range(6)
)


def _atom_bit_arrays(atom_index: dict, word_lo: int, n_words: int) -> dict:
    """Packed truth arrays per atom, and for TRUE and FALSE, for worlds
    ``64*word_lo ..``."""
    widx = np.arange(word_lo, word_lo + n_words, dtype=np.uint64)
    out = {TRUE: np.full(n_words, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64),
           FALSE: np.zeros(n_words, dtype=np.uint64)}
    for atom, j in atom_index.items():
        if j < 6:
            out[atom] = np.full(n_words, _LOW_PATTERNS[j], dtype=np.uint64)
        else:
            word_bit = (widx >> np.uint64(j - 6)) & np.uint64(1)
            out[atom] = (np.uint64(0) - word_bit).astype(np.uint64)
    return out


def _walk(sentences, vocab, d: Domain, cap: int):
    """Walk every world over the vocabulary, a block at a time, once the atom
    cap is checked.  Per block, yield the indices of the worlds that satisfy
    every closed sentence and a function giving, at those worlds, the truth
    of a ground quantifier-free formula as a bool array."""
    atoms = ground_atoms(vocab, d)
    if len(atoms) > cap:
        raise BruteForceCapError(len(atoms), cap)
    atom_index = {a: j for j, a in enumerate(atoms)}
    ground = _ground_expand(conjoin(sentences), d)
    n_worlds = 1 << len(atoms)
    total_words = max(1, n_worlds >> 6)
    for word_lo in range(0, total_words, _CHUNK_WORDS):
        n_words = min(_CHUNK_WORDS, total_words - word_lo)
        bits = _atom_bit_arrays(atom_index, word_lo, n_words)

        def flags(g, bits=bits):
            try:
                packed = evaluate_bitwise(g, bits)
            except KeyError as err:
                raise VocabularyError(
                    f"undeclared predicate {err.args[0].pred}") from None
            return np.unpackbits(packed.view(np.uint8),
                                 bitorder="little")[:n_worlds].view(bool)

        sat = flags(ground)
        idx = np.arange(word_lo << 6, (word_lo << 6) + len(sat),
                        dtype=np.uint64)[sat]
        yield idx, lambda g, flags=flags, sat=sat: flags(g)[sat]


def _tally(keys) -> Counter:
    """Worlds per class, over the per-block arrays of mixed-radix class
    keys."""
    tally = Counter()
    for block in keys:
        values, counts = np.unique(block, return_counts=True)
        tally.update(dict(zip(values.tolist(), counts.tolist())))
    return tally


def brute_wfomc(gamma, w: WeightFunction, wbar: WeightFunction, d: Domain,
                vocab=None, cap: int = DEFAULT_ATOM_CAP):
    """Weighted model count of the conjunction of closed formulas ``gamma``
    over all worlds of the vocabulary.

    Returns an exact int when every weight is an integer and a complex
    number otherwise.
    """
    sentences = [gamma] if isinstance(gamma, Formula) else list(gamma or [])
    for s in sentences:
        if free_variables(s):
            raise ValueError(f"gamma must be a conjunction of closed "
                             f"formulas; {s} has free variables")
    if vocab is None:
        vocab = sorted({p for s in sentences for p in predicates_of(s)})
    vocab = list(vocab)

    # Count classes: the vector of per-predicate true-atom counts, each a
    # popcount over the predicate's contiguous run of index bits, and per
    # binary p the count of its true p(e, e), for its diagonal weight.
    sizes = [d.size ** p.arity for p in vocab]
    offsets = list(accumulate(sizes, initial=0))
    columns = [(p, ((1 << s) - 1) << o, s)
               for p, s, o in zip(vocab, sizes, offsets)] + [
        (diagonal(p), sum(1 << o + e * (d.size + 1) for e in d.elements),
         d.size) for p, o in zip(vocab, offsets) if p.arity == 2]

    def keys(idx):
        key = np.zeros(len(idx), dtype=np.int64)
        for _, run, s in columns:
            key = key * (s + 1) + np.bitwise_count(idx & np.uint64(run))
        return key

    total = 0
    blocks = _walk(sentences, vocab, d, cap)
    for key, n in _tally(keys(idx) for idx, _ in blocks).items():
        counts = np.unravel_index(key, [s + 1 for _, _, s in columns])
        weight = 1
        for (p, _, s), k in zip(columns, map(int, counts)):
            weight = weight * w(p) ** k * wbar(p) ** (s - k)
        total = total + n * weight
    return total


# ---------------------------------------------------------------------------
# Ground-truth references for the log-linear distribution itself.  Each reads
# the classes of one walk; none calls another.

def _masses(mln, extra, d: Domain, cap: int) -> list[tuple[tuple, float]]:
    """(counts, mass) per class of the worlds that satisfy the hard
    formulas, the classes keyed by the true-grounding counts of the soft
    and the ``extra`` formulas; ``counts`` holds those of ``extra``."""
    hard = [universal_closure(f) for f, w in mln.weighted_formulas
            if math.isinf(w)]
    soft = [(f, w) for f, w in mln.weighted_formulas if not math.isinf(w)]
    counted = [f for f, _ in soft] + list(extra)
    grounds = [[_ground_expand(g, d) for g in groundings(f, d)]
               for f in counted]
    radices = [len(gs) + 1 for gs in grounds]
    if math.prod(radices) >> 63:
        raise ValueError("too many count classes for one 64-bit key")

    def keys(idx, truth):
        key = np.zeros(len(idx), dtype=np.int64)
        for gs, r in zip(grounds, radices):
            k = np.zeros(len(idx), dtype=np.int64)
            for g in gs:
                k += truth(g)
            key = key * r + k
        return key

    out = []
    for key, n in _tally(keys(*block) for block in
                         _walk(hard, mln.vocabulary, d, cap)).items():
        counts = [int(k) for k in np.unravel_index(key, radices)]
        exponent = sum(w * k for (_, w), k in zip(soft, counts))
        out.append((tuple(counts[len(soft):]), n * math.exp(exponent)))
    return out


def _ratio(num: float, den: float) -> float:
    """A query's share of the mass of the worlds that are not excluded."""
    if den == 0.0:
        raise InfeasibleConstraintError("every world is excluded")
    return num / den


def brute_mln_partition(mln, d: Domain, cap: int = DEFAULT_ATOM_CAP) -> float:
    """Partition normalizer by direct world enumeration."""
    return math.fsum(m for _, m in _masses(mln, [], d, cap))


def brute_mln_marginal(mln, gamma: Formula, d: Domain,
                       cap: int = DEFAULT_ATOM_CAP) -> float:
    masses = _masses(mln, [gamma], d, cap)
    return _ratio(math.fsum(m for (k,), m in masses if k),
                  math.fsum(m for _, m in masses))


def brute_count_distribution(mln, psi, d: Domain,
                             cap: int = DEFAULT_ATOM_CAP) -> dict:
    """Aggregate normalized world mass by the vector of true-grounding counts.

    Returns a dict mapping count vectors (tuples) to probabilities.
    """
    masses = _masses(mln, psi, d, cap)
    z = math.fsum(m for _, m in masses)
    by_counts: dict[tuple, list] = {}
    for k, m in masses:
        by_counts.setdefault(k, []).append(m)
    return {k: math.fsum(ms) / z for k, ms in by_counts.items()}


def brute_constrained_partition(mln, psi, predicate, d: Domain,
                                cap: int = DEFAULT_ATOM_CAP) -> float:
    """Total mass of the worlds whose count vector the predicate keeps."""
    return math.fsum(m for k, m in _masses(mln, psi, d, cap) if predicate(k))


def brute_constrained_marginal(mln, psi, predicate, gamma: Formula, d: Domain,
                               cap: int = DEFAULT_ATOM_CAP) -> float:
    kept = [(k[-1], m) for k, m in _masses(mln, [*psi, gamma], d, cap)
            if predicate(k[:-1])]
    return _ratio(math.fsum(m for q, m in kept if q),
                  math.fsum(m for _, m in kept))
