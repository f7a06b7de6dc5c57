"""Exhaustive-enumeration oracle for weighted model counting.

The model count is a sum over all ``2^A`` truth assignments to the ground
atoms of per-atom weight products.  Worlds are identified with bitmasks over
a fixed atom order, and blocks of 2^6 consecutive worlds are evaluated
bit-parallel in uint64 words so that domains of up to 30 ground atoms stay
tractable.  The per-world weight depends only on how many atoms of each
predicate are true, so the weighted sum is aggregated exactly over integer
count classes; the only floating-point rounding is one final sum over a few
hundred classes.

Everything here is exponential by design: it exists to cross-validate the
polynomial-time engine, not to replace it.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator

import numpy as np

from .errors import BruteForceCapError, InfeasibleConstraintError
from .logic import (
    And, Atom, Domain, Eq, Exists, FALSE, ForAll, Formula, Iff, Implies, Not,
    Or, PossibleWorld, Predicate, TRUE, Truth, WeightFunction, conjoin,
    evaluate, evaluate_bitwise, free_variables, ground_atoms, groundings,
    predicates_of, substitute,
)

DEFAULT_ATOM_CAP = 30

# Worlds per vectorized block: 2^14 words of 64 worlds each.
_CHUNK_WORDS = 1 << 14

if sys.byteorder != "little":
    raise ImportError("bit-packed world enumeration assumes a little-endian host")


def atom_count(vocab: Iterable[Predicate], d: Domain) -> int:
    return sum(d.size ** p.arity for p in vocab)


def enumerate_worlds(vocab, d: Domain, cap: int = DEFAULT_ATOM_CAP
                     ) -> Iterator[PossibleWorld]:
    """Yield all worlds over the vocabulary, atoms as bit positions of an
    ascending bitmask index."""
    atoms = ground_atoms(vocab, d)
    if len(atoms) > cap:
        raise BruteForceCapError(len(atoms), cap)
    for index in range(1 << len(atoms)):
        yield PossibleWorld(frozenset(
            a for j, a in enumerate(atoms) if index >> j & 1))


def world_weight(world: PossibleWorld, w, wbar, vocab, d: Domain):
    """Product over ground atoms: w(pred) if true in the world, else wbar."""
    out = 1
    for a in ground_atoms(vocab, d):
        out = out * (w(a.pred) if a in world else wbar(a.pred))
    return out


def _ground_expand(f: Formula, d: Domain) -> Formula:
    """Expand quantifiers over the domain and resolve equalities, producing a
    ground connective tree with light constant folding."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Eq):
        return TRUE if f.left == f.right else FALSE
    if isinstance(f, Truth):
        return f
    if isinstance(f, Not):
        b = _ground_expand(f.body, d)
        if isinstance(b, Truth):
            return FALSE if b.value else TRUE
        return Not(b)
    if isinstance(f, (And, Or, Implies, Iff)):
        left = _ground_expand(f.left, d)
        right = _ground_expand(f.right, d)
        if isinstance(f, And):
            if isinstance(left, Truth):
                return right if left.value else FALSE
            if isinstance(right, Truth):
                return left if right.value else FALSE
        if isinstance(f, Or):
            if isinstance(left, Truth):
                return TRUE if left.value else right
            if isinstance(right, Truth):
                return TRUE if right.value else left
        if isinstance(f, Implies) and isinstance(left, Truth):
            return right if left.value else TRUE
        return type(f)(left, right)
    if isinstance(f, (ForAll, Exists)):
        parts = [_ground_expand(substitute(f.body, {f.var: e}), d)
                 for e in d.elements]
        if isinstance(f, ForAll):
            if any(isinstance(p, Truth) and not p.value for p in parts):
                return FALSE
            parts = [p for p in parts if not isinstance(p, Truth)]
            return conjoin(parts)
        if any(isinstance(p, Truth) and p.value for p in parts):
            return TRUE
        parts = [p for p in parts if not isinstance(p, Truth)]
        if not parts:
            return FALSE
        out = parts[0]
        for p in parts[1:]:
            out = Or(out, p)
        return out
    raise TypeError(f"not a formula: {f!r}")


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


def _sentence_list(gamma) -> list[Formula]:
    if gamma is None:
        return []
    if isinstance(gamma, Formula):
        return [gamma]
    return list(gamma)


def brute_wfomc(gamma, w: WeightFunction, wbar: WeightFunction, d: Domain,
                vocab=None, cap: int = DEFAULT_ATOM_CAP):
    """Weighted model count of the conjunction of closed formulas ``gamma``
    over all worlds of the vocabulary.

    Returns an exact int when every weight is an integer and a complex
    number otherwise.
    """
    sentences = _sentence_list(gamma)
    for s in sentences:
        if free_variables(s):
            raise ValueError(f"gamma must be a conjunction of closed "
                             f"formulas; {s} has free variables")
    if vocab is None:
        vocab = sorted({p for s in sentences for p in predicates_of(s)})
    vocab = list(vocab)
    atoms = ground_atoms(vocab, d)
    n_atoms = len(atoms)
    if n_atoms > cap:
        raise BruteForceCapError(n_atoms, cap)
    atom_index = {a: j for j, a in enumerate(atoms)}

    ground = _ground_expand(conjoin(sentences), d)
    if isinstance(ground, Truth) and not ground.value:
        return 0

    # Count classes: one bin per vector of per-predicate true-atom counts.
    sizes = [d.size ** p.arity for p in vocab]
    n_bins = 1
    for s in sizes:
        n_bins *= s + 1
    pred_masks = []
    for p in vocab:
        mask = 0
        for a, j in atom_index.items():
            if a.pred == p:
                mask |= 1 << j
        pred_masks.append(np.uint64(mask))

    n_worlds = 1 << n_atoms
    total_words = max(1, n_worlds >> 6)
    bin_counts = np.zeros(n_bins, dtype=np.int64)

    for word_lo in range(0, total_words, _CHUNK_WORDS):
        n_words = min(_CHUNK_WORDS, total_words - word_lo)
        bits = _atom_bit_arrays(atom_index, word_lo, n_words)
        sat = evaluate_bitwise(ground, bits)
        sat_flags = np.unpackbits(sat.view(np.uint8), bitorder="little")
        idx = np.arange(word_lo << 6, (word_lo + n_words) << 6,
                        dtype=np.uint64)
        if n_worlds < 64:
            sat_flags = sat_flags[:n_worlds]
            idx = idx[:n_worlds]
        combined = np.zeros(len(idx), dtype=np.int64)
        for p_i in range(len(vocab)):
            counts = np.bitwise_count(idx & pred_masks[p_i]).astype(np.int64)
            combined = combined * (sizes[p_i] + 1) + counts
        bin_counts += np.bincount(combined[sat_flags.astype(bool)],
                                  minlength=n_bins)

    # Weight of a count class: prod_p w(p)^k_p * wbar(p)^(n_p - k_p).
    pow_w, pow_wbar = [], []
    for p, s in zip(vocab, sizes):
        pw, pb = [1], [1]
        for _ in range(s):
            pw.append(pw[-1] * w(p))
            pb.append(pb[-1] * wbar(p))
        pow_w.append(pw)
        pow_wbar.append(pb)

    total = 0
    for b in range(n_bins):
        if bin_counts[b] == 0:
            continue
        rest, weight = b, 1
        for p_i in range(len(vocab) - 1, -1, -1):
            k = rest % (sizes[p_i] + 1)
            rest //= sizes[p_i] + 1
            weight = weight * pow_w[p_i][k] * pow_wbar[p_i][sizes[p_i] - k]
        total = total + int(bin_counts[b]) * weight
    return total


# ---------------------------------------------------------------------------
# Ground-truth references for the log-linear distribution itself.  These go
# world by world through the original (untranslated) semantics, so they share
# no code with the polynomial-time pipeline they validate.

class _GroundMln:
    """Groundings of a model's formulas, precomputed once per domain."""

    def __init__(self, mln, d: Domain):
        self.d = d
        self.hard = []
        self.soft = []
        for formula, weight in mln.weighted_formulas:
            grounds = groundings(formula, d)
            if math.isinf(weight):
                self.hard.extend(grounds)
            else:
                self.soft.append((weight, grounds))

    def mass(self, world: PossibleWorld) -> float:
        for g in self.hard:
            if not evaluate(g, world, self.d):
                return 0.0
        exponent = 0.0
        for weight, grounds in self.soft:
            exponent += weight * sum(1 for g in grounds
                                     if evaluate(g, world, self.d))
        return math.exp(exponent)


def _ratio(num: float, den: float) -> float:
    """A query's share of the mass of the worlds that are not excluded."""
    if den == 0.0:
        raise InfeasibleConstraintError("every world is excluded")
    return num / den


def brute_mln_partition(mln, d: Domain, cap: int = DEFAULT_ATOM_CAP) -> float:
    """Partition normalizer by direct world enumeration."""
    grounded = _GroundMln(mln, d)
    return math.fsum(grounded.mass(world)
                     for world in enumerate_worlds(mln.vocabulary, d, cap))


def brute_mln_marginal(mln, gamma: Formula, d: Domain,
                       cap: int = DEFAULT_ATOM_CAP) -> float:
    grounded = _GroundMln(mln, d)
    num = 0.0
    den = 0.0
    for world in enumerate_worlds(mln.vocabulary, d, cap):
        mass = grounded.mass(world)
        den += mass
        if mass and evaluate(gamma, world, d):
            num += mass
    return _ratio(num, den)


def brute_count_distribution(mln, psi, d: Domain,
                             cap: int = DEFAULT_ATOM_CAP) -> dict:
    """Aggregate normalized world mass by the vector of true-grounding counts.

    Returns a dict mapping count vectors (tuples) to probabilities.
    """
    grounded = _GroundMln(mln, d)
    beta_grounds = [groundings(b, d) for b in psi]
    masses: dict[tuple, float] = {}
    z = 0.0
    for world in enumerate_worlds(mln.vocabulary, d, cap):
        mass = grounded.mass(world)
        if mass == 0.0:
            continue
        z += mass
        key = tuple(sum(1 for g in grounds if evaluate(g, world, d))
                    for grounds in beta_grounds)
        masses[key] = masses.get(key, 0.0) + mass
    return {k: v / z for k, v in masses.items()}


def brute_constrained_partition(mln, psi, predicate, d: Domain,
                                cap: int = DEFAULT_ATOM_CAP) -> float:
    """Total mass of the worlds whose count vector the predicate keeps."""
    grounded = _GroundMln(mln, d)
    beta_grounds = [groundings(b, d) for b in psi]
    total = 0.0
    for world in enumerate_worlds(mln.vocabulary, d, cap):
        mass = grounded.mass(world)
        if mass == 0.0:
            continue
        key = tuple(sum(1 for g in grounds if evaluate(g, world, d))
                    for grounds in beta_grounds)
        if predicate(key):
            total += mass
    return total


def brute_constrained_marginal(mln, psi, predicate, gamma: Formula, d: Domain,
                               cap: int = DEFAULT_ATOM_CAP) -> float:
    grounded = _GroundMln(mln, d)
    beta_grounds = [groundings(b, d) for b in psi]
    num = 0.0
    den = 0.0
    for world in enumerate_worlds(mln.vocabulary, d, cap):
        mass = grounded.mass(world)
        if mass == 0.0:
            continue
        key = tuple(sum(1 for g in grounds if evaluate(g, world, d))
                    for grounds in beta_grounds)
        if not predicate(key):
            continue
        den += mass
        if evaluate(gamma, world, d):
            num += mass
    return _ratio(num, den)
