"""Independent references for every benchmark op.

Everything here is computed from closed forms with Python integers,
``Fraction`` or plain floats.  Nothing imports the engine, so a defect in
``mlncount.lifted`` or ``mlncount.spectrum`` cannot hide in its own
reference.  The ``brute`` oracle is used only by the ``wfomc-cells``
workload, through ``oracle_check`` in ``workloads.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction


def fixed_points_law(n: int) -> list[Fraction]:
    """Number of fixed points of a uniform random function on n elements:
    C(n,k) (n-1)^(n-k) / n^n."""
    return [Fraction(math.comb(n, k) * (n - 1) ** (n - k), n ** n)
            for k in range(n + 1)]


def _polymul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def total_relation_sizes(n: int) -> list[int]:
    """Coefficients of ((1+t)^n - 1)^n: the number of total relations on n
    elements with m true atoms, for m = 0..n^2."""
    row = [math.comb(n, j) for j in range(n + 1)]
    row[0] = 0
    poly = [1]
    for _ in range(n):
        poly = _polymul(poly, row)
    return poly


def tilted_law(counts: list[int], w: float) -> list[float]:
    """Probabilities proportional to counts[m] * exp(w m), evaluated in the
    log domain so that counts far beyond the float range are fine."""
    logs = [math.log(c) + w * m if c else -math.inf
            for m, c in enumerate(counts)]
    top = max(logs)
    masses = [math.exp(v - top) for v in logs]
    total = math.fsum(masses)
    return [m / total for m in masses]


def total_loops_law(n: int, w: float) -> list[float]:
    """Law of the number of f(x,x) in a total relation whose diagonal atoms
    carry log-weight w.  Rows are independent non-empty subsets; a row
    contains its diagonal with odds e^w 2^(n-1) : 2^(n-1) - 1, so the count
    is binomial."""
    hit = math.exp(w) * 2 ** (n - 1)
    p = hit / (hit + 2 ** (n - 1) - 1)
    return [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]


def total_relations(n: int) -> int:
    """Relations in which every element has a successor: (2^n - 1)^n."""
    return (2 ** n - 1) ** n


def total_surjective_relations(n: int) -> int:
    """Relations in which every element has a successor and a predecessor,
    by inclusion-exclusion over the elements without a predecessor."""
    return sum((-1) ** k * math.comb(n, k) * (2 ** (n - k) - 1) ** n
               for k in range(n + 1))


def total_has_loop(n: int) -> Fraction:
    """P(some f(x,x)) for a uniform total relation: each row is a uniform
    non-empty subset, and misses its diagonal with odds (2^(n-1)-1)/(2^n-1)."""
    return 1 - Fraction(2 ** (n - 1) - 1, 2 ** n - 1) ** n


def total_is_surjective(n: int) -> Fraction:
    """P(every element has a predecessor) for a uniform total relation."""
    return Fraction(total_surjective_relations(n), total_relations(n))


def total_into_marked(n: int) -> int:
    """Worlds of a unary p and a binary f in which every element has an
    f-successor inside p: sum_k C(n,k) ((2^k - 1) 2^(n-k))^n."""
    return sum(math.comb(n, k) * ((2 ** k - 1) * 2 ** (n - k)) ** n
               for k in range(n + 1))


def implication_worlds(n: int) -> int:
    """Worlds of two binary relations with f contained in g: 3^(n^2)."""
    return 3 ** (n * n)


def weighted_functions(n: int, w: float) -> float:
    """Partition function of the uniform-function model with log-weight w
    on every fixed point: (e^w + n - 1)^n."""
    return (math.exp(w) + n - 1) ** n


def weighted_functions_has_fix(n: int, w: float) -> float:
    """P(some fixed point) under the same model: 1 - ((n-1)/(e^w+n-1))^n;
    with w = 0 this is 1 - ((n-1)/n)^n."""
    return 1.0 - ((n - 1) / (math.exp(w) + n - 1)) ** n


def binomial_law(n: int, w: float) -> list[float]:
    """Count law of a unary atom with log-weight w: Binomial(n, e^w/(1+e^w))."""
    p = 1.0 / (1.0 + math.exp(-w))
    return [math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]


def implication_law(n: int, w: float) -> list[list[float]]:
    """Joint law of (#s, #c) for ``weight w : s(x) -> c(x)`` on unary s, c.

    Elements are independent; each takes one of four (s, c) states with
    weight exp(w) unless it is (1, 0).  The law is the n-fold convolution
    of that single-element law.
    """
    e = math.exp(w)
    states = {(0, 0): e, (0, 1): e, (1, 0): 1.0, (1, 1): e}
    z = math.fsum(states.values())
    law = {(0, 0): 1.0}
    for _ in range(n):
        nxt: dict = {}
        for (a, b), p in law.items():
            for (s, c), q in states.items():
                key = (a + s, b + c)
                nxt[key] = nxt.get(key, 0.0) + p * q / z
        law = nxt
    return [[law.get((a, b), 0.0) for b in range(n + 1)] for a in range(n + 1)]


def soft_total_z(n: int, w: float) -> Fraction:
    """Z of ``forall x exists y f(x,y)`` (hard) plus ``f(x,y)`` with weight
    w: each row is a non-empty subset, so Z = ((1 + e^w)^n - 1)^n, exact in
    the double e^w."""
    a = Fraction(math.exp(w))
    return ((1 + a) ** n - 1) ** n


def soft_total_has_loop(n: int, w: float) -> Fraction:
    """P(exists x f(x,x)) in the same model: a row misses its diagonal with
    weight (1 + e^w)^(n-1) - 1 out of (1 + e^w)^n - 1."""
    a = Fraction(math.exp(w))
    return 1 - (((1 + a) ** (n - 1) - 1) / ((1 + a) ** n - 1)) ** n


def smokers_z(n: int, w: float) -> Fraction:
    """Z of ``smokes(x) & friends(x,y) -> smokes(y)`` with weight w.  With
    k smokers, the k(n-k) pairs from a smoker to a non-smoker satisfy the
    formula only without the friendship (1 + e^w); every other pair
    satisfies it either way (2 e^w)."""
    a = Fraction(math.exp(w))
    return sum(math.comb(n, k) * (1 + a) ** (k * (n - k))
               * (2 * a) ** (n * n - k * (n - k)) for k in range(n + 1))


def exact_rel_err(value, ref: Fraction) -> float:
    """|value / ref - 1| computed exactly, for engine results of any numeric
    type (including values beyond the float range, given as strings)."""
    if isinstance(value, complex):
        if value.imag:
            return math.inf
        value = value.real
    try:
        exact = Fraction(value)
    except (TypeError, ValueError):
        exact = Fraction(str(value))
    return float(abs(exact / ref - 1))


def rel_err(value, ref) -> float:
    """|value - ref| / |ref|, exact for integers and Fractions."""
    if isinstance(value, int) and isinstance(ref, (int, Fraction)):
        return float(abs(Fraction(value) - ref) / abs(ref)) if ref else float(value != 0)
    value, ref = float(value), float(ref)
    if ref == 0.0:
        return abs(value)
    return abs(value - ref) / abs(ref)


def grid_err(values, ref) -> float:
    """Largest absolute difference between two probability grids of the
    same shape (nested lists or arrays); probabilities live on a scale of
    1, so this is their error relative to the total mass."""
    worst = 0.0
    flat_v = _flatten(values)
    flat_r = _flatten(ref)
    if len(flat_v) != len(flat_r):
        return math.inf
    for v, r in zip(flat_v, flat_r):
        diff = abs(float(v) - float(r))
        if not math.isfinite(diff):
            return math.inf
        worst = max(worst, diff)
    return worst


def _flatten(grid) -> list:
    if hasattr(grid, "tolist"):
        grid = grid.tolist()
    if isinstance(grid, list) and grid and isinstance(grid[0], list):
        return [x for row in grid for x in _flatten(row)]
    return list(grid)
