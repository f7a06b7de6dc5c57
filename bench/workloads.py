"""Seeded inputs, ops and references for the four workloads.

An *op* is one library call, or one ``mlncount`` process for ``cli``.  Each
workload is a fixed list of input slots; the seed draws the content of
every slot (weights, formulas, queries, predicate names, model files), and
each slot fixes the input size, so the work of a run repeats exactly for a
seed and its cost stays comparable across seeds.  On ``wfomc-cells`` the
seed also draws the formulas that decide the cells, so its work counts
change with the seed.

The engine sees only the generated models and model files.  Calls go
through module attributes looked up at call time, so the wrappers that
``tracer.py`` installs see every call.  References are computed after
set-up, once per input, by ``Op.reference``; ``Op.compare`` turns a result
and its reference into an error that must not exceed ``Op.tol``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import reference as ref

WORKLOADS = ("countdist", "wfomc-cells", "wfomc-exact", "cli")

# The measuring loop runs at least this many whole cycles, whatever
# --seconds says, so that op_tail_s (the eleventh-slowest latency) always
# falls inside the same input slot instead of in whichever slot the
# deadline happens to cut.  On the library workloads the slowest slot
# takes it from 12 cycles on.  On ``cli`` the two slowest slots (``check
# smokers.mln``, about 1.1 s, and the n = 6 ``marginal``, about 0.6 s)
# stand apart from the rest, and from 6 cycles on the tail falls inside
# the second; 12 of its 5-second cycles would take a minute.
MIN_CYCLES = {"countdist": 12, "wfomc-cells": 12, "wfomc-exact": 12,
              "cli": 6}

# Probability grids agree with their references to this absolute error;
# scalars to this relative error.  Both sit far above double round-off on
# these sizes and far below any real defect.
GRID_TOL = 1e-9
REL_TOL = 1e-9

# wfomc-cells picks for each model the largest timed n whose composition
# count, computed from the syntactic cell bound, stays within its slot's
# budget.  Over a cycle of the traced baseline the composition sum took
# 49 % of the op time and compile 50 %.  The large slot, at 100000, is a
# 32-cell model in the regime of ROADMAP item 4 (52,360 compositions at
# n = 4), where the composition sum took two thirds of the op.
CELLS_COMPOSITION_BUDGET = 20000
CELLS_LARGE_BUDGET = 100000
# The oracle enumerates 2^atoms worlds.  Its own cap of 30 atoms would
# take minutes per model, so the benchmark checks at the largest n with at
# most this many atoms.
BRUTE_ATOM_CAP = 24


@dataclass
class Op:
    """One timed call, its reference and how the two are compared."""

    label: str
    run: Callable[[], object]
    reference: Callable[[], object]
    compare: Callable[[object, object], float]
    tol: float
    shape: dict = field(default_factory=dict)


@dataclass
class Context:
    root: str          # checkout root
    out_dir: str       # scratch space inside the checkout
    nproc: int
    in_process_cli: bool  # traced cli runs call mlncount.cli.main directly


def build(workload: str, seed: int, ctx: Context):
    """Return (ops, oracle checks) for a workload.  Oracle checks are
    untimed engine-versus-oracle comparisons run once after the timed loop;
    each returns a list of (label, error, tolerance)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "countdist":
        return _countdist(rng), []
    if workload == "wfomc-cells":
        return _wfomc_cells(rng)
    if workload == "wfomc-exact":
        return _wfomc_exact(rng), []
    if workload == "cli":
        return _cli(rng, ctx), []
    raise ValueError(f"unknown workload {workload!r}")


# --- numeric probes ---------------------------------------------------------

def numeric_probes(workload: str, seed: int) -> list[Op]:
    """Inputs in the regime of ROADMAP item 2's known defects: cancellation
    between Skolem weights in the totality model with a strongly negative
    soft weight on f(x,y), and overflow of the smokers model's Z beyond the
    float range.  On the seed these fail with wrong values or typed errors.

    The timed workloads must run without failing ops, so these are not
    among them: the traced run of ``countdist`` and ``wfomc-cells`` runs
    them once, untimed, and reports ``numeric.probes`` and
    ``numeric.probe_failures``, so that a fix shows as a before and after.
    """
    import mlncount
    from mlncount import mln, spectrum

    rng = random.Random(f"{workload}:{seed}:numeric")
    f = mlncount.Predicate("f", 2)
    w = _weight(rng, -10.0, -6.0)

    def total(weight):
        return mlncount.Mln.of([(_parse("forall x exists y f(x,y)", [f]),
                                 math.inf),
                                (_parse("f(x,y)", [f]), weight)], [f])

    if workload == "countdist":
        psi = mlncount.CountSpec.of([_parse("f(x,y)", [f])])
        return [Op(f"totality w={w} count law n={n}",
                   lambda n=n: spectrum.count_distribution(
                       total(w), psi, mlncount.Domain(n), threads=1),
                   lambda n=n: ref.tilted_law(ref.total_relation_sizes(n), w),
                   lambda got, e: ref.grid_err(got.probabilities, e),
                   GRID_TOL) for n in (8, 10)]
    if workload != "wfomc-cells":
        return []
    loop = _parse("exists x f(x,x)", [f])
    probes = [Op(f"totality w={w} Z n={n}",
                 lambda n=n: mln.partition_function(total(w),
                                                    mlncount.Domain(n)),
                 lambda n=n: ref.soft_total_z(n, w), ref.exact_rel_err,
                 REL_TOL) for n in (10, 20, 30)]
    probes += [Op(f"totality w={w} P(loop) n={n}",
                  lambda n=n: mln.marginal(total(w), loop, mlncount.Domain(n)),
                  lambda n=n: ref.soft_total_has_loop(n, w), _exact_probability,
                  REL_TOL) for n in (10, 30)]
    smokes, friends = mlncount.Predicate("smokes", 1), \
        mlncount.Predicate("friends", 2)
    s = _weight(rng, 1.0, 2.0)
    smokers = mlncount.Mln.of(
        [(_parse("smokes(x) & friends(x,y) -> smokes(y)", [smokes, friends]),
          s)], [smokes, friends])
    probes += [Op(f"smokers w={s} Z n={n}",
                  lambda n=n: mln.partition_function(smokers,
                                                     mlncount.Domain(n)),
                  lambda n=n: ref.smokers_z(n, s), ref.exact_rel_err, REL_TOL)
               for n in (20, 50)]
    return probes


def _exact_probability(p, expect) -> float:
    """Absolute error of a probability against an exact one; a value
    outside [0, 1] fails whatever the reference."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        return math.inf
    return abs(p - float(expect))


def _weight(rng, lo=-1.0, hi=1.0) -> float:
    return round(rng.uniform(lo, hi), 3)


def _parse(text: str, vocab):
    import mlncount
    return mlncount.parse_formula(text, list(vocab))


# --- countdist --------------------------------------------------------------

def _countdist(rng) -> list[Op]:
    import mlncount
    from mlncount import constraints, spectrum

    def fixed_points(n):
        return Op(f"fixed_point_distribution n={n}",
                  lambda: constraints.fixed_point_distribution(n, threads=1),
                  lambda: [float(p) for p in ref.fixed_points_law(n)],
                  ref.grid_err, GRID_TOL, {"n": n, "grid": [n * n + 1, n + 1]})

    def distribution(label, weighted, vocab, counts, n, law):
        preds = [mlncount.Predicate(name, arity) for name, arity in vocab]
        phi = mlncount.Mln.of([(_parse(t, preds), w) for w, t in weighted],
                              preds)
        psi = mlncount.CountSpec.of([_parse(t, preds) for t in counts])
        d = mlncount.Domain(n)
        return Op(f"{label} n={n}",
                  lambda: spectrum.count_distribution(phi, psi, d, threads=1),
                  law, lambda got, expected: ref.grid_err(got.probabilities,
                                                          expected),
                  GRID_TOL, {"n": n, "grid": list(mlncount.shape_vector(psi, d)),
                             "formulas": weighted})

    totality = (math.inf, "forall x exists y f(x,y)")
    ops = [fixed_points(n) for n in (7, 9, 11)]
    w = _weight(rng)
    ops.append(distribution("unary binomial", [(w, "p(x)")], [("p", 1)],
                            ["p(x)"], 60, lambda w=w: ref.binomial_law(60, w)))
    w = _weight(rng)
    ops.append(distribution("implication law", [(w, "s(x) -> c(x)")],
                            [("s", 1), ("c", 1)], ["s(x)", "c(x)"], 11,
                            lambda w=w: ref.implication_law(11, w)))
    w = _weight(rng)
    ops.append(distribution("total relation sizes", [totality, (w, "f(x,y)")],
                            [("f", 2)], ["f(x,y)"], 8,
                            lambda w=w: ref.tilted_law(
                                ref.total_relation_sizes(8), w)))
    w = _weight(rng)
    ops.append(distribution("total relation loops", [totality, (w, "f(x,x)")],
                            [("f", 2)], ["f(x,x)"], 9,
                            lambda w=w: ref.total_loops_law(9, w)))
    rng.shuffle(ops)
    return ops


# --- wfomc-cells ------------------------------------------------------------

# One model per slot: (unary predicates, binary predicates, binary soft
# formulas, unary soft formulas, hard formula kind, query kind, op,
# composition budget).  The seed draws names, literals, connectives and
# weights; the slot fixes the structure, so each slot's cost stays
# comparable across seeds while its cells, pair rows and compositions
# still move with the seed (a hard clause can rule cells out).  Cells are
# bounded by 2^(unary + binary), doubled by an existential hard formula,
# so 8 to 32; most slots sit at 16 so that the median op is one of several
# of similar cost.  Each slot appears twice, with its own draws: the
# median op then does not hang on one draw, and the two large models give
# op_tail_s, the eleventh-slowest latency, 24 or more samples to fall among
# instead of landing on the fastest few of a dozen.  The translated
# vocabulary has at most 18 ground atoms at n = 2 and more than
# BRUTE_ATOM_CAP at n = 3, so every model is checked against the oracle at
# n = 2.
B = CELLS_COMPOSITION_BUDGET
CELLS_SMALL_SLOTS = (
    (3, 1, 1, 1, "none", "forall", "partition", B),
    (3, 1, 1, 1, "forall", "forall", "marginal", B),
    (2, 1, 1, 1, "exists", "forall", "partition", B),
    (2, 1, 1, 1, "exists", "forall", "marginal", B),
    (3, 1, 1, 0, "none", "exists", "marginal", B),
    (3, 1, 1, 2, "forall", "forall", "partition", B),
    (2, 1, 1, 1, "forall", "forall-exists", "marginal", B),
    (2, 1, 1, 2, "none", "exists", "marginal", B),
    (3, 1, 1, 1, "exists", "forall", "partition", B),
)
CELLS_SLOTS = (CELLS_SMALL_SLOTS
               + ((4, 1, 1, 1, "none", "forall", "partition",
                   CELLS_LARGE_BUDGET),)) * 2


def _literal(rng, atom: str) -> str:
    return f"!{atom}" if rng.random() < 0.4 else atom


# Disjunctions of literals: a hard formula of this shape is always
# satisfiable (make one literal's predicate uniformly true).
CLAUSES = ("{0} & {1} -> {2}", "{0} | {1} | {2}", "{1} -> ({0} | {2})")


def _binary_clause(rng, unary, binary, templates=CLAUSES + (
        "{1} -> ({0} <-> {2})", "{0} & {1} & {2}", "({0} | {1}) & {2}")) -> str:
    r = rng.choice(binary)
    first = rng.choice([f"{r}(x,y)", f"{r}(y,x)"])
    # Two distinct unary predicates: at x = y every hard clause of CLAUSES
    # then rules out the same share of cells (one eighth), whatever the
    # draw, so the slot's composition count barely moves with the seed.
    a, b = (f"{p}({rng.choice('xy')})" for p in rng.sample(unary, 2))
    template = rng.choice(templates)
    return template.format(_literal(rng, first), _literal(rng, a),
                           _literal(rng, b))


# Queries use the unary templates false on exactly one of the four
# assignments of their two atoms, so every draw rules out the same share of
# cells.
QUERY_CLAUSES = ("{0} -> {1}", "{0} | {1}")


def _unary_clause(rng, unary, binary, templates=QUERY_CLAUSES + (
        "{0} & {1}", "{0} <-> {1}")) -> str:
    pool = [f"{p}(x)" for p in unary] + [f"{r}(x,x)" for r in binary]
    a, b = rng.sample(pool, 2)
    template = rng.choice(templates)
    return template.format(_literal(rng, a), _literal(rng, b))


def cells_model(rng, slot) -> dict:
    """One random soft two-variable model: its formulas and query as text,
    and the timed n chosen from its syntactic cell bound."""
    (n_unary, n_binary, n_bin_soft, n_un_soft, hard, query_kind, op,
     budget) = slot
    letters = rng.sample("abcdeghkmpqstuvw", n_unary + n_binary)
    unary = letters[:n_unary]
    binary = [c * 2 for c in letters[n_unary:]]
    weighted = [(_weight(rng, -2.0, 2.0), _binary_clause(rng, unary, binary))
                for _ in range(n_bin_soft)]
    weighted += [(_weight(rng, -2.0, 2.0), _unary_clause(rng, unary, binary))
                 for _ in range(n_un_soft)]
    if hard == "forall":
        clause = _binary_clause(rng, unary, binary, CLAUSES)
        weighted.append((math.inf, f"forall x forall y ({clause})"))
    elif hard == "exists":
        weighted.append((math.inf, f"forall x exists y ({binary[0]}(x,y) & "
                                   f"{_literal(rng, unary[0] + '(y)')})"))
    if query_kind in ("exists", "forall"):
        clause = _unary_clause(rng, unary, binary, QUERY_CLAUSES)
        query = f"{query_kind} x ({clause})"
    else:
        query = f"forall x exists y ({binary[-1]}(x,y) | {unary[-1]}(y))"
    # Skolemizing an existential doubles the cell bound; a marginal also
    # counts the model extended by its query.
    cells = 2 ** (n_unary + n_binary) * (2 if hard == "exists" else 1)
    counted = cells * (2 if op == "marginal" and query_kind != "forall" else 1)
    n = 2
    while math.comb(n + counted, counted - 1) <= budget:
        n += 1
    vocab = [(p, 1) for p in unary] + [(r, 2) for r in binary]
    return {"vocab": vocab, "weighted": weighted, "query": query, "n": n,
            "cell_bound": cells}


def _wfomc_cells(rng):
    import mlncount
    from mlncount import mln

    ops, oracle_checks = [], []
    for i, slot in enumerate(CELLS_SLOTS):
        spec = cells_model(rng, slot)
        preds = [mlncount.Predicate(name, arity)
                 for name, arity in spec["vocab"]]
        phi = mlncount.Mln.of([(_parse(t, preds), w)
                               for w, t in spec["weighted"]], preds)
        query = _parse(spec["query"], preds)
        d = mlncount.Domain(spec["n"])
        name = f"model{i} cells<={spec['cell_bound']} n={spec['n']}"
        shape = {"n": spec["n"], "predicates": len(preds),
                 "cell_bound": spec["cell_bound"],
                 "formulas": spec["weighted"], "query": spec["query"]}
        # No reference exists at the timed n: Z must be finite and positive,
        # a marginal must be a probability up to round-off (a query that the
        # hard formulas imply can come out as 1 + 2e-16).
        if slot[6] == "partition":
            ops.append(Op(f"partition_function {name}",
                          lambda phi=phi, d=d: mln.partition_function(phi, d),
                          lambda: None, _positive_finite, 0.0, shape))
        else:
            ops.append(Op(f"marginal {name}",
                          lambda phi=phi, q=query, d=d: mln.marginal(phi, q, d),
                          lambda: None, _probability, REL_TOL, shape))
        oracle_checks.append(lambda phi=phi, q=query, name=name:
                             oracle_check(phi, q, name))
    rng.shuffle(ops)
    return ops, oracle_checks


def _positive_finite(z, _) -> float:
    value = complex(z)
    ok = math.isfinite(value.real) and value.real > 0 and value.imag == 0
    return 0.0 if ok else math.inf


def _probability(p, _) -> float:
    p = float(p)
    return max(0.0, -p, p - 1.0) if math.isfinite(p) else math.inf


def oracle_check(phi, query, name: str) -> list:
    """Engine against the exhaustive oracle at the largest n whose
    translated vocabulary has at most BRUTE_ATOM_CAP ground atoms.

    The translation to a weighted count is done here, independently of
    ``mlncount.mln.translate_mln``: every soft formula a with weight w gets
    an indicator xi with ``forall vars (xi(vars) <-> a)`` and w(xi) = e^w.
    """
    import mlncount
    from mlncount import brute, mln

    sentences = []
    vocab = list(phi.vocabulary)
    weights = {}
    for i, (formula, w) in enumerate(phi.weighted_formulas):
        if math.isinf(w):
            sentences.append(mlncount.universal_closure(formula))
            continue
        free = sorted(mlncount.free_variables(formula), key=lambda v: v.name)
        xi = mlncount.Predicate(f"bench_xi{i}", len(free))
        vocab.append(xi)
        sentences.append(mlncount.universal_closure(
            mlncount.Iff(mlncount.Atom(xi, tuple(free)), formula)))
        weights[xi.name] = math.exp(w)
    n = 1
    while sum((n + 1) ** p.arity for p in vocab) <= BRUTE_ATOM_CAP:
        n += 1
    d = mlncount.Domain(n)
    w_fn = brute.WeightFunction(weights)
    z_ref = complex(brute.brute_wfomc(sentences, w_fn, brute.WeightFunction(),
                                      d, vocab)).real
    q_ref = complex(brute.brute_wfomc(sentences + [query], w_fn,
                                      brute.WeightFunction(), d, vocab)).real
    label = f"oracle n={n} {name}"
    out = []
    try:
        z = complex(mln.partition_function(phi, d)).real
        out.append((f"{label} partition", ref.rel_err(z, z_ref), REL_TOL))
    except mlncount.MlncountError as err:
        out.append((f"{label} partition raised {err}", math.inf, REL_TOL))
    try:
        p = mln.marginal(phi, query, d)
        out.append((f"{label} marginal", abs(p - q_ref / z_ref), REL_TOL))
    except mlncount.MlncountError as err:
        out.append((f"{label} marginal raised {err}", math.inf, REL_TOL))
    return out


# --- wfomc-exact ------------------------------------------------------------

def _wfomc_exact(rng) -> list[Op]:
    import mlncount
    from mlncount import mln

    f, g, p = rng.sample(["f", "g", "r", "e", "h"], 3)
    x, y = rng.sample(["x", "y"], 2)
    vocab = [mlncount.Predicate(f, 2), mlncount.Predicate(g, 2),
             mlncount.Predicate(p, 1)]

    def hard(*texts):
        formulas = [_parse(t, vocab) for t in texts]
        used = set().union(*map(mlncount.logic.predicates_of, formulas))
        return mlncount.Mln.of([(s, math.inf) for s in formulas],
                               [q for q in vocab if q in used])

    total = f"forall {x} exists {y} {f}({x},{y})"
    onto = f"forall {y} exists {x} {f}({x},{y})"
    loop = rng.choice([f"exists {x} {f}({x},{x})",
                       f"!(forall {x} !{f}({x},{x}))"])
    marked = f"forall {x} exists {y} ({f}({x},{y}) & {p}({y}))"
    contained = f"forall {x} forall {y} ({f}({x},{y}) -> {g}({x},{y}))"

    def count(label, model, n, expect):
        d = mlncount.Domain(n)
        return Op(f"{label} Z n={n}", lambda: mln.partition_function(model, d),
                  lambda: expect(n), _exact_err, 0.0, {"n": n})

    def probability(label, model, query, n, expect):
        d = mlncount.Domain(n)
        q = _parse(query, vocab)
        return Op(f"{label} n={n}", lambda: mln.marginal(model, q, d),
                  lambda: expect(n), ref.rel_err, 1e-12, {"n": n})

    ops = [
        count("total", hard(total), 90, ref.total_relations),
        count("total", hard(total), 120, ref.total_relations),
        count("total onto", hard(total, onto), 26,
              ref.total_surjective_relations),
        count("marked successor", hard(marked), 14, ref.total_into_marked),
        count("contained relation", hard(contained), 45,
              ref.implication_worlds),
        probability("total P(loop)", hard(total), loop, 28,
                    ref.total_has_loop),
        probability("total P(onto)", hard(total), onto, 22,
                    ref.total_is_surjective),
    ]
    rng.shuffle(ops)
    return ops


def _exact_err(got, expect: int) -> float:
    """Exact path: the engine must return the integer itself; one unit off
    in a thousand digits is still a failure."""
    return 0.0 if isinstance(got, int) and got == expect else math.inf


# --- cli --------------------------------------------------------------------

def _cli(rng, ctx: Context) -> list[Op]:
    os.makedirs(ctx.out_dir, exist_ok=True)

    def write(name, lines):
        path = os.path.join(ctx.out_dir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return os.path.relpath(path, ctx.root)

    f = rng.choice(["f", "succ", "next", "parent"])

    def function_model(name, n, w, *extra):
        return write(name, [f"domain {n}", f"predicate {f}/2", f"function {f}",
                            f"weight {w} : {f}(x,x)",
                            *extra])

    ops = []
    w = _weight(rng)
    path = function_model("function_marginal.mln", 6, w,
                          f"count fix : {f}(x,x)",
                          f"query has_fix : exists x {f}(x,x)")
    ops.append(_cli_op(ctx, "marginal function n=6", ["marginal", path],
                       lambda w=w: ref.weighted_functions_has_fix(6, w),
                       lambda out, e: _text_value(out, "has_fix", e)))
    w = _weight(rng)
    path = function_model("function_partition.mln", 7, w)
    ops.append(_cli_op(ctx, "partition function n=7", ["partition", path],
                       lambda w=w: ref.weighted_functions(7, w),
                       lambda out, e: _text_value(out, None, e)))
    w = _weight(rng)
    path = function_model("function_query.mln", 8, w)
    ops.append(_cli_op(ctx, "marginal --query function n=8",
                       ["marginal", path, "--query", f"exists y {f}(y,y)"],
                       lambda w=w: ref.weighted_functions_has_fix(8, w),
                       lambda out, e: _text_value(out, "query", e)))
    w = _weight(rng)
    path = function_model("function_json.mln", 5, w,
                          f"count fix : {f}(x,x)",
                          f"query has_fix : exists x {f}(x,x)")
    ops.append(_cli_op(ctx, "marginal --format json function n=5",
                       ["marginal", path, "--format", "json"],
                       lambda w=w: ref.weighted_functions_has_fix(5, w),
                       lambda out, e: ref.rel_err(
                           json.loads(out)["marginals"]["has_fix"], e)))
    w = _weight(rng)
    path = write("unary_countdist.mln", [
        "domain 40", "predicate p/1", f"weight {w} : p(x)", "count np : p(x)"])
    ops.append(_cli_op(ctx, "countdist unary n=40", ["countdist", path],
                       lambda w=w: ref.binomial_law(40, w), _csv_err, GRID_TOL))
    w = _weight(rng)
    path = write("smokers_countdist.mln", [
        "domain 10", "predicate smokes/1", "predicate cancer/1",
        f"weight {w} : smokes(x) -> cancer(x)", "count ns : smokes(x)",
        "count nc : cancer(x)"])
    ops.append(_cli_op(ctx, "countdist smokers n=10", ["countdist", path],
                       lambda w=w: ref.implication_law(10, w), _csv_err,
                       GRID_TOL))
    # ``check`` compares the engine with the oracle inside the CLI and marks
    # each value ``ok`` within its own tolerance, which equals REL_TOL.
    for name in sorted(os.listdir(os.path.join(ctx.root, "models"))):
        if name.endswith(".mln"):
            ops.append(_cli_op(ctx, f"check {name}",
                               ["check", os.path.join("models", name)],
                               lambda: None, _check_output))
    rng.shuffle(ops)
    return ops


def _cli_op(ctx: Context, label: str, argv: list[str], reference, compare,
            tol: float = REL_TOL) -> Op:
    """An op that runs ``mlncount`` and compares its stdout; a non-zero
    exit code fails the op."""
    argv = argv + ["--threads", str(ctx.nproc)]
    if ctx.in_process_cli:
        def run():
            from contextlib import redirect_stdout
            from mlncount import cli
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()
    else:
        env = src_env(ctx.root)

        def run():
            proc = subprocess.run([sys.executable, "-m", "mlncount.cli"] + argv,
                                  env=env, cwd=ctx.root, capture_output=True,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout

    def checked(result, expected):
        code, out = result
        return compare(out, expected) if code == 0 else math.inf

    return Op(label, run, reference, checked, tol, {"argv": argv})


def src_env(root: str) -> dict:
    """This environment with the checkout's ``src/`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _text_value(out: str, name, expect: float) -> float:
    """The value printed on the line ``name value``, or alone if name is
    None."""
    for line in out.splitlines():
        parts = line.split()
        if name is None and len(parts) == 1:
            return ref.rel_err(float(parts[0]), expect)
        if len(parts) == 2 and parts[0] == name:
            return ref.rel_err(float(parts[1]), expect)
    return math.inf


def _csv_err(out: str, law) -> float:
    rows = list(csv.reader(io.StringIO(out)))[1:]
    if isinstance(law[0], list):
        cells = {(int(r[0]), int(r[1])): float(r[2]) for r in rows}
        got = [[cells.get((a, b), math.nan) for b in range(len(law[0]))]
               for a in range(len(law))]
    else:
        got = [float(r[1]) for r in rows]
    return ref.grid_err(got, law)


def _check_output(out: str, _) -> float:
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines or any(not line.endswith(" ok") for line in lines):
        return math.inf
    return max(float(line.split("rel=")[1].split()[0]) for line in lines)
