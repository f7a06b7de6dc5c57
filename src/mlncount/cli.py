"""Command-line front end.

Subcommands: ``partition``, ``marginal``, ``countdist``, ``spectrum``,
``fixedpoints`` and ``check`` (polynomial engine versus exhaustive
enumeration).  Exit codes: 0 success, 1 numeric-residue violation or
cross-check mismatch, 2 parse error, 3 infeasible constraint, 4 brute-force
cap exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .brute import (
    DEFAULT_ATOM_CAP, brute_constrained_marginal, brute_constrained_partition,
    brute_mln_marginal, brute_mln_partition,
)
from .constraints import (
    analytic_fixed_points, constrained_marginal, constrained_partition,
    fixed_point_distribution,
)
from .errors import (
    CHECK_TOL, BruteForceCapError, FormulaSyntaxError,
    InfeasibleConstraintError, MlncountError, TooManyVariablesError,
    UnsupportedSentenceError, VocabularyError,
)
from .mln import marginal, partition_function
from .modelfile import Model, parse_model
from .parser import parse_formula
from .serialize import (
    countdist_json, dump_json, fmt12, write_countdist_csv,
    write_fixed_points_csv, write_spectrum_csv,
)
from .spectrum import count_distribution, full_spectrum


def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="mlncount",
        description="Exact inference for two-variable weighted-formula models "
                    "with cardinality and function constraints.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        if model:
            p.add_argument("model", help="model file path")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; selects nothing")

    p = sub.add_parser("partition", help="print the (constrained) partition value")
    common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("marginal", help="print query probabilities")
    common(p)
    p.add_argument("--query", help="sentence to query (default: file queries)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("countdist", help="write the count distribution")
    common(p)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("spectrum", help="write the count-distribution transform")
    common(p)
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")

    p = sub.add_parser("fixedpoints",
                       help="fixed-point distribution of a random function")
    common(p, model=False)
    p.add_argument("--n", type=int, required=True, help="domain size")
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")

    p = sub.add_parser("check",
                       help="cross-validate the engine against enumeration")
    common(p, model=False)
    p.add_argument("model", help="model file path")
    p.add_argument("--brute-cap", type=int, default=DEFAULT_ATOM_CAP,
                   help="max ground atoms for enumeration")
    return top


@contextlib.contextmanager
def _open_out(path: str):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _partition_value(model: Model):
    if model.cardinality is not None:
        return constrained_partition(model.mln, model.cardinality,
                                     model.domain)
    return partition_function(model.mln, model.domain)


def _marginal_value(model: Model, sentence) -> float:
    if model.cardinality is not None:
        return constrained_marginal(model.mln, model.cardinality, sentence,
                                    model.domain)
    return marginal(model.mln, sentence, model.domain)


def _queries(model: Model, query_text):
    if query_text is not None:
        sentence = parse_formula(query_text, list(model.vocabulary))
        return [("query", sentence)]
    if not model.queries:
        raise FormulaSyntaxError(
            "no --query given and the model declares no queries")
    return list(model.queries)


def _cmd_partition(args) -> int:
    model = parse_model(args.model)
    value = _partition_value(model)
    if args.format == "json":
        try:
            re_part = float(value)
        except OverflowError:
            re_part = fmt12(value)
        dump_json({"partition": {"re": re_part, "im": 0.0}}, sys.stdout)
    else:
        print(fmt12(value))
    return 0


def _cmd_marginal(args) -> int:
    model = parse_model(args.model)
    results = [(name, _marginal_value(model, sentence))
               for name, sentence in _queries(model, args.query)]
    if args.format == "json":
        dump_json({"marginals": {name: value for name, value in results}},
                  sys.stdout)
    else:
        for name, value in results:
            print(f"{name} {fmt12(value)}")
    return 0


def _require_counts(model: Model):
    if model.count_spec is None:
        raise FormulaSyntaxError(
            "the model declares no count formulas")


def _cmd_countdist(args) -> int:
    model = parse_model(args.model)
    _require_counts(model)
    dist = count_distribution(model.mln, model.count_spec, model.domain)
    with _open_out(args.out) as handle:
        if args.format == "json":
            dump_json({"countdist": countdist_json(dist)}, handle)
        else:
            write_countdist_csv(dist, handle)
    return 0


def _cmd_spectrum(args) -> int:
    model = parse_model(args.model)
    _require_counts(model)
    spec = full_spectrum(model.mln, model.count_spec, model.domain)
    with _open_out(args.out) as handle:
        write_spectrum_csv(spec, handle)
    return 0


def _cmd_fixedpoints(args) -> int:
    if args.n < 1:
        raise FormulaSyntaxError("--n must be >= 1")
    engine = fixed_point_distribution(args.n)
    analytic = [analytic_fixed_points(args.n, k) for k in range(args.n + 1)]
    with _open_out(args.out) as handle:
        write_fixed_points_csv(engine, analytic, handle)
    return 0


def _cmd_check(args) -> int:
    model = parse_model(args.model)
    cap = args.brute_cap
    failures = 0

    def compare(name, lifted_value, brute_value):
        nonlocal failures
        err = abs(float(lifted_value) - brute_value) / (1 + abs(brute_value))
        status = "ok" if err <= CHECK_TOL else "MISMATCH"
        if err > CHECK_TOL:
            failures += 1
        print(f"{name}: engine={fmt12(lifted_value)} "
              f"brute={fmt12(brute_value)} rel={err:.3e} {status}")

    lifted_z = _partition_value(model)
    if model.cardinality is not None:
        brute_z = brute_constrained_partition(model.mln, model.cardinality,
                                              model.domain, cap)
    else:
        brute_z = brute_mln_partition(model.mln, model.domain, cap)
    compare("partition", lifted_z, brute_z)

    for name, sentence in model.queries:
        lifted_p = _marginal_value(model, sentence)
        if model.cardinality is not None:
            brute_p = brute_constrained_marginal(
                model.mln, model.cardinality, sentence, model.domain, cap)
        else:
            brute_p = brute_mln_marginal(model.mln, sentence, model.domain, cap)
        compare(f"marginal {name}", lifted_p, brute_p)
    return 1 if failures else 0


_COMMANDS = {
    "partition": _cmd_partition,
    "marginal": _cmd_marginal,
    "countdist": _cmd_countdist,
    "spectrum": _cmd_spectrum,
    "fixedpoints": _cmd_fixedpoints,
    "check": _cmd_check,
}


# The exit code of the first entry an error is of; else 1 (MlncountError).
_EXIT_CODES = (((FormulaSyntaxError, VocabularyError, TooManyVariablesError,
                 UnsupportedSentenceError, OSError), 2),
               (InfeasibleConstraintError, 3), (BruteForceCapError, 4))


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (MlncountError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES
                     if isinstance(err, kinds)), 1)


if __name__ == "__main__":
    sys.exit(main())
