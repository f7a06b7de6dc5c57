"""Outside-in layer tracing: wrappers around the engine's public callables.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces each callable
at every name it is looked up under (``compile_theory`` is called both as
``mlncount.lifted.compile_theory`` and as ``mlncount.spectrum.compile_theory``,
for instance) and ``uninstall`` puts the originals back.  Each wrapper
records a span (name, start, end, parent span, op id) in memory, plus the
work counts of the call; ``write`` saves the spans when the run ends.

Diagnostics that cost time, such as the raw inverse transform behind
``idft.max_imag``, run inside ``harness`` spans.  Harness time is
subtracted from the enclosing spans and from the op's wall time, so it
shows in neither the layer self-times nor the overhead ratio.

Work done in ``multiprocessing`` pool workers is invisible here: their
spans stay in the forked children, so that time counts as the self time
of the ``spectrum`` span that started the pool.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict

HARNESS = "harness"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op_id: int | None = None

    # --- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent, "op": self.op_id,
                           "counts": {}})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def harness(self, fn, *args):
        """Run diagnostic work in a span that the analysis discounts."""
        index = self.begin(HARNESS)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def run_op(self, op_id: int, fn):
        """Run one op as the root span of its subtree."""
        self.op_id = op_id
        index = self.begin("op")
        try:
            return fn()
        finally:
            self.end(index)
            self.op_id = None

    # --- wrappers -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, counts=None, before=None):
        """Replace ``owner.attr`` by a spanning wrapper.

        ``before(span_counts, args, kwargs)`` and
        ``counts(span_counts, result, args, kwargs)`` record diagnostics and
        work counts; both run in harness spans.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return original(*args, **kwargs)
            index = tracer.begin(name)
            record = tracer.spans[index]["counts"]
            if before is not None:
                tracer.harness(before, record, args, kwargs)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.end(index)
                raise
            if counts is not None:
                tracer.harness(counts, record, result, args, kwargs)
            tracer.end(index)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        from mlncount import (
            brute, cli, constraints, lifted, mln, modelfile, spectrum,
        )

        for owner in (lifted, spectrum):
            self.wrap(owner, "compile_theory", "compile", counts=_compile_counts)
        for owner in (mln, spectrum):
            self.wrap(owner, "translate_mln", "translate",
                      counts=_translate_counts)
        self.wrap(lifted.CompiledTheory, "wfomc", "wfomc", counts=_wfomc_counts)
        for owner in (spectrum, cli):
            self.wrap(owner, "full_spectrum", "spectrum",
                      counts=_spectrum_counts)
        self.wrap(spectrum, "inverse_dft", "idft", before=_idft_diagnostics)
        for owner in (spectrum, constraints, cli):
            self.wrap(owner, "count_distribution", "countdist")
        for owner in (constraints, cli):
            self.wrap(owner, "constrained_partition", "constraints",
                      before=_grid_counts(extra_axis=False))
            self.wrap(owner, "constrained_marginal", "constraints",
                      before=_grid_counts(extra_axis=True))
            self.wrap(owner, "fixed_point_distribution", "fixedpoints")
        for owner, names in ((mln, ("partition_function", "marginal")),
                             (constraints, ("partition_function",)),
                             (cli, ("partition_function", "marginal"))):
            for attr in names:
                self.wrap(owner, attr, "mln")
        self.wrap(modelfile, "parse_model_text", "parse")
        self.wrap(cli, "parse_formula", "parse")
        for attr in ("write_countdist_csv", "write_spectrum_csv",
                     "write_fixed_points_csv", "countdist_json", "dump_json"):
            self.wrap(cli, attr, "serialize")
        for owner in (brute, cli):
            for attr in ("brute_mln_partition", "brute_mln_marginal",
                         "brute_constrained_partition",
                         "brute_constrained_marginal"):
                self.wrap(owner, attr, "oracle", before=_oracle_counts)
        self.wrap(cli, "main", "cli")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


# --- work counts ------------------------------------------------------------

def _compile_counts(record, compiled, args, kwargs):
    binary = sum(1 for p in compiled.vocabulary if p.arity == 2)
    record["branches"] = len(compiled.branches)
    record["cells"] = sum(len(b.cells) for b in compiled.branches)
    record["pair_rows"] = sum(len(rows) for b in compiled.branches
                              for rows in b.pair_counts.values())
    record["pair_evals"] = sum(math.comb(len(b.cells) + 1, 2) * 4 ** binary
                               for b in compiled.branches)


def _translate_counts(record, result, args, kwargs):
    phi = args[0] if args else kwargs["phi"]
    record["indicators"] = len(result[0].vocabulary) - len(phi.vocabulary)


def _domain(args, kwargs):
    from mlncount import Domain
    return next((a for a in args if isinstance(a, Domain)), kwargs.get("d"))


def _wfomc_counts(record, result, args, kwargs):
    record["compositions"] = args[0].composition_count(_domain(args, kwargs))


def _spectrum_counts(record, result, args, kwargs):
    record["frequencies"] = int(result.values.size)


def _idft_diagnostics(record, args, kwargs):
    import numpy as np
    from mlncount import spectrum

    values = (args[0] if args else kwargs["g"]).values
    raw = spectrum.inverse_dft_raw(values)
    record["points"] = int(values.size)
    record["max_imag"] = float(np.max(np.abs(raw.imag))) if raw.size else 0.0
    record["min_mass"] = float(raw.real.min()) if raw.size else 0.0


def _grid_counts(extra_axis: bool):
    def before(record, args, kwargs):
        import numpy as np
        from mlncount import spectrum

        cc = args[1] if len(args) > 1 else kwargs["cc"]
        shape = spectrum.shape_vector(cc.psi, _domain(args, kwargs))
        kept = sum(1 for idx in np.ndindex(*shape) if cc.predicate(idx))
        points = math.prod(shape)
        record["grid_points"] = points * (2 if extra_axis else 1)
        record["kept_points"] = kept * (2 if extra_axis else 1)
    return before


def _oracle_counts(record, args, kwargs):
    d = _domain(args, kwargs)
    atoms = sum(d.size ** p.arity for p in args[0].vocabulary)
    record["worlds"] = 2 ** atoms


# --- analysis ---------------------------------------------------------------

# Layers whose self time the per-layer metrics report, in pipeline order.
LAYERS = ("cli", "parse", "mln", "translate", "compile", "wfomc", "spectrum",
          "countdist", "idft", "constraints", "fixedpoints", "serialize",
          "oracle")


def analyse(spans: list[dict], cycles: int, ops_per_cycle: int) -> dict:
    """Per-cycle self times, work counts and coverage from traced spans."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(i)

    def dur(i):
        return spans[i]["end"] - spans[i]["start"]

    def harness_within(i):
        total = 0.0
        for c in children[i]:
            total += dur(c) if spans[c]["name"] == HARNESS else harness_within(c)
        return total

    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    extremes = {"max_imag": 0.0, "min_mass": math.inf}
    op_wall = 0.0
    op_self = 0.0
    spectra_by_op = defaultdict(int)
    constrained_ops = set()
    total_dur = defaultdict(float)
    for i, span in enumerate(spans):
        name = span["name"]
        if name == HARNESS:
            continue
        own = dur(i) - sum(dur(c) for c in children[i])
        if name == "op":
            op_wall += dur(i) - harness_within(i)
            op_self += own
            continue
        self_s[name] += own
        total_dur[name] += dur(i) - harness_within(i)
        calls[name] += 1
        for key, value in span["counts"].items():
            if key in extremes:
                pick = max if key == "max_imag" else min
                extremes[key] = pick(extremes[key], value)
            else:
                counts[f"{name}.{key}"] += value
        if name == "spectrum":
            spectra_by_op[span["op"]] += 1
        if name == "constraints":
            constrained_ops.add(span["op"])

    per = 1.0 / max(cycles, 1)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] * per
    out["parse.calls"] = calls["parse"] * per
    out["translate.indicators"] = counts["translate.indicators"] * per
    out["compile.calls"] = calls["compile"] * per
    out["compile.calls_per_op"] = calls["compile"] * per / ops_per_cycle
    for key in ("branches", "cells", "pair_rows", "pair_evals"):
        out[f"compile.{key}"] = counts[f"compile.{key}"] * per
    out["wfomc.calls"] = calls["wfomc"] * per
    out["wfomc.compositions"] = counts["wfomc.compositions"] * per
    out["wfomc.us_per_composition"] = (
        1e6 * self_s["wfomc"] / counts["wfomc.compositions"]
        if counts["wfomc.compositions"] else 0.0)
    out["spectrum.frequencies"] = counts["spectrum.frequencies"] * per
    out["spectrum.s_per_frequency"] = (
        total_dur["spectrum"] / counts["spectrum.frequencies"]
        if counts["spectrum.frequencies"] else 0.0)
    out["idft.points"] = counts["idft.points"] * per
    out["idft.max_imag"] = extremes["max_imag"]
    out["idft.min_mass"] = (extremes["min_mass"]
                            if math.isfinite(extremes["min_mass"]) else 0.0)
    out["constraints.grid_points"] = counts["constraints.grid_points"] * per
    out["constraints.kept_ratio"] = (
        counts["constraints.kept_points"] / counts["constraints.grid_points"]
        if counts["constraints.grid_points"] else 0.0)
    out["constraints.spectra_per_op"] = (
        sum(spectra_by_op[op] for op in constrained_ops) / len(constrained_ops)
        if constrained_ops else 0.0)
    out["oracle.worlds"] = counts["oracle.worlds"] * per
    covered = sum(self_s[layer] for layer in LAYERS)
    out["trace.op_wall_s"] = op_wall * per
    out["trace.covered_share"] = covered / op_wall if op_wall else 0.0
    out["trace.uncovered_s"] = op_self * per
    return out
