#!/usr/bin/env python3
"""Seeded benchmark for spworks, driven through the library API in one process.

    python3 perfbench/run.py --workload scatter-full --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: it imports ``spworks`` from
``src/`` and the kernel corpus from ``tests/conftest.py`` and exits with
status 1, printing no result, when either is missing.

One operation is what a user does for one kernel: compile it
(statement_from_text -> apply_schedule -> insert_sparse_workspace -> lower)
and execute it on operands converted during set-up. A pass is the
workload's fixed list of operations; the compile-sweep workload compiles
only, ending each compile with print_plan. Every result is checked against
an independent numpy reference, and every counter except peak_bytes must
repeat exactly across passes and between the pipelined and sequential runs
of one configuration.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds per-layer metrics from a
traced run, which times calls into each layer from outside (tracing.py).
The lines before it are a readable report. The exit status is 0 when every
operation was correct and 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import statistics
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent

# The references use numpy's linear algebra. On one thread it starts no
# worker threads that could stay busy beside the timed passes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# The end-to-end metrics the last line carries (BENCHMARK.json end_to_end).
# Pass and compile times are printed but not carried: on the shared machine
# this was tuned on, their run-to-run quartile spread was 0.2-0.4 of the
# median (see README.md), above the largest bound a gate may have.
END_TO_END = {
    "setup_s": "s",
    "exec_peak_mb": "MB",
}

PER_LAYER = {
    "ism.insert_s": "s",
    "ism.engine_init_s": "s",
    "ism.drain_s": "s",
    "ism.merge_s": "s",
    "ism.finalize_s": "s",
    "ism.result_s": "s",
    "ism.engines": "count",
    "ism.engines_max_exec": "count",
    "ism.inserts": "count",
    "ism.drains": "count",
    "ism.merges": "count",
    "ism.comparisons": "count",
    "ism.dedup_ratio": "ratio",
    "ism.peak_bytes": "B",
    "lowering.exec_self_s": "s",
    "tensor.compress_s": "s",
    "ir.parse_s": "s",
    "ir.schedule_s": "s",
    "analysis.insert_s": "s",
    "lowering.lower_s": "s",
    "lowering.print_s": "s",
    "lowering.plan_lines": "count",
    "compile.rejected": "count",
    "io.synth_s": "s",
    "tensor.convert_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}

# per-layer self time <- span name
SELF_TIME = {
    "ism.insert_s": "ism.insert",
    "ism.engine_init_s": "ism.engine_init",
    "ism.drain_s": "ism.drain",
    "ism.merge_s": "ism.merge",
    "ism.finalize_s": "ism.finalize",
    "ism.result_s": "ism.result",
    "lowering.exec_self_s": "lowering.execute",
    "tensor.compress_s": "tensor.compress",
    "ir.parse_s": "ir.parse",
    "ir.schedule_s": "ir.schedule",
    "analysis.insert_s": "analysis.insert",
    "lowering.lower_s": "lowering.lower",
    "lowering.print_s": "lowering.print",
}

# the compile chain and execute, as the benchmark calls them: function -> span
API_SPANS = {
    "statement_from_text": "ir.parse",
    "apply_schedule": "ir.schedule",
    "insert_sparse_workspace": "analysis.insert",
    "lower": "lowering.lower",
    "print_plan": "lowering.print",
    "execute": "lowering.execute",
}


def load_sources():
    """Import spworks from the checkout's src/ and the kernel corpus from its
    tests/conftest.py; exit with status 1 when they are not there."""
    package = ROOT / "src" / "spworks"
    corpus_file = ROOT / "tests" / "conftest.py"
    if not (package / "__init__.py").is_file() or not corpus_file.is_file():
        sys.exit(f"perfbench: {ROOT} holds no spworks sources (src/spworks, "
                 f"tests/conftest.py); run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import spworks

    if Path(spworks.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported spworks from {spworks.__file__}, not {package}")
    spec = importlib.util.spec_from_file_location("perfbench_corpus", corpus_file)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # its dataclasses look their module up
    spec.loader.exec_module(corpus)
    return corpus


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it. Below 20
    samples that percentile would not lie above the median, so the maximum
    is reported instead; the label says which was taken."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], f"max of {n} passes (fewer than 20, no percentile has ten beyond it)"
    return xs[n - 11], f"p{100 * (n - 10) // n} of {n} passes, ten beyond it"


@dataclass
class PassStats:
    seconds: float = 0.0
    exec_seconds: float = 0.0
    compile_seconds: list[float] = field(default_factory=list)
    inserts: int = 0
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


class Checker:
    """Counts operations and failures; holds what must repeat exactly."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.expected: dict = {}

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"FAILED {what}: {why}", file=sys.stderr)

    def repeat(self, key, value, what: str) -> None:
        """Record ``value`` under ``key`` the first time; later it must equal."""
        want = self.expected.setdefault(key, value)
        if want != value:
            self.fail(what, f"{key} gave {value}, earlier {want}")


class Bench:
    def __init__(self, workload: str, seed: int, scale: str, corpus) -> None:
        import spworks as sw
        import workloads

        self.sw, self.W, self.corpus = sw, workloads, corpus
        self.workload, self.seed, self.scale = workload, seed, scale
        self.checker = Checker()
        self.api = SimpleNamespace(**{name: getattr(sw, name) for name in API_SPANS})
        self.tracer = None

    # -- set-up ----------------------------------------------------------------

    def set_up(self) -> None:
        """Generate and convert the inputs; these are the ones measured. More
        set-ups follow between the timed passes (``timed``), so that the
        reported median spans the whole run, and each must produce the same
        inputs."""
        self.synth: list[float] = []
        self.convert: list[float] = []
        self.first_inputs = None
        raw, self.inputs = self.set_up_once()
        self.W.attach_references(self.inputs, raw)

    @property
    def setup(self) -> list[float]:
        return [a + b for a, b in zip(self.synth, self.convert)]

    def set_up_once(self):
        W = self.W
        t0 = perf_counter()
        raw = W.generate(self.workload, self.seed, self.scale, self.corpus)
        t1 = perf_counter()
        inputs = W.convert(self.workload, raw, self.corpus)
        t2 = perf_counter()
        self.synth.append(t1 - t0)
        self.convert.append(t2 - t1)
        fingerprint = self._fingerprint(inputs)
        if self.first_inputs is None:
            self.first_inputs = fingerprint
        elif fingerprint != self.first_inputs:
            self.checker.fail("set-up", "one seed produced different inputs")
        return raw, inputs

    def _fingerprint(self, inputs) -> str:
        h = hashlib.sha256()
        for case in inputs.cases:
            for name, t in sorted(case.tensors.items()):
                h.update(name.encode())
                for c in t.mode_coordinates():
                    h.update(c.tobytes())
                h.update(t.vals.tobytes())
        for c in inputs.compiles:
            h.update(f"{c.kernel.name}|{c.schedule}|{c.policy}|{c.expected_order}".encode())
        return h.hexdigest()

    # -- one pass --------------------------------------------------------------

    def compile(self, kernel, policy, schedule):
        api = self.api
        stmt = api.statement_from_text(kernel.expr)
        if schedule:
            stmt = api.apply_schedule(stmt, schedule)
        rewritten, decision = api.insert_sparse_workspace(
            stmt, kernel.formats, policy, self.W.CAPACITY, **kernel.insert_kw)
        return stmt, decision, api.lower(rewritten, kernel.formats)

    def run_pass(self, measure_peak: bool = False) -> PassStats:
        gc.collect()
        if self.inputs.compiles:
            return self._compile_pass(measure_peak)
        return self._execute_pass(measure_peak)

    def _engines(self) -> int:
        return self.tracer.calls_here("ism.engine_init") if self.tracer else 0

    def _execute_pass(self, measure_peak: bool) -> PassStats:
        sw, W, checker = self.sw, self.W, self.checker
        stats = PassStats()
        cases = self.inputs.cases
        engines_max = 0
        counter_sums = {"drains": 0, "merges": 0, "comparisons": 0, "dedups": 0}
        ism_peak = 0
        base = tracemalloc.get_traced_memory()[0] if measure_peak else 0
        for op in self.inputs.ops:
            case = cases[op.case]
            label = op.label(cases)
            checker.attempted += 1
            engines_before = self._engines()
            if measure_peak:
                tracemalloc.reset_peak()
            t0 = perf_counter()
            try:
                _, _, plan = self.compile(case.kernel, op.policy, case.kernel.schedule)
                t1 = perf_counter()
                result = self.api.execute(plan, case.tensors,
                                          sw.ExecutionOptions(pipeline=op.pipeline))
                t2 = perf_counter()
            except Exception as exc:  # one failed operation must not end the run
                checker.fail(label, f"{type(exc).__name__}: {exc}")
                continue
            if measure_peak:
                stats.peak_bytes = max(stats.peak_bytes,
                                       tracemalloc.get_traced_memory()[1] - base)
            stats.seconds += t2 - t0
            stats.exec_seconds += t2 - t1
            stats.compile_seconds.append(t1 - t0)
            counters = result.counters
            stats.inserts += counters.inserts
            engines_max = max(engines_max, self._engines() - engines_before)
            for name in counter_sums:
                counter_sums[name] += getattr(counters, name)
            ism_peak = max(ism_peak, counters.peak_bytes)
            why = W.check(result.tensor, case)
            if why is not None:
                checker.fail(label, why)
                continue
            exact = counters.as_dict()
            exact.pop("peak_bytes")
            # one key per configuration: pipelined and sequential runs share it
            checker.repeat(("counters", op.case, op.policy), exact, label)
        stats.counts = {"ism.engines_max_exec": engines_max, "ism.peak_bytes": ism_peak,
                        **{f"ism.{k}": v for k, v in counter_sums.items()}}
        return stats

    def _compile_pass(self, measure_peak: bool) -> PassStats:
        sw, checker = self.sw, self.checker
        stats = PassStats()
        digest = hashlib.sha256()
        rejected = lines = 0
        base = tracemalloc.get_traced_memory()[0] if measure_peak else 0
        for n, c in enumerate(self.inputs.compiles):
            label = f"compile {n} {c.kernel.name} [{c.schedule}]"
            checker.attempted += 1
            if measure_peak:
                tracemalloc.reset_peak()
            t0 = perf_counter()
            try:
                stmt, decision, plan = self.compile(c.kernel, c.policy, c.schedule)
                text = self.api.print_plan(plan)
            except (sw.IrError, sw.LoweringError) as exc:
                stats.seconds += perf_counter() - t0
                rejected += 1
                digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                # the schedule model predicts every IrError; lowering may refuse any
                if isinstance(exc, sw.IrError) != (c.expected_order is None):
                    checker.fail(label, f"unexpected {type(exc).__name__}: {exc}")
                continue
            except Exception as exc:  # one failed compile must not end the run
                checker.fail(label, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = perf_counter() - t0
            if measure_peak:
                stats.peak_bytes = max(stats.peak_bytes,
                                       tracemalloc.get_traced_memory()[1] - base)
            stats.seconds += elapsed
            stats.compile_seconds.append(elapsed)
            digest.update(text.encode())
            lines += text.count("\n") + 1
            why = self._check_compile(c, stmt, decision)
            if why is not None:
                checker.fail(label, why)
        checker.repeat("print_plan digest", digest.hexdigest(), "compile-sweep pass")
        checker.repeat("rejections", rejected, "compile-sweep pass")
        stats.counts = {"lowering.plan_lines": lines, "compile.rejected": rejected}
        return stats

    def _check_compile(self, c, stmt, decision) -> str | None:
        if c.expected_order is None:
            return "an invalid schedule was accepted"
        got = tuple(v.name for v in self.sw.reconstruct_input_order(stmt))
        if got != c.expected_order:
            return f"reconstructed loop order {got}, expected {c.expected_order}"
        if c.depth == 0 and decision.action is not c.kernel.action:
            return f"picked {decision.action}, the corpus lists {c.kernel.action}"
        return None

    # -- runs ------------------------------------------------------------------

    def timed(self, seconds: float, step=None) -> list[PassStats]:
        """Passes, each followed by an untimed set-up, until the next pass
        would end after ``seconds``; at least one pass and three set-ups."""
        step = step or self.run_pass
        passes = []
        began = perf_counter()
        while True:
            passes.append(step())
            self.set_up_once()
            if perf_counter() - began + passes[-1].seconds > seconds:
                break
        while len(self.synth) < 3:
            self.set_up_once()
        return passes

    def end_to_end(self, seconds: float) -> dict[str, float]:
        """Print every end-to-end figure; return the ones the last line carries."""
        tracemalloc.start()
        try:
            warm = self.run_pass(measure_peak=True)  # also warms caches
        finally:
            tracemalloc.stop()
        passes = self.timed(seconds)
        times = [p.seconds for p in passes]
        compiles = [t for p in passes for t in p.compile_seconds]
        rates = [p.inserts / p.exec_seconds for p in passes if p.inserts]
        tail_value, tail_note = tail(times)
        report = [
            ("pass_s", statistics.median(times), "s", f"median of {len(times)} passes"),
            ("pass_s.tail", tail_value, "s", tail_note),
            ("compile_ms", 1e3 * statistics.median(compiles) if compiles else 0.0, "ms",
             f"median of {len(compiles)} compiles"),
            ("inserts_per_s", statistics.median(rates) if rates else 0.0, "1/s",
             "median over passes of Counters.inserts / execute time"
             if rates else "no inserts in this workload"),
            ("setup_s", statistics.median(self.setup), "s",
             f"median of {len(self.setup)} set-ups"),
            ("exec_peak_mb", warm.peak_bytes / 1e6, "MB",
             "tracemalloc peak above the pass's start, one untimed pass"),
        ]
        for name, value, unit, note in report:
            print(f"  {name:<16} {value:>14.6g} {unit:<5} {note}")
        return {name: value for name, value, _, _ in report if name in END_TO_END}

    def traced_pass(self) -> PassStats:
        self.tracer.reset()
        stats = self.run_pass()
        self_ns, calls = self.tracer.totals()
        stats.layers = {metric: self_ns.get(span, 0) / 1e9 for metric, span in SELF_TIME.items()}
        stats.counts.update({"ism.engines": calls.get("ism.engine_init", 0),
                             "ism.inserts": calls.get("ism.insert", 0)})
        return stats

    def per_layer(self, seconds: float) -> dict[str, float]:
        """Untraced and traced passes in turn, so that both see the same state
        of the machine; the difference of their medians is the overhead."""
        from tracing import Tracer, instrumented

        self.run_pass()  # warm caches
        tracer = Tracer()
        plain = self.api
        traced_api = SimpleNamespace(**{
            name: tracer.wrap(span, getattr(self.sw, name), root=name == "execute")
            for name, span in API_SPANS.items()})
        untraced: list[PassStats] = []
        passes: list[PassStats] = []

        def pair() -> PassStats:
            untraced.append(self.run_pass())
            self.api, self.tracer = traced_api, tracer
            try:
                with instrumented(tracer):
                    passes.append(self.traced_pass())
            finally:
                self.api, self.tracer = plain, None
            return PassStats(seconds=untraced[-1].seconds + passes[-1].seconds)

        self.timed(seconds, pair)
        for p in passes[1:]:
            self.checker.repeat("traced counts", p.counts, "traced pass")
        metrics = {name: statistics.median(p.layers[name] for p in passes)
                   for name in SELF_TIME}
        counts = passes[0].counts
        metrics.update({name: counts.get(name, 0) for name, unit in PER_LAYER.items()
                        if unit in ("count", "B")})
        inserts = counts.get("ism.inserts", 0)
        metrics["ism.dedup_ratio"] = counts.get("ism.dedups", 0) / inserts if inserts else 0.0
        traced = statistics.median(p.seconds for p in passes)
        plain_s = statistics.median(p.seconds for p in untraced)
        metrics.update({
            "io.synth_s": statistics.median(self.synth),
            "tensor.convert_s": statistics.median(self.convert),
            "trace.pass_s": traced,
            "trace.untraced_pass_s": plain_s,
            "trace.overhead_s": traced - plain_s,
        })
        out = ROOT / "perfbench" / "out" / f"trace-{self.workload}-seed{self.seed}.csv.gz"
        tracer.write(out)
        print(f"  {len(tracer.spans)} spans from {len(passes)} traced passes, "
              f"alternating with {len(untraced)} untraced ones, written to "
              f"{out.relative_to(ROOT)}")
        for name, unit in PER_LAYER.items():
            value = metrics[name]
            shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"  {name:<22} {shown} {unit}")
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scatter-full", "hoisted-rows", "append-dense", "compile-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    corpus = load_sources()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    bench = Bench(args.workload, args.seed, args.scale, corpus)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{bench.W.WHY[args.workload]}")
    bench.set_up()
    if args.trace:
        metrics, units = bench.per_layer(args.seconds), PER_LAYER
    else:
        metrics, units = bench.end_to_end(args.seconds), END_TO_END
    checker = bench.checker
    print(f"  {'failed_frac':<16} {checker.failed / max(checker.attempted, 1):>14.6g} -     "
          f"{checker.failed} of {checker.attempted} operations failed")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
