#!/usr/bin/env python3
"""Layer-by-layer benchmark for relnorm.

    python3 perfbench/run.py --workload {corpus,deep,audit} --seed N --seconds S --trace {0,1}

Run from the repository root.  One client in one process drives relnorm
through its public functions in a closed loop: the next op starts when the
last one is done.  The workload's inputs are generated from ``--seed`` and
cycled in whole rounds for ``--seconds``.  Every op's output is checked,
outside the timed region, against the independent reference in
``reference.py``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports per-layer self times, sizes, the
paper's two-list comparison and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``attempted`` and ``failed`` count the distinct ops of a round, each judged
once against the reference; every timed repeat must reproduce its output.

``--census`` prints the input census of every workload for the seed, as
JSON, instead of measuring.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_CHILDREN = 2
CLI_REPS = 2
CHILD_REPS = 8
CHILD_TIMEOUT_S = 60
MIN_ROUNDS = 10          # untraced rounds a run makes, however slow the program
TAIL_BEYOND = 10         # samples the tail percentile leaves above it
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
SPANS_DIR = ROOT / "perfbench" / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description="relnorm layer-by-layer benchmark")
    p.add_argument("--workload", choices=("corpus", "deep", "audit"), default="corpus")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--census", action="store_true", help="print the input census of every workload and exit")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def tail_percentile(per_round: int) -> int:
    """The highest of ``TAIL_PERCENTILES`` with at least ``TAIL_BEYOND``
    samples beyond it after ``MIN_ROUNDS`` rounds of ``per_round`` ops.

    It depends only on the workload's round, not on how many rounds fit in
    a run, so runs of any speed estimate the same quantile (on deep and
    audit, p95: among the slowest few inputs' latencies).  Above p99
    the corpus tail measures rare scheduler and garbage-collector stalls.
    """
    for p in TAIL_PERCENTILES:
        if per_round * MIN_ROUNDS * (100 - p) >= 100 * TAIL_BEYOND:
            return p
    return TAIL_PERCENTILES[-1]


def tail(samples: list[float], percentile: int) -> float:
    """The nearest-rank ``percentile`` of ``samples``."""
    ordered = sorted(samples)
    rank = -(-len(ordered) * percentile // 100)   # ceil(n * percentile / 100)
    return ordered[rank - 1]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """One child process, waited for; returns (wall ms, result)."""
    start = time.perf_counter()
    done = subprocess.run(
        argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return (time.perf_counter() - start) * 1000, done


# --------------------------------------------------------------------------- the workload

class Bench:
    """One workload's inputs, their first outputs, and their judgements."""

    def __init__(self, workload: str, seed: int) -> None:
        import ops
        import workloads

        self.ops = ops
        self.full_verify = workload != "deep"
        self.cases = workloads.WORKLOADS[workload](seed)
        self.first = [self.run_case(case) for case in self.cases]   # warm-up round
        self.mismatches: list[str] = []

    def run_case(self, case):
        result, signature = self.ops.run_normalize(case.text)
        verdict = None if result is None else self.ops.run_verify(result, self.full_verify)
        return result, signature, verdict

    def check_repeat(self, i: int, signature, verdict) -> None:
        _, first_sig, first_verdict = self.first[i]
        if signature != first_sig or verdict != first_verdict:
            self.mismatches.append(f"{self.cases[i].name}: output changed between repeats")

    def judge(self):
        import reference

        self.judgements = []
        for case, (result, signature, verdict) in zip(self.cases, self.first):
            cover = tables = None
            if result is not None:
                cover = self.ops.plain_cover(result[1])
                tables = {2: self.ops.plain_tables(result[2]), 3: self.ops.plain_tables(result[3])}
            plain = None if verdict is None else self.ops.plain_verdict(verdict)
            self.judgements.append(reference.judge(case, signature, cover, tables, plain))

    def judged_ops(self) -> tuple[int, int]:
        """(ops, failed ops) of one round: each input's normalize op, and
        its verify op when normalize accepted it.  Every timed repeat of an
        op must reproduce that op's first output exactly, so these counts
        depend on the seed alone, not on how many rounds fit in a run."""
        ops = len(self.cases) + sum(r is not None for r, _, _ in self.first)
        return ops, sum(bool(j.normalize) + bool(j.verify) for j in self.judgements)

    def untracked_failures(self) -> list[str]:
        out = []
        for case, j in zip(self.cases, self.judgements):
            out += [f"{case.name}: {why}" for why, tracked in j.normalize + j.verify if not tracked]
        return out


def closed_loop(bench: Bench, seconds: float, min_rounds: int, tracer=None, between=None):
    """Whole rounds until ``seconds`` of op time have passed and at least
    ``min_rounds`` rounds are done.

    With a tracer, odd rounds are traced and even rounds are not, so both
    kinds of latency come from the same stretch of time.  ``between(t)``
    runs after each round, given the op time so far; its own time is left
    out of the run's wall time.
    """
    lat = {k: [] for k in ("normalize", "verify", "normalize_traced", "verify_traced")}
    restage_bad: list[str] = []
    rounds = 0
    aside = 0.0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        suffix = "_traced" if traced else ""

        def timed(kind: str, op, *args):
            root = tracer.open() if traced else None
            call = tracer.caller(root) if traced else bench.ops.direct
            t0 = time.perf_counter_ns()
            out = op(*args, call)
            t1 = time.perf_counter_ns()
            if traced:
                tracer.record(root, None, f"op.{kind}", t0, t1)
            lat[kind + suffix].append((t1 - t0) / 1e6)
            return out

        for i, case in enumerate(bench.cases):
            if traced:
                tracer.op += 1
            result, sig = timed("normalize", bench.ops.run_normalize, case.text)
            verdict = None
            if result is not None:
                if traced:
                    stage = tracer.open()
                    s0 = time.perf_counter_ns()
                    bad = bench.ops.restage(result[0], result[1], tracer.caller(stage))
                    tracer.record(stage, None, "restage", s0, time.perf_counter_ns())
                    restage_bad += [f"{case.name}: re-issued {name} differs from prepare's" for name in bad]
                verdict = timed("verify", bench.ops.run_verify, result, bench.full_verify)
            bench.check_repeat(i, sig, verdict)
        rounds += 1
        elapsed = time.perf_counter() - start - aside
        if between is not None:
            t0 = time.perf_counter()
            between(elapsed)
            aside += time.perf_counter() - t0
        if elapsed >= seconds and rounds >= min_rounds:
            break
    return lat, rounds, time.perf_counter() - start - aside, restage_bad


# --------------------------------------------------------------------------- child processes

class ColdStarts:
    """``python -m relnorm normalize <file> --nf 3 --ddl --verify`` for each
    bundled file, ``CLI_REPS`` times, one child at a time.  The children are
    spread evenly over the timed run, so that they see the same machine as
    the ops; each child's output must equal the same command run in-process.
    """

    def __init__(self, seconds: float) -> None:
        from relnorm import cli
        from relnorm.corpus import corpus_path
        from workloads import BUNDLED

        self.jobs = []
        for name in BUNDLED:
            args = ["normalize", str(corpus_path(name)), "--nf", "3", "--ddl", "--verify"]
            out = io.StringIO()
            code = cli.run(args, stdout=out, stderr=io.StringIO())
            self.jobs.append((name, args, code, out.getvalue()))
        self.jobs *= CLI_REPS
        self.seconds = seconds
        self.times: list[float] = []
        self.bad: list[str] = []
        run_child([sys.executable, "-m", "relnorm", "corpus", "list"])   # compile bytecode once

    def __call__(self, elapsed: float) -> None:
        """Run every child whose share of the run has come."""
        while len(self.times) < len(self.jobs) and elapsed >= len(self.times) * self.seconds / len(self.jobs):
            self.run_next()

    def run_next(self) -> None:
        name, args, code, expected = self.jobs[len(self.times)]
        ms, done = run_child([sys.executable, "-m", "relnorm", *args])
        self.times.append(ms)
        if done.returncode != code or done.stdout != expected:
            self.bad.append(f"CLI output for {name} differs from the in-process run")

    def mean_ms(self) -> float:
        """Mean wall time of the middle 80% of the children.

        Not a median: the children cost the same, and a shared host can
        alternate between two speeds for seconds at a time, so their median
        jumps between those speeds while this mean moves with the slow share.
        """
        while len(self.times) < len(self.jobs):
            self.run_next()
        cut = len(self.times) // 10
        return statistics.mean(sorted(self.times)[cut:len(self.times) - cut])


def setup_children(workload: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_CHILDREN):
        _, done = run_child([sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"])
        if done.returncode != 0:
            raise RuntimeError(f"setup child failed: {done.stderr.strip()}")
        out.append(float(done.stdout.split()[-1]))
    return out


def interpreter_and_import_ms() -> tuple[float, float]:
    bare = [run_child([sys.executable, "-c", "pass"])[0] for _ in range(CHILD_REPS)]
    probe = "import time; t = time.perf_counter(); import relnorm.cli; print(time.perf_counter() - t)"
    imports = [float(run_child([sys.executable, "-c", probe])[1].stdout) * 1000 for _ in range(CHILD_REPS)]
    return statistics.median(bare), statistics.median(imports)


def corpus_load_ms() -> float:
    """Median time of the bundled-corpus load that the corpus set-up makes."""
    import workloads

    runs = []
    for _ in range(5):
        t0 = time.perf_counter_ns()
        workloads.bundled_cases()
        runs.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(runs)


# --------------------------------------------------------------------------- reports

def census(bench: Bench) -> dict:
    """Input properties of one workload, measured on its generated inputs."""
    rows = [bench.ops.counts(r) for r, _, _ in bench.first if r is not None]
    js = bench.judgements
    n = len(js)

    def spread(values):
        values = [v for v in values if v is not None]
        return {"min": min(values), "median": statistics.median(values), "max": max(values)} if values else None

    return {
        "inputs": n,
        "attributes": spread([j.attrs for j in js]),
        "split_fds": spread([j.split_fds for j in js]),
        "cover_fds": spread([r["fd_engine.cover_fds"] for r in rows]),
        "max_width_2nf": spread([r["max_width_2nf"] for r in rows]),
        "max_width_3nf": spread([r["max_width_3nf"] for r in rows]),
        "tables_2nf": spread([r["normalizer.tables_2nf"] for r in rows]),
        "tables_3nf": spread([r["normalizer.tables_3nf"] for r in rows]),
        "share_key_is_superkey": sum(j.superkey is True for j in js) / n,
        "share_multivalued_or_composite": sum(bool(j.features) for j in js) / n,
        "share_expected_rejected": sum(j.expect_reject is not None for j in js) / n,
    }


STAGES = ("normalizer.flatten", "fd_engine.split_rhs", "fd_engine.minimal_cover",
          "schema_model.build", "normalizer.classify")


def per_op_ms(spans) -> dict[str, dict[int, float]]:
    """Self time per span name and op, in ms.  ``prepare``'s self time is
    its span less the stages re-issued after it."""
    out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    for _, _, op, name, start, end in spans:
        if not name.startswith(("op.", "restage")):
            out[name][op] += (end - start) / 1e6
    out["normalizer.prepare_self"] = {
        op: ms - sum(out[s].get(op, 0.0) for s in STAGES) for op, ms in out.pop("normalizer.prepare").items()
    }
    return out


LAYER_TIMES = (
    "schema_file.parse", "normalizer.flatten", "normalizer.prepare_self", "normalizer.classify",
    "normalizer.decompose_2nf", "normalizer.decompose_3nf", "fd_engine.split_rhs",
    "fd_engine.minimal_cover", "schema_model.build", "ddl.emit", "verifier.lossless",
    "verifier.preserve", "verifier.scan",
)


def layer_times(per_op) -> dict[str, float]:
    """Median self time per op that calls the layer, in ms (0 if none does)."""
    return {f"{name}_ms": statistics.median(per_op[name].values()) if per_op.get(name) else 0.0 for name in LAYER_TIMES}


def layer_totals(per_op) -> dict[str, float]:
    """Total self time per layer over the traced ops, in ms."""
    totals: dict[str, float] = defaultdict(float)
    for name, ops in per_op.items():
        totals[name.split(".")[0]] += sum(ops.values())
    return totals


def size_metrics(bench: Bench) -> dict[str, float]:
    """Sizes per op, from the inputs' first outputs (they repeat exactly)."""
    firsts = bench.first
    rows = [bench.ops.counts(r) for r, _, _ in firsts if r is not None]
    n = len(firsts)
    rejected = sum(r is None for r, _, _ in firsts)
    at_parse = sum(r is None and bench.ops.parse_rejects(c.text) for c, (r, _, _) in zip(bench.cases, firsts))

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    out = {
        "schema_file.lines": mean(len(c.text.splitlines()) for c in bench.cases),
        "schema_file.rejected": at_parse / n,
        "normalizer.rejected": (rejected - at_parse) / n,
    }
    for key in ("normalizer.flat_attrs", "normalizer.tables_2nf", "normalizer.tables_3nf",
                "fd_engine.split_fds", "fd_engine.cover_fds", "schema_model.nodes",
                "schema_model.slots", "ddl.statements", "ddl.bytes"):
        out[key] = mean(r[key] for r in rows)
    out["fd_engine.cover_kept_ratio"] = sum(r["fd_engine.cover_fds"] for r in rows) / max(
        1, sum(r["fd_engine.split_fds"] for r in rows)
    )
    out["verifier.max_table_width"] = mean(max(r["max_width_2nf"], r["max_width_3nf"]) for r in rows)
    out["verifier.violations"] = mean(
        sum(len(found) for _, _, found in v) for r, _, v in firsts if r is not None and v[0] != "error"
    )
    out["verifier.failed"] = sum(bool(j.verify) for j in bench.judgements) / max(1, len(rows))
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relnorm" / "__init__.py").is_file():
        print(f"error: no relnorm sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.census:
        out = {}
        for workload in ("corpus", "deep", "audit"):
            bench = Bench(workload, args.seed)
            bench.judge()
            out[workload] = census(bench)
        print(json.dumps({"seed": args.seed, "census": out}, indent=2))
        return 0

    bench = Bench(args.workload, args.seed)
    # The benchmark's own heap (inputs, first outputs) stays out of the
    # collections that timed ops trigger.
    gc.collect()
    gc.freeze()
    setup_main = time.perf_counter() - STARTED
    if args.setup_only:
        print(setup_main)
        return 0

    tracer = bench.ops.Tracer() if args.trace else None
    cold = ColdStarts(args.seconds) if not args.trace else None
    lat, rounds, wall, restage_bad = closed_loop(bench, args.seconds, 2 if args.trace else MIN_ROUNDS, tracer, cold)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = list(bench.mismatches) + restage_bad
    if not args.trace:
        cli_ms = cold.mean_ms()
        problems += cold.bad
        setups = [setup_main] + setup_children(args.workload, args.seed)
        norm_p = tail_percentile(len(bench.cases))
        ver_p = tail_percentile(sum(r is not None for r, _, _ in bench.first))
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "normalize_p50_ms": metric(statistics.median(lat["normalize"]), "ms"),
            "normalize_tail_ms": metric(tail(lat["normalize"], norm_p), "ms"),
            "verify_p50_ms": metric(statistics.median(lat["verify"]), "ms"),
            "verify_tail_ms": metric(tail(lat["verify"], ver_p), "ms"),
            "ops_per_s": metric((len(lat["normalize"]) + len(lat["verify"])) / wall, "1/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "cli_cold_ms": metric(cli_ms, "ms"),
        }
        print(f"setup runs (s): {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"normalize tail: p{norm_p} of {len(lat['normalize'])} samples")
        print(f"verify tail: p{ver_p} of {len(lat['verify'])} samples")
    else:
        interp_ms, import_ms = interpreter_and_import_ms()
        mem, two, single = [], [], []
        for r, _, _ in bench.first:
            if r is None:
                continue
            ratio, t_two, t_single, same = bench.ops.baseline_row(r[1])
            mem.append(ratio)
            two.append(t_two)
            single.append(t_single)
            if not same:
                problems.append(f"{r[1].flat.relation_name}: two-list classification differs from single-list")
        per_op = per_op_ms(tracer.spans)
        metrics = {k: metric(v, "ms") for k, v in layer_times(per_op).items()}
        metrics["baseline.classify_two_list_ms"] = metric(statistics.median(two), "ms")
        metrics["baseline.classify_speedup"] = metric(sum(two) / sum(single), "1")
        metrics["baseline.mem_ratio"] = metric(statistics.mean(mem), "1")
        metrics["cli.interpreter_ms"] = metric(interp_ms, "ms")
        metrics["cli.import_ms"] = metric(import_ms, "ms")
        metrics["corpus.load_ms"] = metric(corpus_load_ms(), "ms")
        overhead = statistics.median(lat["normalize_traced"]) - statistics.median(lat["normalize"])
        metrics["trace.overhead_ms"] = metric(overhead, "ms")
        total = sum(lat["normalize_traced"]) + sum(lat["verify_traced"])
        print(f"traced rounds: {rounds // 2} of {rounds}; spans: {len(tracer.spans)}")
        print(f"tracing overhead: {overhead:+.4f} ms on the median normalize op")
        print("self time per layer over traced ops:")
        for layer, ms in sorted(layer_totals(per_op).items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<14}{ms:12.2f} ms  {100 * ms / total:6.2f}%")
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"spans-{args.workload}.json"
        spans_file.write_text(json.dumps(tracer.spans), encoding="utf-8")
        print(f"spans written to {spans_file.relative_to(ROOT)}")

    bench.judge()
    timed = sum(len(v) for v in lat.values())
    attempted, failed = bench.judged_ops()
    problems += bench.untracked_failures()
    if args.trace:
        for key, value in size_metrics(bench).items():
            unit = "1" if key.endswith(("ratio", "rejected", "failed")) else "B" if key == "ddl.bytes" else "count"
            metrics[key] = metric(value, unit)
        metrics["failed_ratio"] = metric(failed / attempted, "1")

    for key, value in census(bench).items():
        print(f"census {key}: {json.dumps(value)}")
    for case, j in zip(bench.cases, bench.judgements):
        for why, tracked in j.normalize + j.verify:
            print(f"failed{'' if tracked else ' (untracked)'} {case.name}: {why}")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"rounds: {rounds}; timed ops: {timed}; judged ops: {attempted}; failed: {failed}; "
          f"failed_ratio: {failed / attempted:.4f}")
    for key, m in metrics.items():
        print(f"{key}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
