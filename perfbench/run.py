#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the bhfix command line.

    python3 perfbench/run.py --workload cli-deep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One client sends the workload's seeded CLI requests one after
another (a closed loop) to ``bhfix.cli.main(argv)`` in this process.  Each
request builds a fresh ``Tower``, as a shell call does, and its exit code and
standard output are checked against a known answer.

The run repeats whole passes over the request list until ``--seconds`` have
passed (at least one).  ``--trace 0`` reports the end-to-end metrics, with
times scaled to a reference speed (see ``speed.py``).  ``--trace 1`` first
times one untraced pass, then wraps every public bhfix function (see
``tracing.py``) and reports per-layer metrics per pass.
The last line of standard output is one JSON object; the lines before it
say how the figures were obtained.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from speed import REFERENCE_S, SpeedLog  # noqa: E402
from tracing import MODULES, VERIFY_CHECKS, Tracer  # noqa: E402

LADDER = (99.9, 99, 95, 90, 50)
MIN_BEYOND = 10
IMPORTS_BEFORE = 9
IMPORTS_BETWEEN_PASSES = 4
# Wrappers add a Python frame to every recursive call (about one in six on
# the System.embed recursion); the traced run raises the recursion limit by
# this factor so that the same requests overflow (height ~125 either way).
TRACE_RECURSION_FACTOR = 1.2

# Figures ROADMAP.md gives for the seed commit, cross-checked in the output.
ROADMAP_BASELINE = {
    "import_ms": 65.0,
    "verify omega": 3.9,
    "verify sum(successor,omega)": 4.2,
    "enumerate omega (4,60) interned": 12149,
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import bhfix.cli."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import bhfix.cli; print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-s", "-c", code, str(SRC)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if done.returncode != 0:
        fail(f"importing bhfix.cli failed: {done.stderr.strip()}")
    return float(done.stdout)


def tail_level(n: int) -> float | None:
    """The highest ladder percentile with at least ten of the n requests
    beyond it; None when the list is too short for any (then the tail is the
    slowest request)."""
    for p in LADDER:
        if n - math.ceil(p / 100 * n) >= MIN_BEYOND:
            return p
    return None


def percentile(sorted_values: list[float], p: float | None) -> float:
    """Nearest-rank percentile; None means the largest value."""
    if p is None:
        return sorted_values[-1]
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_request(main, request) -> tuple[float, float, str]:
    """Start time, duration and verdict of one request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(request.argv)
        except Exception:  # an escaped exception is the shell's exit 1 with a traceback
            code = None
        dt = perf_counter() - t0
    verdict = workloads.ERROR if code is None else request.judge(code, out.getvalue())
    return t0, dt, verdict


def run_pass(main, requests, speed, tracer=None):
    results = []
    for request in requests:
        gc.collect()
        speed.maybe_sample()
        if tracer is not None:
            tracer.begin_request(request.label)
        result = run_request(main, request)
        if tracer is not None:
            tracer.end_request(result[1])
        results.append(result)
    speed.sample()
    return results


def sample_imports(count, speed) -> list[tuple[float, float]]:
    """(measured, scaled) fresh-interpreter import times of bhfix.cli."""
    samples = []
    for _ in range(count):
        speed.sample()
        t0 = perf_counter()
        samples.append((t0, fresh_import_s()))
    speed.sample()
    return [(s, s * speed.scale(t0, t0)) for t0, s in samples]


def pass_wall(requests, latencies) -> float:
    """Time to finish the list's requests; over-ceiling requests are scored
    by the failure share instead, so a fix that answers them is no slowdown."""
    return sum(dt for r, dt in zip(requests, latencies) if not r.over_ceiling)


def request_latencies(passes, speed) -> list[float]:
    """Each request's median over the passes of its time scaled to the
    reference speed; a request that failed in any pass counts as infinitely
    slow, so failures rank as slowest."""
    return [
        math.inf if any(p[i][2] != workloads.OK for p in passes)
        else statistics.median(p[i][1] * speed.scale(p[i][0], p[i][0] + p[i][1]) for p in passes)
        for i in range(len(passes[0]))
    ]


def run_passes(main, requests, seconds, imports, speed, tracer=None):
    """Whole passes while another one, as long as the slowest so far, still
    fits in ``seconds``; always at least one.  Between passes it adds to
    ``imports`` more fresh-interpreter import samples, so that their median
    spans the run rather than the few seconds before it."""
    passes = []
    start = perf_counter()
    longest = 0.0
    while not passes or perf_counter() - start + longest <= seconds:
        t0 = perf_counter()
        passes.append(run_pass(main, requests, speed, tracer))
        longest = max(longest, perf_counter() - t0)
        imports.extend(sample_imports(IMPORTS_BETWEEN_PASSES, speed))
    return passes


def end_to_end(requests, passes, speed, level):
    latencies = request_latencies(passes, speed)
    ranked = sorted(latencies)
    # The upper median: on short lists the two middle requests differ
    # tenfold, and the larger one alone is the steadier figure.
    p50 = statistics.median_high(ranked)
    tail = percentile(ranked, level)
    if math.isinf(p50) or math.isinf(tail):
        fail("the median or tail latency falls on a failed request")
    verdicts = [v for p in passes for _, _, v in p]
    return {
        "wall_s": (pass_wall(requests, latencies), "s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (verdicts.count(workloads.OK) / len(verdicts), "ratio"),
    }


def per_layer(tracer, requests, passes, untraced_wall, import_s):
    n = len(passes)
    totals: dict[str, list] = {}
    for span in tracer.spans:
        for name, (calls, self_s) in span.agg.items():
            rec = totals.setdefault(name, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
    reqs = tracer.requests

    def calls(name):
        return totals.get(name, [0, 0.0])[0] / n

    def self_s(name):
        return totals.get(name, [0, 0.0])[1] / n

    module_self = {
        m: sum(v[1] for k, v in totals.items() if k.startswith(m + ".")) / n for m in MODULES
    }
    all_self = sum(v[1] for v in totals.values()) / n
    token = module_self["dilator"] + module_self["standard_dilators"] + module_self["finite_orders"]
    deep = [(req, dt) for req, (_, dt, _) in zip(reqs, (x for p in passes for x in p))
            if requests[req.rid % len(requests)].deep]
    deep_s = sum(dt for _, dt in deep)
    compare_calls = totals.get("systems.compare", [0, 0.0])[0]
    ratios = [i / r for req in reqs for i, r in req.enumerations if r]
    metrics = {
        "finite_orders.embeddings": (calls("finite_orders.embeddings"), "count"),
        "dilator.compare_coded.calls": (calls("dilator.compare_coded"), "count"),
        "dilator.compare_coded.self_s": (self_s("dilator.compare_coded"), "s"),
        "standard_dilators.map_token.calls": (calls("standard_dilators.map_token"), "count"),
        "standard_dilators.compare_at.calls": (calls("standard_dilators.compare_at"), "count"),
        "dilator.enumerate_coded.self_s": (self_s("dilator.enumerate_coded"), "s"),
        "systems.carrier_enumerate.self_s": (self_s("systems.carrier_enumerate"), "s"),
        "systems.interned_terms": (sum(r.interned for r in reqs) / n, "count"),
        "systems.interned_per_returned": (max(ratios, default=0.0), "ratio"),
        "systems.compare.calls": (calls("systems.compare"), "count"),
        "systems.compare.self_s": (self_s("systems.compare"), "s"),
        "systems.compare.memo_hit_ratio": (
            sum(r.memo_hits for r in reqs) / compare_calls if compare_calls else 0.0, "ratio"),
        "systems.compare.max_depth": (max(r.max_depth for r in reqs), "count"),
        "systems.embed.calls": (calls("systems.embed"), "count"),
        "limits.lift.self_s": (self_s("limits.lift"), "s"),
        "limits.inject.self_s": (self_s("limits.inject"), "s"),
        "limits.compare.self_s": (self_s("limits.compare"), "s"),
        "limits.enumerate.self_s": (self_s("limits.enumerate"), "s"),
        "limits.lift_embed.deep_compare_share": (
            sum(req.remap_s for req, _ in deep) / deep_s if deep_s else 0.0, "ratio"),
        "interpret.embed_bh.self_s": (self_s("interpret.embed_bh"), "s"),
        "interpret.interpret_term.calls": (calls("interpret.interpret_term"), "count"),
        **{f"verify.{c}.self_s": (self_s(f"verify.{c}"), "s") for c in sorted(VERIFY_CHECKS)},
        "systems.memo_entries": (max(r.system_memo for r in reqs), "count"),
        "limits.memo_entries": (max(r.tower_memo for r in reqs), "count"),
        "syntax.parse_bh.self_s": (self_s("syntax.parse_bh"), "s"),
        "syntax.format_bh.self_s": (self_s("syntax.format_bh"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.import_s": (import_s, "s"),
        **{f"{m}.self_s": (module_self[m], "s") for m in MODULES},
        "token_path.self_share": (token / all_self if all_self else 0.0, "ratio"),
        "trace.overhead_ratio": (
            pass_wall(requests, [dt for _, dt, _ in passes[0]]) / untraced_wall, "ratio"),
    }
    return metrics, module_self, all_self


def label_medians(requests, passes) -> dict[str, float]:
    by_label: dict[str, list[float]] = {}
    for results in passes:
        for r, (_, dt, _) in zip(requests, results):
            by_label.setdefault(r.label, []).append(dt)
    return {k: statistics.median(v) for k, v in by_label.items()}


def compare_baseline(what: str, measured: float, key: str, unit: str) -> None:
    ref = ROADMAP_BASELINE[key]
    print(f"# baseline check: {what} = {measured:.6g} {unit}; ROADMAP.md: {ref:g} {unit} "
          f"({(measured - ref) / ref:+.0%})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "bhfix" / "cli.py").is_file():
        fail(f"no bhfix sources under {SRC}; run from the root of a bhfix checkout")

    # Input generation comes first and is not part of the set-up time.
    sys.path.insert(0, str(SRC))
    requests = workloads.build(args.workload, args.seed)
    level = tail_level(len(requests))

    speed = SpeedLog()
    fresh_import_s()  # writes the bytecode cache, so every sample is warm
    imports = sample_imports(IMPORTS_BEFORE, speed)
    import bhfix
    import bhfix.cli

    if Path(bhfix.__file__).resolve().parent != (SRC / "bhfix").resolve():
        fail(f"imported bhfix from {bhfix.__file__}, not from {SRC}")
    main_fn = bhfix.cli.main
    # Untraced, nothing else happens before the first request: the in-process
    # import repeats the work the fresh-interpreter samples measure.
    in_process_s = 0.0
    tracer = None
    if args.trace:
        untraced = run_pass(main_fn, requests, speed)
        untraced_wall = pass_wall(requests, [dt for _, dt, _ in untraced])
        t0 = perf_counter()
        tracer = Tracer()
        bindings = tracer.install()
        sys.setrecursionlimit(int(sys.getrecursionlimit() * TRACE_RECURSION_FACTOR))
        in_process_s = perf_counter() - t0
        main_fn = bhfix.cli.main
        print(f"# tracer wrapped {bindings} bindings in {in_process_s * 1e3:.1f} ms")

    passes = run_passes(main_fn, requests, args.seconds, imports, speed, tracer)
    import_s = statistics.median(scaled for _, scaled in imports)
    attempted = sum(len(p) for p in passes)
    verdicts = [v for p in passes for _, _, v in p]
    wrong = verdicts.count(workloads.WRONG)
    failed = attempted - verdicts.count(workloads.OK)
    over = sum(r.over_ceiling for r in requests) * len(passes)

    print(f"# workload {args.workload}, seed {args.seed}: {len(requests)} requests per pass, "
          f"{len(passes)} passes, {attempted} requests, one closed-loop client")
    print(f"# failed {failed} (wrong answers {wrong}); over-ceiling requests {over}")
    raw_import_s = statistics.median(measured for measured, _ in imports)
    print(f"# reference work: median {speed.median_s() * 1e3:.2f} ms over "
          f"{len(speed.seconds)} samples (reference speed: {REFERENCE_S * 1e3:g} ms)")
    print(f"# fresh-interpreter import of bhfix.cli: median of {len(imports)}: "
          f"{raw_import_s * 1e3:.1f} ms measured, {import_s * 1e3:.1f} ms scaled")
    compare_baseline("import bhfix.cli (measured)", raw_import_s * 1e3, "import_ms", "ms")
    medians = label_medians(requests, passes)
    for label, med in sorted(medians.items(), key=lambda kv: -kv[1]):
        print(f"#   median {med * 1e3:10.2f} ms measured  {label}")

    if args.trace:
        metrics, module_self, all_self = per_layer(tracer, requests, passes, untraced_wall, import_s)
        print(f"# traced {len(passes)} passes; untraced pass {untraced_wall:.3f} s; "
              f"{len(tracer.spans)} spans kept")
        for m, s in sorted(module_self.items(), key=lambda kv: -kv[1]):
            print(f"#   layer {m:18s} self {s:9.4f} s per pass ({s / all_self:6.1%})")
        for req in tracer.requests[: len(requests)]:
            if req.label == "enumerate omega (4,60)":
                compare_baseline("enumerate omega (4,60) interned terms", req.interned,
                                 "enumerate omega (4,60) interned", "terms")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "requests": [{"id": r.rid, "label": r.label, "interned": r.interned,
                          "max_depth": r.max_depth, "remap_s": r.remap_s}
                         for r in tracer.requests],
            "spans": [s.to_json() for s in tracer.spans],
        }))
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(requests, passes, speed, level)
        metrics["setup_s"] = (import_s + in_process_s, "s")
        tail = "the slowest" if level is None else f"p{level:g}"
        print(f"# times scaled to the reference speed; latencies are each request's "
              f"median of {len(passes)} passes; latency_tail_ms is {tail} of "
              f"{len(requests)} requests")
        print(f"# measured wall time of the passes: "
              + ", ".join(f"{pass_wall(requests, [dt for _, dt, _ in p]):.3f}" for p in passes)
              + " s")
        for label in ("verify omega", "verify sum(successor,omega)"):
            if label in medians:
                compare_baseline(f"{label} entry (measured)", medians[label], label, "s")

    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
