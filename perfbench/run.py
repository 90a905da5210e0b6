"""Pipeline benchmark for alphamargin: one workload per run, in one process.

Usage (from the repository root):
    python3 perfbench/run.py --workload train_alpha --seed 1 --seconds 25 --trace 0

The package is imported from ./src, with the BLAS pinned to one thread. The
run sets up its inputs from --seed several times (set-up time is the median),
then repeats passes of the workload for --seconds and checks every output.
Times are reported at reference speed (see calibrate.py). --trace 0 reports
the end-to-end metrics; --trace 1 alternates untraced and traced passes and
reports per-layer metrics from the spans. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A copy with the
environment stamp goes to .bench_work/results/, and the spans of a traced run
to .bench_work/traces/. See README.md.
"""

import os

# Pin the BLAS before numpy loads it: one closed-loop caller, one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import envstamp
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
SETUP_REPEATS = 9
MAX_REPORTED_FAILURES = 20


def load_package():
    """Import alphamargin from ./src, dropping any earlier import of it, so
    that each call pays the full import. Returns (package, import seconds)."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "alphamargin" or m.startswith("alphamargin.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    am = importlib.import_module("alphamargin")
    for name in ("backend", "core", "losses", "trainer", "evalkit", "synthdata", "cli"):
        importlib.import_module(f"alphamargin.{name}")
    seconds = time.perf_counter() - t0
    if src not in Path(am.__file__).resolve().parents:
        raise ImportError(f"alphamargin was imported from {am.__file__}, not from {src}")
    return am, seconds


def run_setups(workload, tracer, ref, repeats):
    """Import the package and set the workload up, `repeats` times, timing
    the reference kernel before each. Returns (wall seconds per set-up,
    per-set-up layer stats); the workload keeps the last import. Only the
    workload's set-up is traced, not the import."""
    times, stats = [], []
    for _ in range(repeats):
        ref.sample()
        workload.am, import_s = load_package()
        if tracer is not None:
            lo = tracer.mark()
            tracer.install()
        t0 = time.perf_counter()
        try:
            workload.setup()
        finally:
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        times.append(import_s + elapsed)
        if tracer is not None:
            stats.append(tracing.layer_stats(tracer.spans, lo))
    return times, stats


def run_passes(workload, seconds, tracer, ref):
    """Repeat passes for `seconds` after one warm-up pass, timing the
    reference kernel before every chunk of `workload.chunk` calls (see
    calibrate.py). Every pass is checked; the warm-up pass is not timed into
    the metrics. With a tracer, odd passes are traced and even ones are not.

    Returns a dict with the per-call wall times (s) of the timed untraced
    passes, the timed pass sums (s) keyed by traced flag, the layer stats of
    the traced passes, calls attempted, failed calls and failure messages.
    """
    out = {"latency_s": [], "pass_s": {False: [], True: []}, "stats": [],
           "attempted": 0, "failed": 0, "failures": []}
    start = time.perf_counter()
    n = 0
    while n < 3 or time.perf_counter() - start < seconds:
        traced = tracer is not None and n % 2 == 1
        calls = workload.pass_calls()
        outputs, latencies = [], []
        if traced:
            lo = tracer.mark()
            tracer.install()
        try:
            for i, call in enumerate(calls):
                if i % workload.chunk == 0:
                    ref.sample()
                t0 = time.perf_counter()
                try:
                    result = call()
                except Exception as exc:  # an untyped escape is a failed operation
                    result = exc
                latencies.append(time.perf_counter() - t0)
                outputs.append(result)
        finally:
            if traced:
                tracer.uninstall()
        out["attempted"] += len(calls)
        bad = [(i, f"{type(r).__name__}: {r}") for i, r in enumerate(outputs)
               if isinstance(r, Exception)]
        if not bad:
            try:
                bad = workload.check(outputs)
            except Exception as exc:  # output the check cannot read: every call failed
                bad = [(i, f"check raised {type(exc).__name__}: {exc}") for i in range(len(calls))]
        out["failed"] += len({i for i, _ in bad})
        out["failures"] += [msg for _, msg in bad]
        if n > 0:  # pass 0 is the warm-up
            out["pass_s"][traced].append(sum(latencies))
            if traced:
                out["stats"].append(tracing.layer_stats(tracer.spans, lo))
            elif tracer is None:
                out["latency_s"] += latencies
        n += 1
    return out


def quantile(values, q):
    """Inclusive-method quantile (q in percent) of the values."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_times, passes, scale):
    """Gated metrics, with times at reference speed."""
    return {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "op_ms_p50": (1e3 * quantile(passes["latency_s"], 50) * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def informational(passes, scale):
    """Timings printed and recorded but not gated: the p99, which has ten
    samples beyond it only on solve_single, and the raw wall-clock times."""
    lat = passes["latency_s"]
    return {
        "op_ms_p99": (1e3 * quantile(lat, 99) * scale, "ms"),
        "wall_op_ms_p50": (1e3 * quantile(lat, 50), "ms"),
        "wall_op_ms_p99": (1e3 * quantile(lat, 99), "ms"),
        "speed_scale": (scale, "ratio"),
    }


# Span names whose per-pass self time is reported, and those whose calls are too.
SELF_TIMES = (
    "backend.posterior_batch", "backend.posterior", "core.alpha_softargmax",
    "losses.fy_loss", "losses.batch_loss_and_cosine_grad", "losses.batch_posteriors",
    "trainer.loss_and_grads", "trainer.sgd_step", "trainer.train", "trainer.embed",
    "trainer.save_checkpoint", "trainer.load_checkpoint", "trainer.write_metrics_csv",
    "evalkit.sparsity_report", "evalkit.make_trials", "evalkit.score_trials",
    "evalkit.det_points", "evalkit.frr_at_far", "evalkit.write_det_csv",
    "synthdata.generate", "synthdata.save", "synthdata.load", "cli.main",
)
CALL_COUNTS = ("backend.posterior_batch", "backend.posterior", "trainer.loss_and_grads",
               "evalkit.frr_at_far")
COUNT_KEYS = ("calls", "rows", "entries", "nnz", "report_rows")


def _counts(stats):
    return {(name, key): s.get(key, 0.0) for name, s in stats.items() for key in COUNT_KEYS}


def per_layer(setup_stats, passes, scale):
    """Per-layer metrics for one set-up plus one pass: the median over the
    traced set-ups plus the median over the traced passes, with times at
    reference speed. Counts must repeat exactly between traced passes; a
    mismatch is a failure."""
    failures = []
    for group in (setup_stats, passes["stats"]):
        if any(_counts(s) != _counts(group[0]) for s in group[1:]):
            failures.append("trace: span counts differ between traced repetitions")

    def value(name, key):
        return sum(statistics.median([s[name][key] if name in s else 0.0 for s in group])
                   for group in (setup_stats, passes["stats"]) if group)

    m = {}
    for name in SELF_TIMES:
        m[f"{name}.self_s"] = (value(name, "self_s") * scale, "s")
    for name in CALL_COUNTS:
        m[f"{name}.calls"] = (value(name, "calls"), "count")
    rows = value("backend.posterior_batch", "rows")
    m["backend.posterior_batch.rows"] = (rows, "count")
    m["backend.posterior_batch.us_per_row"] = (
        1e6 * m["backend.posterior_batch.self_s"][0] / rows if rows else 0.0, "us")
    entries = value("backend.posterior_batch", "entries")
    m["backend.posterior_batch.nnz_frac"] = (
        value("backend.posterior_batch", "nnz") / entries if entries else 0.0, "ratio")
    m["backend.posterior_batch.report_rows_frac"] = (
        value("backend.posterior_batch", "report_rows") / rows if rows else 0.0, "ratio")
    calls = m["backend.posterior.calls"][0]
    m["backend.posterior.us_per_call"] = (
        1e6 * m["backend.posterior.self_s"][0] / calls if calls else 0.0, "us")
    m["evalkit.det_points.rows"] = (value("evalkit.det_points", "rows"), "count")
    plain = statistics.median(passes["pass_s"][False])
    traced = statistics.median(passes["pass_s"][True])
    m["trace.overhead_frac"] = (traced / plain - 1.0 if plain else 0.0, "ratio")
    return m, failures


def write_spans(spans, path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for name, start, end, parent, counters in spans:
            fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                 "parent": parent, "counters": counters}) + "\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time after the warm-up pass")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="input size; 'tiny' is the benchmark's own smoke-test size")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        am, _ = load_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package from src: {exc}", file=sys.stderr)
        return 2
    env = envstamp.stamp(am, ROOT)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    size = workloads.SIZES[args.size]
    try:
        workload = workloads.make(args.workload, am, workdir, args.seed, size)
        ref = calibrate.Reference()
        setup_times, setup_stats = run_setups(workload, tracer, ref, SETUP_REPEATS)
        passes = run_passes(workload, args.seconds, tracer, ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures, failed = passes["failures"], passes["failed"]
    scale = ref.scale()
    if args.trace:
        metrics, trace_failures = per_layer(setup_stats, passes, scale)
        failures += trace_failures
        failed += len(trace_failures)
        write_spans(tracer.spans, WORK / "traces" / f"{tag}.jsonl")
    else:
        metrics = end_to_end(setup_times, passes, scale)
    attempted = passes["attempted"]
    failed = min(failed, attempted)
    print(f"# workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# samples {len(passes['latency_s'])} timed operations, "
          f"{len(passes['pass_s'][False]) + len(passes['pass_s'][True])} timed passes, "
          f"{len(setup_times)} set-ups; times are at reference speed unless marked wall")
    extra = {} if args.trace else informational(passes, scale)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"# {name} = {value:.6g} {unit} (not gated)")
    print(f"# error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    for f in failures[:MAX_REPORTED_FAILURES]:
        print(f"# FAIL {f}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, size=args.size, env=env,
                  informational={name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
                  failures=failures[:MAX_REPORTED_FAILURES])
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
