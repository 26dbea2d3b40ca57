"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_corpus --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a traced
pass, replays every op layer by layer, writes the span tree to
``.perfbench_out/spans-<workload>-<seed>.json`` and prints the
per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the metrics and workloads.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: every round issues at least this many ops, so the latency p90 has ten
#: samples beyond it; a traced run traces this many
MIN_OPS = 100

#: the import timing is repeated this many times, in fresh interpreters,
#: before the ops and again after them
IMPORT_REPS = 3

IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import repro, repro.engine, repro.store, repro.core\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("answered_frac", "ratio"),
)


def pinned_environment():
    """This process's environment without any ``REPRO_*`` knob, with
    ``src`` importable; applied to ``os.environ`` before ``repro`` is
    imported, and inherited by the import probes."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit("error: %s holds no repro package" % src)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    sys.path[:0] = [src, ROOT]


def import_times():
    """Times of importing ``repro`` in fresh interpreters, scaled as op
    latencies are (``workloads.scale``)."""
    from perfbench import workloads

    times = []
    for _ in range(IMPORT_REPS):
        before = workloads.probe()
        output = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        ).stdout
        times.append(workloads.scale(float(output.split()[-1]), before, workloads.probe()))
    return times


def git_commit():
    """The checked-out commit, read from ``.git`` without running git
    (the benchmark may run outside any repository)."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "kernel": "csr",
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args, store_root):
    from perfbench import workloads

    imports = import_times()
    rounds = workloads.run_rounds(args.workload, args.seed, args.seconds, store_root)
    rss = peak_rss_mb()
    # The import is timed again after the ops, so its median draws on
    # two moments of the run and not on the host's speed at its start
    # alone; the set-up is timed in every round.
    imports = statistics.median(imports + import_times())
    metrics = workloads.summarize(rounds, imports, rss)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    disagreeing = [
        index
        for index, r in enumerate(rounds)
        if r.workload.op_answers != rounds[0].workload.op_answers
    ]
    first = rounds[0].workload
    print("rounds: %d of %d ops (latency samples: scaled, mean of the rounds)" % (
        len(rounds), len(rounds[0].latencies)))
    print("op time per round (s): %s" % ", ".join(
        "%.2f" % sum(r.latencies) for r in rounds))
    print("scaled op time per round (s): %s" % ", ".join(
        "%.2f" % sum(r.scaled()) for r in rounds))
    probes = [t for r in rounds for pair in r.probes for t in pair]
    print("host slowdown (median probe / nominal): %.3f" % (
        statistics.median(probes) / workloads.PROBE_NOMINAL_S))
    print("unscaled latency p50 / p90 (ms): %.4f / %.4f" % tuple(
        1000.0 * q for q in _p50_p90(workloads.op_latencies(rounds, scaled=False))))
    print("setup per round (s): %s" % ", ".join("%.4f" % r.setup_s for r in rounds))
    print("import (s): %.4f" % imports)
    print("failed_frac: %.6f (%d of %d queries)" % (failed / attempted, failed, attempted))
    print("executables with a stale stmt_map: %d" % first.stale_maps)
    print("inputs digest: %s" % first.inputs.hexdigest())
    print("answers digest: %s" % first.answers.hexdigest())
    if disagreeing:
        print("rounds whose answers differ from round 0's: %s" % disagreeing)
    for name, unit in END_TO_END:
        print("%-16s %14.4f %s" % (name, metrics[name], unit))
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    return attempted, failed, metrics, not disagreeing


def _p50_p90(latencies):
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def run_traced(args, store_root):
    from perfbench import tracing, workloads

    # An untraced round first, then its first ops again, traced, on a
    # fresh workload: the difference in op time over those ops is the
    # tracing overhead (replay and oracle are outside both timings).
    # The untraced pass goes first so the traced pass's spans and
    # replay state do not weigh on its heap.
    plain = workloads.run_pass(
        args.workload, args.seed, None, tracing.NullRecorder(), store_root
    )
    ops = MIN_OPS
    plain.workload.drop_setup()
    gc.collect()
    recorder = tracing.Recorder()
    traced = workloads.run_pass(args.workload, args.seed, ops, recorder, store_root)
    traced_s = sum(traced.latencies) / ops
    plain_s = sum(plain.latencies[:ops]) / ops
    overhead = traced_s - plain_s
    workload = traced.workload
    values = tracing.layer_metrics(
        recorder,
        ops,
        workload.ratio_counts,
        workload.store_bytes,
        overhead,
        workload.replayer.mismatches,
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(
        OUT_DIR, "spans-%s-%d.json" % (args.workload, args.seed)
    )
    recorder.write(spans_path, metadata(args))
    print("ops: %d traced, %d untraced" % (ops, len(plain.latencies)))
    print(
        "op time over the traced ops (s/op): traced %.4f, untraced %.4f, "
        "tracing overhead %.4f (%.1f%%)"
        % (traced_s, plain_s, overhead, 100.0 * overhead / plain_s)
    )
    print("inputs digest: %s (untraced %s)" % (
        workload.inputs.hexdigest(), plain.workload.inputs.hexdigest()))
    print("answers digest: %s (untraced %s)" % (
        workload.answers.hexdigest(), plain.workload.answers.hexdigest()))
    print("spans: %d written to %s" % (len(recorder.spans), spans_path))
    print("%-12s %5s %16s %18s" % ("op class", "ops", "latency (s/op)", "saturation (s/op)"))
    table = tracing.class_table(recorder, traced.latencies, workload.op_classes)
    for op_class, (count, latency, saturation) in sorted(table.items()):
        print("%-12s %5d %16.4f %18.4f" % (op_class, count, latency, saturation))
    print("%-34s %14s  %s" % ("layer metric (self time)", "value", "unit"))
    spec = tracing.per_layer_spec()
    for name, unit in spec:
        print("%-34s %14.6f  %s" % (name, values[name], unit))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    consistent = (
        workload.replayer.mismatches == 0
        and workload.answers.hexdigest() == plain.workload.answers.hexdigest()
    )
    attempted = plain.attempted + traced.attempted
    return attempted, plain.failed + traced.failed, metrics, consistent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pinned_environment()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)" % (
            args.workload, ", ".join(sorted(workloads.WORKLOADS))))
    print("run: %s" % json.dumps(metadata(args), sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    store_root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    started = time.perf_counter()
    try:
        measure = run_traced if args.trace else run_untraced
        attempted, failed, metrics, consistent = measure(args, store_root)
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    print("wall (s): %.1f" % (time.perf_counter() - started))
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
