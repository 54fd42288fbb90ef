"""Benchmark of the mixed-milnor CLI: one client, closed loop, in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload {search,probe,exact,all} --seed N \
        --seconds S --trace {0,1}

``--workload all`` runs the three workloads one after another, each in its
own process, and ends with one table of their metrics and failure shares.

Each request goes through ``mixedmilnor.cli.main([..., "--json"])`` with
stdout captured; the next request starts only after the previous one has
returned, and BLAS is pinned to one thread, so nothing queues and nothing
runs concurrently.  A workload is a seeded pool of requests
(``workloads.py``); one pass runs the whole pool in its seeded order.

--trace 0  runs whole passes while another one fits in ``--seconds`` (at
           least one) and reports the end-to-end metrics: requests_per_s,
           latency_p50_ms, latency_p90_ms, setup_s, peak_rss_mb.
--trace 1  runs one untraced pass, then one pass with every layer wrapped
           by ``tracing.py``, and reports the per-layer metrics of the
           traced pass (totals over one pass of the pool) plus
           trace.overhead_share, the traced over the untraced pass time.

Set-up (import, pool generation, warm-up) is timed in this process and in
two fresh child processes; setup_s is the median of the three.  Every
report is checked outside the timed region (``checks.py``); a request fails
when its check does.  Requests named in ``workloads.KNOWN_DEFECTS`` leave
without a JSON report at the commit this benchmark was written against;
they count as failed and are reported by name, and ``correct`` stays true
only while every failure is one of them failing that way.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A run record and, for traced runs, the spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import workloads

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schema" / "report.json"
OUT = HERE / "out"
SETUP_CHILDREN = 2

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def call(cli, argv):
    """One request; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main([*argv, "--json"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is this request's failure, not the run's
            code = f"crash {type(exc).__name__}"
            traceback.print_exc(file=err)
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def setup(workload, seed):
    """Import the package, build the pool and warm up; returns (seconds, cli, pool)."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    from mixedmilnor import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported mixedmilnor from {cli.__file__}, not from {SRC}")
    pool = workloads.build(workload, seed)
    for argv in workloads.WARMUP[workload]:
        call(cli, argv)
    return perf_counter() - start, cli, pool


def child_setup_seconds(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(cli, pool, first, nondeterministic, latencies, tracer=None):
    """Send every request of the pool once, in order."""
    for i, req in enumerate(pool):
        if tracer is not None:
            tracer.request_id = i
        code, out, err, elapsed = call(cli, req.argv)
        latencies.append(elapsed)
        if i not in first:
            first[i] = (code, out, err)
        elif first[i][:2] != (code, out):
            nondeterministic.add(i)


def check_outputs(checker, pool, outputs, nondeterministic):
    """{pool index: reason} for every request whose report fails its check."""
    reasons = {}
    for i, (code, out, err) in outputs.items():
        reason = checker.check(pool[i], code, out, err, key=i)
        if reason is None and i in nondeterministic:
            reason = "report differs between passes of the same request"
        if reason:
            reasons[i] = reason
    for i, reason in checker.cross_check():
        reasons.setdefault(i, reason)
    return reasons


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, stats, requests):
    per_name, per_layer = tracer.summary()
    counters = tracer.counters

    def calls(name):
        return per_name.get(name, (0, 0.0, 0.0))[0]

    def seconds(name):
        return per_name.get(name, (0, 0.0, 0.0))[1]

    def per_call_us(name):
        return seconds(name) / calls(name) * 1e6 if calls(name) else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    # verdicts that ran a search: the distinct face functions each nondeg
    # request searched, and the tame faces no symbolic certificate settled.
    # degeneracy.starts and objective_evals count every scipy minimize call
    # degeneracy makes: multistart starts, the polish after each search and
    # the rho-probe starts of tame faces.
    verdicts = stats["nondeg.searches"] + stats["tame.faces"] - stats["tame.faces_symbolic"]
    m = {
        "cli.self_ms_per_request": (per_layer["cli"] / requests * 1e3, "ms", "lower"),
        "poly.parse_poly.calls": (calls("poly.parse_poly"), "count", "lower"),
        "poly.parse_poly.s": (seconds("poly.parse_poly"), "s", "lower"),
        "poly.evaluate.calls": (calls("poly.evaluate"), "count", "lower"),
        "poly.evaluate.s": (seconds("poly.evaluate"), "s", "lower"),
        "poly.gradients.calls": (calls("poly.gradients"), "count", "lower"),
        "poly.gradients.s": (seconds("poly.gradients"), "s", "lower"),
        "poly.evaluate_many.points": (counters["poly.evaluate_many.points"], "count", "lower"),
        "poly.evaluate_many.s": (seconds("poly.evaluate_many"), "s", "lower"),
        "poly.real_imag_parts.calls": (calls("poly.real_imag_parts"), "count", "lower"),
        "poly.polys_built": (counters["poly.polys_built"], "count", "lower"),
        "lattice.newton_faces.calls": (calls("lattice.newton_faces"), "count", "lower"),
        "lattice.newton_faces.s": (seconds("lattice.newton_faces"), "s", "lower"),
        "lattice.newton_faces.faces_out": (counters["lattice.newton_faces.faces_out"], "count", "lower"),
        "lattice.nullspace.calls": (calls("lattice.nullspace"), "count", "lower"),
        "lattice.normalized_volume.s": (seconds("lattice.normalized_volume"), "s", "lower"),
        "newton.all_faces.calls_per_request": (calls("newton.all_faces") / requests, "calls/request", "lower"),
        "newton.all_faces.s": (seconds("newton.all_faces"), "s", "lower"),
        "newton.vanishing_subsets.s": (seconds("newton.vanishing_subsets"), "s", "lower"),
        "newton.top_faces.s": (seconds("newton.top_faces"), "s", "lower"),
        "degeneracy.starts": (counters["degeneracy.starts"], "count", "lower"),
        "degeneracy.objective_evals": (counters["degeneracy.objective_evals"], "count", "lower"),
        "degeneracy.evals_per_verdict": (ratio(counters["degeneracy.objective_evals"], verdicts),
                                         "evals/verdict", "lower"),
        "degeneracy.criticality_residual.us_per_call": (per_call_us("degeneracy.criticality_residual"),
                                                        "us", "lower"),
        "degeneracy.falsify_nondegeneracy.s": (seconds("degeneracy.falsify_nondegeneracy"), "s", "lower"),
        "degeneracy.local_tameness_check.s": (seconds("degeneracy.local_tameness_check"), "s", "lower"),
        "degeneracy.witness_yield": (ratio(stats["planted.verified"], stats["planted.faces"]), "ratio", "higher"),
        "degeneracy.symbolic_share": (ratio(stats["tame.faces_symbolic"], stats["tame.faces"]), "ratio", "higher"),
        "arcs.transversality_scan.s": (seconds("arcs.transversality_scan"), "s", "lower"),
        "arcs.transversality.draws": (stats["transversality.draws"], "count", "lower"),
        "arcs.transversality.accept_ratio": (ratio(stats["transversality.accepted"], stats["transversality.draws"]),
                                             "ratio", "higher"),
        "arcs.transversality_residual.us_per_call": (per_call_us("arcs.transversality_residual"), "us", "lower"),
        "arcs.boundary_openness_probe.s": (seconds("arcs.boundary_openness_probe"), "s", "lower"),
        "arcs.limit_tangent.calls": (calls("arcs.limit_tangent"), "count", "lower"),
        "arcs.limit_tangent.s": (seconds("arcs.limit_tangent"), "s", "lower"),
        "zeta.zeta_function.s": (seconds("zeta.zeta_function"), "s", "lower"),
        "zeta.expand_zeta.s": (seconds("zeta.expand_zeta"), "s", "lower"),
        "constructors.s": (per_layer["constructors"], "s", "lower"),
    }
    for layer in ("cli", "poly", "lattice", "newton", "degeneracy", "arcs", "zeta", "scipy"):
        m[f"{layer}.self_s"] = (per_layer[layer], "s", "lower")
    return m


def run_record(workload, seed, mode, pool, passes, attempted):
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "mixedmilnor").glob("*.py")))
    threads = None
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "process_threads": threads,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "pool_requests": len(pool),
        "passes": passes,
        "requests": attempted,
        "src_lines": src_lines,
    }


def run_all(args):
    """Every workload in turn, each in its own process; prints one table."""
    rows = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        print(proc.stdout, end="")
        rows[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':10s} {'requests':>9s} {'failed_share':>13s}  metrics")
    for workload, row in rows.items():
        metrics = "  ".join(f"{name}={m['value']:.6g} {m['unit']}" for name, m in row["metrics"].items())
        print(f"{workload:10s} {row['attempted']:9d} {row['failed'] / row['attempted']:13.4f}  {metrics}")
    print(json.dumps(rows))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # one BLAS/OpenMP thread: numpy is first imported by the package during
    # set-up, here and in the set-up children, which inherit this environment
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "mixedmilnor" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no package source under {SRC} or no schema at {SCHEMA}", file=sys.stderr)
        return 2
    if args.setup_only:
        seconds, _, _ = setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    if args.workload == "all":
        return run_all(args)

    own_setup, cli, pool = setup(args.workload, args.seed)
    setup_samples = [own_setup]
    if not args.trace:
        setup_samples += [child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]

    schema = json.loads(SCHEMA.read_text())
    first, nondeterministic, latencies = {}, set(), []
    passes = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        run_pass(cli, pool, first, nondeterministic, latencies)
        passes += 1
        now = perf_counter()
        if args.trace or now - start + (now - pass_start) > args.seconds:
            break
    wall = perf_counter() - start
    rss = peak_rss_mb()
    attempted = passes * len(pool)
    reasons = check_outputs(checks.Checker(schema), pool, first, nondeterministic)

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = {}
        traced_start = perf_counter()
        run_pass(cli, pool, traced, set(), [], tracer=tracer)
        traced_wall = perf_counter() - traced_start
        traced_checker = checks.Checker(schema)
        check_outputs(traced_checker, pool, traced, set())
        for i, output in traced.items():
            if output[:2] != first[i][:2]:
                reasons.setdefault(i, "traced report differs from the untraced one")
        per_layer = layer_metrics(tracer, traced_checker.stats, len(pool))
        per_layer["trace.overhead_share"] = (traced_wall / wall, "ratio", "lower")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in per_layer.items()}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        values = {
            "requests_per_s": attempted / wall,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": rss,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    failed = len(reasons) * passes
    # a known defect is expected only in the way it was known to fail: it
    # leaves without a JSON report; any other failure of it is a real one
    expected = {i for i, reason in reasons.items()
                if pool[i].label in workloads.KNOWN_DEFECTS and reason.startswith("no JSON report")}
    failures = {f"{pool[i].label} [{i}]": reason for i, reason in sorted(reasons.items())}
    correct = set(reasons) == expected
    record = run_record(args.workload, args.seed, "traced" if args.trace else "end-to-end", pool, passes, attempted)
    record.update({
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": failures,
        "setup_samples_s": setup_samples,
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"record-{args.workload}-{record['mode']}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  {record['mode']}  passes {passes}  "
          f"requests {attempted}  failed {failed}  failed_share {failed / attempted:.4f}")
    for i, reason in sorted(reasons.items()):
        tag = "known defect" if i in expected else "FAILED"
        print(f"  {tag}: {pool[i].label}: {reason}")
    for name, metric in metrics.items():
        print(f"  {name:45s} {metric['value']:14.6g} {metric['unit']}")
    print("  run record: " + json.dumps({k: record[k] for k in (
        "python", "numpy", "scipy", "nproc", "process_threads", "blas_threads", "pool_requests", "src_lines")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
