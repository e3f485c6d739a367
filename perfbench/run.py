"""Closed-loop benchmark of rbkernel: one client, one op at a time, in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {certify,scan,identity,all} \\
        --seed N --seconds S --trace {0,1}

Every op is a call of the public entry point ``rbkernel.cli.main(argv)``
with argv lists generated from the seed.  BLAS and OpenMP pools are pinned
to one thread before numpy is first imported: two OpenBLAS threads speed up
the large SVD but slow and scatter the Python-bound layers next to it.

``--trace 0`` measures the end-to-end metrics.  The shared host's speed
drifts in phases longer than a run, so each op is bracketed by runs of a
reference probe with the same mix of work (bench_probe.py), and its time is
rescaled to the probe's reference speed; ``op_p50_ref_s`` is the median of
those times; the raw times are recorded in the result file.  ``setup_s``
runs from before ``import rbkernel`` through input generation and one
untimed warm-up op, which fills the lazy caches; it is taken in fresh
processes and reported as their median, not rescaled (NOTES.md says why).
``--trace 1`` alternates untraced and traced ops on the same inputs and
reports per-layer medians per op (see bench_trace.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit, and a result file under ``.bench_results/``
records the environment, the seed and the digest of the inputs.  Without
rbkernel sources under ``src/`` the run exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import bench_workloads as bw
from bench_probe import probe_for

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / ".bench_results"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A fresh process's set-up time scatters by up to 2x (identity: 0.13-0.26 s),
# so it is taken this many times, each in a fresh process, and reported as
# the median.
SETUP_SAMPLES = 5

# A tail percentile is reported only with at least this many ops beyond it.
TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)

# Per-layer metrics of a traced run: (metric, layer, field, unit).
LAYER_METRICS = [
    ("riccati.calls", "riccati", "calls", "count"),
    ("riccati.self_s", "riccati", "self_s", "s"),
    ("operator.svd.calls", "operator.svd", "calls", "count"),
    ("operator.svd.self_s", "operator.svd", "self_s", "s"),
    ("operator.svd.order_max", "operator.svd", "size_max", "count"),
    ("operator.nystrom.calls", "operator.nystrom", "calls", "count"),
    ("operator.nystrom.self_s", "operator.nystrom", "self_s", "s"),
    ("operator.apply.calls", "operator.apply", "calls", "count"),
    ("operator.apply.self_s", "operator.apply", "self_s", "s"),
    ("operator.grid.calls", "operator.grid", "calls", "count"),
    ("operator.grid.self_s", "operator.grid", "self_s", "s"),
    ("operator.sweep.self_s", "operator.sweep", "self_s", "s"),
    ("counterexample.verify.self_s", "counterexample.verify", "self_s", "s"),
    ("counterexample.check_identity.self_s", "counterexample.check_identity", "self_s", "s"),
    ("counterexample.find_root.self_s", "counterexample.find_root", "self_s", "s"),
    ("counterexample.p_evals", "counterexample.p", "calls", "count"),
    ("kernel.solve_gamma.self_s", "kernel.solve_gamma", "self_s", "s"),
    ("cli.self_s", "cli", "self_s", "s"),
    ("report.serialize_s", "report.serialize", "self_s", "s"),
]


def pin_threads() -> None:
    for name in THREAD_VARS:
        os.environ[name] = "1"


# (thread-count, config) entry points of OpenBLAS builds: numpy's wheel, plain.
_OPENBLAS_QUERIES = [("scipy_openblas_get_num_threads64_", "scipy_openblas_get_config64_"),
                     ("openblas_get_num_threads", "openblas_get_config")]


def _openblas_runtime() -> dict:
    """Thread count and config string reported by numpy's OpenBLAS, if it has one."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    # already loaded, so this maps no new file; dlsym also searches its dependencies
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return {}
    for threads_name, config_name in _OPENBLAS_QUERIES:
        get_threads = getattr(lib, threads_name, None)
        get_config = getattr(lib, config_name, None)
        if get_threads is None or get_config is None:
            continue
        get_threads.restype, get_threads.argtypes = ctypes.c_int, []
        get_config.restype, get_config.argtypes = ctypes.c_char_p, []
        return {"blas_threads": get_threads(),
                "blas_config": get_config().decode(errors="replace")}
    return {}


def environment() -> dict:
    import numpy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    build = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    env["blas_config"] = build.get("openblas configuration", build.get("name"))
    env.update(_openblas_runtime())
    return env


@dataclass
class Setup:
    cli: object
    inputs: list
    warm_problem: str | None
    setup_s: float
    peak_rss_mb: float


def set_up(workload: str, seed: int) -> Setup:
    """Import, generate inputs and run one untimed warm-up op.

    The peak RSS is read here, before the probe exists, so that it is the
    program's own: import plus one op, of the same sizes as every later op.
    """
    start = time.perf_counter()
    cli = bw.import_program(ROOT)
    inputs = bw.make_inputs(workload, seed)
    warm_argv = bw.warm_up_input(inputs)
    warm = bw.run_op(cli.main, warm_argv)
    setup_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Setup(cli, inputs, bw.check(workload, warm_argv, warm), setup_s, peak_rss_mb)


def sample_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0", "--setup-sample"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def tail(samples: list[float]) -> dict | None:
    """The highest listed percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = int(pct / 100.0 * n)  # samples at or below the percentile
        if n - rank >= TAIL_BEYOND and rank >= 1:
            return {"value": ordered[rank - 1], "unit": "s", "percentile": pct,
                    "samples": n, "beyond": n - rank}
    return None


def measure(cli, workload, inputs, seconds, probe):
    """Closed loop for ``seconds``, each op between two probe runs.

    Returns every op's raw time, its time at the probe's reference speed
    (rescaled by the geometric mean of the probes before and after it), every
    probe time and the failures.
    """
    times, ref_times, probe_times, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    probe_times.append(probe.seconds())
    i = 0
    while True:
        argv = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        result = bw.run_op(cli.main, argv)
        elapsed = time.perf_counter() - t0
        probe_times.append(probe.seconds())
        times.append(elapsed)
        ref_times.append(probe.to_reference(elapsed, math.sqrt(probe_times[-2] * probe_times[-1])))
        problem = bw.check(workload, argv, result)
        if problem is not None:
            failures.append(problem)
        i += 1
        if time.perf_counter() >= deadline:
            return times, ref_times, probe_times, failures


def measure_traced(cli, workload, inputs, seconds):
    """Pairs of one untraced and one traced op on the same input."""
    from bench_trace import Tracer, layer_totals

    tracer = Tracer()

    def traced_main(argv):
        return tracer.call("cli", cli.main, (argv,))

    plain, traced, per_op, failures = [], [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        argv = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        result = bw.run_op(cli.main, argv)
        plain.append(time.perf_counter() - t0)
        problem = bw.check(workload, argv, result)
        with tracer.installed():
            t0 = time.perf_counter()
            traced_result = bw.run_op(traced_main, argv)
            traced.append(time.perf_counter() - t0)
        problem = problem or bw.check(workload, argv, traced_result)
        per_op.append(layer_totals(tracer.take()))
        if problem is not None:
            failures.append(problem)
        i += 1
        if time.perf_counter() >= deadline:
            return plain, traced, per_op, failures


def layer_metrics(per_op, plain, traced) -> dict:
    metrics = {}
    for metric, layer, field, unit in LAYER_METRICS:
        values = [op.get(layer, {}).get(field, 0) for op in per_op]
        metrics[metric] = {"value": statistics.median(values), "unit": unit}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(plain), "unit": "ratio"}
    return metrics


def run_workload(args) -> int:
    pin_threads()
    RESULTS.mkdir(exist_ok=True)
    if args.setup_sample:
        setup = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup.setup_s}))
        return 0
    setup = set_up(args.workload, args.seed)
    cli, inputs = setup.cli, setup.inputs
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "inputs": len(inputs),
              "argv_sha256": bw.argv_digest(inputs), "environment": environment()}
    problems = [] if setup.warm_problem is None else [f"warm-up: {setup.warm_problem}"]
    if args.trace:
        plain, traced, per_op, failures = measure_traced(cli, args.workload, inputs, args.seconds)
        attempted = len(per_op)
        metrics = layer_metrics(per_op, plain, traced)
        problems += sorted({problem for op in per_op
                            for problem in bw.invariant_violations(args.workload, op)})
    else:
        setups = [setup.setup_s] + [sample_setup(args.workload, args.seed)
                                    for _ in range(SETUP_SAMPLES - 1)]
        probe = probe_for(args.workload)
        probe.prepare()
        times, ref_times, probe_times, failures = measure(cli, args.workload, inputs,
                                                          args.seconds, probe)
        attempted = len(times)
        metrics = {
            "op_p50_ref_s": {"value": statistics.median(ref_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": setup.peak_rss_mb, "unit": "MB"},
        }
        reported = {
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "ops_per_s": {"value": (len(times) - len(failures)) / sum(times), "unit": "1/s"},
        }
        detail.update(probe={"kind": probe.kind, "ref_s": probe.ref_s},
                      setup_samples_s=setups, reported=reported, op_tail_s=tail(times),
                      op_times_s=times, op_ref_times_s=ref_times, probe_times_s=probe_times)
    detail.update(attempted=attempted, failed=len(failures),
                  fail_ratio=len(failures) / attempted,
                  problems=problems + failures[:10], metrics=metrics)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")

    env = detail["environment"]
    print(f"# {args.workload} seed={args.seed} nproc={env['nproc']} "
          f"blas_threads={env.get('blas_threads')} numpy={env['numpy']} "
          f"inputs={detail['argv_sha256'][:16]}")
    for name, metric in {**metrics, **detail.get("reported", {})}.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} fail_ratio {detail['fail_ratio']:.6g} ratio")
    if detail.get("op_tail_s"):
        t = detail["op_tail_s"]
        print(f"{args.workload} op_tail_s {t['value']:.6g} s "
              f"(p{t['percentile']:g}, n={t['samples']}, {t['beyond']} beyond)")
    for problem in detail["problems"]:
        print(f"{args.workload} problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems and not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints their metrics, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in bw.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=bw.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
