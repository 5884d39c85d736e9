"""Benchmark runner for l0bounds.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload glm_boundary --seed 1 --seconds 30 --trace 0

One run sets the workload up three times (a fresh interpreter importing
l0bounds, then the workload's own preparation) and reports the median as
``setup_s``.  It then runs operations until ``--seconds`` have passed and
every operation kind has run once, checking each output.  With ``--trace 0``
it reports the end-to-end metrics listed in BENCHMARK.json, with the
throughput and latency expressed in units of a fixed reference kernel
sampled through the run (the host's speed drifts by tens of percent); with
``--trace 1`` every operation runs twice, untraced and traced (alternating
which goes first), and the run reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object;
the lines before it repeat every figure by name with its unit, plus the
machine facts, the vacuity counters and the output digests.

``--smoke`` shrinks every input (tiny n, few replicates) for the tests in
this directory.  The exit code is 0 only if the run completed; a failed
output check still exits 0 and is reported through ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_REPS = 3
REF_LOOP = 50_000
REF_MATRIX = 300
REF_PRODUCTS = 4
REF_EVERY_S = 0.25
REF_BURST = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# reported by the coverage workloads; 0 on bounds_cli, which fits nothing
VACUITY = ("vacuity.empty_fit_frac", "vacuity.budget_ok_frac", "vacuity.radius_over_beta_p50")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return ap.parse_args(argv)


def pin_threads() -> int:
    """Pin BLAS/OpenMP pools to the cores this process may use (before numpy loads)."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def machine_facts(nproc: int) -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
    }


def measure_setup(wl) -> float:
    """Median over SETUP_REPS of: fresh interpreter importing l0bounds + workload set-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import l0bounds"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        wl.setup()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def kind_means(durations: dict) -> dict:
    return {kind: statistics.fmean(ds) for kind, ds in durations.items()}


def end_to_end(durations: dict) -> dict:
    """Wall-clock figures of one run.

    ops_per_s: operation kinds per second over one pass of every kind;
    op_geomean_s: geometric mean over kinds of each kind's mean latency.
    """
    means = kind_means(durations)
    return {
        "ops_per_s": len(means) / sum(means.values()),
        "op_geomean_s": math.exp(statistics.fmean(math.log(m) for m in means.values())),
    }


class Reference:
    """Fixed work that never touches l0bounds: a pure-Python loop and BLAS
    matrix products, about 4 ms each on a 2-core x86-64 VM.

    Its duration tracks the speed the shared host gives this process at the
    moment; the normalized end-to-end metrics divide it out.  Both parts are
    needed: the workloads mix interpreter-bound and BLAS-bound time.
    """

    def __init__(self):
        import numpy as np

        self.a, self.b = np.random.default_rng(0).normal(size=(2, REF_MATRIX, REF_MATRIX))

    def __call__(self) -> int:
        acc = 0
        for j in range(REF_LOOP):
            acc += j * j % 7
        for _ in range(REF_PRODUCTS):
            self.a @ self.b
        return acc


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Operation loop shared by the plain and the traced run."""

    def __init__(self, wl, seconds: float, tracer=None):
        self.wl = wl
        self.seconds = seconds
        self.tracer = tracer
        self.reference = Reference()
        self.plain = {k: [] for k in wl.kinds}
        self.traced = {k: [] for k in wl.kinds}
        self.ref = []  # reference-kernel durations, sampled through the run
        self.ref_before = {k: [] for k in wl.kinds}  # samples taken before each op
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _timed(self, inp, traced: bool):
        """Run one operation; an exception is returned as the output, not raised."""
        if traced:
            self.tracer.install()
        t0 = perf_counter()
        try:
            out = self.wl.run(inp, "_traced" if traced else "")
        except Exception as exc:  # a crashing operation counts as failed
            out = exc
        finally:
            dt = perf_counter() - t0
            if traced:
                self.tracer.uninstall()
        return out, dt

    def op(self, i: int):
        kind, inp = self.wl.prepare(i)
        if self.tracer is None:
            out, dt = self._timed(inp, False)
        else:
            order = (False, True) if i % 2 == 0 else (True, False)
            res = {traced: self._timed(inp, traced) for traced in order}
            (out, dt), (out_t, dt_t) = res[False], res[True]
            self.traced[kind].append(dt_t)
        self.plain[kind].append(dt)
        self.ref_before[kind].append(len(self.ref))
        if isinstance(out, Exception):
            traceback.print_exception(out, file=sys.stderr)
            problems = [f"raised {type(out).__name__}: {out}"]
        else:
            problems = self.wl.check(inp, out)
            if self.tracer is not None and (
                isinstance(out_t, Exception) or self.wl.fingerprint(out) != self.wl.fingerprint(out_t)
            ):
                problems.append("traced output differs from the untraced output")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i} ({kind}): {p}" for p in problems)

    def sample_reference(self):
        """Record the median of a short burst of reference runs."""
        times = []
        for _ in range(REF_BURST):
            t0 = perf_counter()
            self.reference()
            times.append(perf_counter() - t0)
        self.ref.append(statistics.median(times))
        return perf_counter()

    def normalized(self) -> dict:
        """Each untraced latency in units of the reference sampled around it
        (two samples before the operation and two after)."""
        return {
            kind: [dt / statistics.fmean(self.ref[max(0, j - 2):j + 2]) for dt, j in zip(ds, self.ref_before[kind])]
            for kind, ds in self.plain.items()
        }

    def loop(self):
        t_start = last_ref = self.sample_reference()
        i = 0
        while perf_counter() - t_start < self.seconds or not all(self.plain.values()):
            self.op(i)
            i += 1
            if perf_counter() - last_ref >= REF_EVERY_S:
                last_ref = self.sample_reference()
        self.sample_reference()


def trace_metrics(run, tr) -> dict:
    plain, traced = end_to_end(run.plain), end_to_end(run.traced)
    wall = sum(sum(ds) for ds in run.traced.values())
    untraced_wall = sum(sum(ds) for ds in run.plain.values())
    return {
        "trace.ops": sum(len(ds) for ds in run.traced.values()),
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / untraced_wall - 1.0,
        "trace.overhead_ops_per_s": traced["ops_per_s"] - plain["ops_per_s"],
        "trace.overhead_op_geomean_s": traced["op_geomean_s"] - plain["op_geomean_s"],
        "trace.top_span_coverage": tr.top_span_s() / wall,
        "trace.peak_rss_mb": peak_rss_mb(),
    }


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "l0bounds" / "__init__.py").is_file():
        print(f"error: no l0bounds sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_threads()
    sys.path.insert(0, str(SRC))
    import l0bounds

    if Path(l0bounds.__file__).resolve().parent != SRC / "l0bounds":
        print(f"error: imported l0bounds from {l0bounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    print("machine:", json.dumps(machine_facts(nproc)))

    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT) as tmp:
        wl = workloads.WORKLOADS[args.workload](args.workload, args.seed, args.smoke, Path(tmp))
        setup_s = measure_setup(wl)
        tr = None
        if args.trace:
            import layers
            from tracer import Tracer

            tr = Tracer()
            layers.install_targets(tr)
        run = Run(wl, args.seconds, tr)
        run.loop()
        summary = wl.summary()

    raw = end_to_end(run.plain)
    ref = statistics.fmean(run.ref)
    if args.trace:
        metrics = dict(layers.per_layer(tr), **trace_metrics(run, tr))
        # what the top-level spans miss must be explained by the tracing overhead
        covered = metrics["trace.top_span_coverage"]
        if covered < 1.0 - max(metrics["trace.overhead_frac"], 0.0) - 0.01:
            run.failed += 1
            run.problems.append(f"top-level spans cover {covered:.4f} of the traced wall time")
        metrics.update((k, summary.get(k, 0.0)) for k in VACUITY)
    else:
        norm = end_to_end(run.normalized())  # in reference units, not seconds
        metrics = {
            "ops_per_kref": norm["ops_per_s"] * 1000.0,
            "op_geomean_ref": norm["op_geomean_s"],
            "peak_rss_mb": peak_rss_mb(),
            "setup_s": setup_s,
        }

    extra = {
        "error_frac": (run.failed / run.attempted, "frac"),
        "ref_s": (ref, "s"),
        "ops_per_s": (raw["ops_per_s"], "1/s"),
        "op_geomean_s": (raw["op_geomean_s"], "s"),
    }
    for kind, mean in kind_means(run.plain).items():
        if kind == "replicate":
            extra["replicates_per_s"] = (1.0 / mean, "1/s")
        else:
            extra["grid_s" if kind == "grid" else f"bounds_{kind}_s"] = (mean, "s")
    for problem in run.problems:
        print("problem:", problem)
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"ops={run.attempted} failed={run.failed}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {declared.get(name, '')}")
    for name, (value, unit) in extra.items():
        print(f"info {name} = {value!r} {unit}")
    for name, value in summary.items():
        if name not in metrics:
            print(f"info {name} = {value!r}")

    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
