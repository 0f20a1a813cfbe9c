"""tomoforge benchmark: one closed-loop caller, one process, one BLAS thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a tomoforge checkout; the package is imported from its
``src/`` directory. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The line before it records the machine and versions. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Capped before numpy loads, so this process and its children use one BLAS thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
N_SETUP = 5
N_STARTUP = 5
CALIBRATION_ROUNDS = 5
CALIBRATION_OPS = 500
TMP_PREFIX = ".bench-tmp-"


def use_checkout_sources():
    required = (SRC / "tomoforge" / "__init__.py", ROOT / "tests" / "goldens.py")
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        raise SystemExit(f"bench: {', '.join(missing)} not found; run from a tomoforge checkout")
    sys.path.insert(0, str(SRC))
    import tomoforge

    if Path(tomoforge.__file__).resolve().parent != SRC / "tomoforge":
        raise SystemExit(f"bench: imported tomoforge from {tomoforge.__file__}, not from {SRC}")


def setup_probe(workload, seed):
    """Child-process set-up: import the package, build and warm the workload."""
    t0 = time.perf_counter()
    use_checkout_sources()
    import workloads

    with tempfile.TemporaryDirectory(prefix=TMP_PREFIX, dir=ROOT) as tmp:
        workloads.WORKLOADS[workload](seed, tmp)
        elapsed = time.perf_counter() - t0
    print(repr(elapsed))


def measure_setup(workload, seed, n):
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit {proc.returncode}:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def measure_startup(rec, tmp, n):
    """Median wall time of fresh ``tomoforge compare`` processes, in ms."""
    import numpy as np
    import workloads

    rng = np.random.default_rng(0)
    paths = [str(Path(tmp) / name) for name in ("startup_a.txt", "startup_b.txt")]
    for path in paths:
        Path(path).write_text(workloads.density_text(workloads.random_state(rng)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "tomoforge.cli", "compare", "--a", paths[0], "--b", paths[1]]
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=tmp, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        rec.check(proc.returncode == 0 and proc.stdout.startswith("delta = "),
                  f"tomoforge compare process: exit {proc.returncode}, {proc.stderr.strip()!r}")
    return statistics.median(times) * 1e3


def drive(w, seconds, rec, quiet=contextlib.nullcontext, after_first_unit=None):
    """Run whole units until ``seconds`` have passed (at least one unit)."""
    t0 = time.perf_counter()
    units = 0
    while units == 0 or time.perf_counter() - t0 < seconds:
        w.run_unit(rec, quiet)
        units += 1
        if units == 1 and after_first_unit is not None:
            after_first_unit()
    w.finish(rec)


def trace_overhead():
    """Share of mc_reconstruct throughput lost to tracing: the median over
    alternating untraced and traced stretches of the same acquisitions."""
    import tracing
    import workloads

    workloads.calibration_ops(CALIBRATION_OPS)
    ratios = []
    for r in range(CALIBRATION_ROUNDS):
        plain = workloads.calibration_ops(CALIBRATION_OPS, seed=r)
        undo, _ = tracing.install(tracing.Tracer())
        try:
            traced = workloads.calibration_ops(CALIBRATION_OPS, seed=r)
        finally:
            tracing.restore(undo)
        ratios.append(plain / traced)
    return 1.0 - statistics.median(ratios)


def run(workload, seed, seconds, trace, n_setup=N_SETUP, n_startup=N_STARTUP):
    import tracing
    import workloads

    rec = workloads.Recorder()
    with tempfile.TemporaryDirectory(prefix=TMP_PREFIX, dir=ROOT) as tmp:
        if not trace:
            metrics = {}
            if n_setup:
                metrics["setup_s"] = (measure_setup(workload, seed, n_setup), "s")
            w = workloads.WORKLOADS[workload](seed, tmp)
            drive(w, seconds, rec)
            lat = rec.latencies
            metrics["ops_per_s"] = (len(lat) / sum(lat), "1/s")
            metrics["op_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        else:
            overhead = trace_overhead()
            startup = measure_startup(rec, tmp, n_startup)
            w = workloads.WORKLOADS[workload](seed, tmp)
            tr = tracing.Tracer()
            first = {}
            undo, skipped = tracing.install(tr)
            try:
                drive(w, seconds, rec, tr.suspended, lambda: first.update(tr.snapshot()))
            finally:
                tracing.restore(undo)
            metrics = tracing.summarize(tr, first, len(rec.latencies))
            metrics["cli.startup_ms"] = (startup, "ms")
            metrics["trace.overhead_frac"] = (overhead, "frac")
            metrics["trace.skipped_spans"] = (len(skipped), "count")
            metrics["failed_frac"] = (rec.failed / rec.attempted, "frac")
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Threads OpenBLAS reports using, or the requested cap if it cannot be asked."""
    import numpy as np

    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        try:
            return int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


def environment():
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": _blas_threads(),
    }


def _corruptions():
    """One deliberate defect per workload, each of which its gates must catch."""
    import numpy as np
    import tomoforge as tf
    from tomoforge import io as tio

    def shifted_readings(simulate):
        def bad(*args, **kwargs):
            return [tf.Reading(r.readout, r.peak, r.value + 1e-6) for r in simulate(*args, **kwargs)]
        return bad

    def one_set_missing(enumerate_sets):
        return lambda size: enumerate_sets(size)[:-1]

    def scaled_density(format_density):
        return lambda matrix: format_density(1.000001 * np.asarray(matrix))

    return {
        "mc_reconstruct": (tf.model.simulate_readings, shifted_readings),
        "subset_search": (tf.search.enumerate_minimal_sets, one_set_missing),
        "cli_files": (tio.format_density, scaled_density),
    }


def smoke():
    """Every metric BENCHMARK.json names is emitted, and a defect is caught."""
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    corruptions = _corruptions()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, seed=1, seconds=1, trace=trace, n_setup=1, n_startup=1)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(wanted[trace]) - set(got))}, "
                                f"extra {sorted(set(got) - set(wanted[trace]))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed on unmodified code")
        original, corrupt = corruptions[workload]
        undo = tracing.replace_everywhere(original, corrupt(original))
        try:
            result = run(workload, seed=1, seconds=1, trace=0, n_setup=0)
        finally:
            tracing.restore(undo)
        if result["correct"] or not result["failed"]:
            problems.append(f"{workload}: a deliberately corrupted result was not counted as a failure")
        print(f"smoke: {workload} checked", file=sys.stderr)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="check metric names and failure detection")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    use_checkout_sources()
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
