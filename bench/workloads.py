"""The benchmark's three workloads, each with its correctness gates.

A workload is built from a seed (its set-up), then runs whole units of work
for as long as the run lasts. Each unit is a sequence of ops, the thing a
user waits for; every op is timed on its own and checked after its timer
stops. Benchmark-side work (writing input files, the gates) runs inside
``quiet()`` so a traced run does not record it.

* mc_reconstruct: an op is one noisy or noiseless acquisition,
  simulate_readings -> assemble_design -> reconstruct -> params_to_matrix ->
  relative_error. A unit is one round over the 72 golden five-sets and the
  full set, in a seeded order.
* subset_search: an op and a unit are both one search pass,
  minimum_readout_count, enumerate_minimal_sets(k) for k = 5, 6, 7 in a
  seeded order, then rank_sets_by_conditioning of everything found.
* cli_files: an op is one in-process ``tomoforge`` command against files. A
  unit is CYCLES cycles of simulate, reconstruct and compare, each on a fresh
  random state and read-out set of size 4-18; every ANALYZE_EVERY-th cycle
  also runs ``analyze --format csv``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import tomoforge as tf
from tomoforge import cli
from tomoforge import io as tio

ROOT = Path(__file__).resolve().parents[1]


def _load_goldens():
    spec = importlib.util.spec_from_file_location("goldens", ROOT / "tests" / "goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


goldens = _load_goldens()
FULL_SET = tuple(range(1, tf.N_READOUTS + 1))


class Recorder:
    """Op latencies plus failures; a failed op or gate counts once."""

    def __init__(self):
        self.latencies = array("d")
        self.checks = 0
        self.failed = 0

    @property
    def attempted(self):
        return len(self.latencies) + self.checks

    def op(self, seconds, problems=()):
        self.latencies.append(seconds)
        if problems:
            self._fail("; ".join(problems))

    def check(self, ok, why):
        self.checks += 1
        if not ok:
            self._fail(why)

    def _fail(self, why):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAIL: {why}", file=sys.stderr)


def random_state(rng):
    """A random positive trace-one 4x4 density matrix."""
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


class McReconstruct:
    N_NOISY = 100
    N_CLEAN = 5
    SIGMA = 0.01

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.designs = list(goldens.MINIMAL_SETS_5) + [FULL_SET]
        self.rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
        self.delta_sum = np.zeros(len(self.designs))
        self.delta_n = np.zeros(len(self.designs), dtype=int)
        for ids in self.designs:
            self._pipeline(self.rho, ids, 0.0, 0)

    @staticmethod
    def _pipeline(rho, ids, sigma, seed):
        readings = tf.simulate_readings(rho, ids, noise_sigma=sigma, seed=seed)
        result = tf.reconstruct(tf.assemble_design(ids, readings=readings))
        rebuilt = tf.params_to_matrix(result.params)
        return rebuilt, tf.relative_error(rebuilt, rho)

    def _op(self, rec, rho, ids, sigma, seed):
        t0 = time.perf_counter()
        try:
            rebuilt, delta = self._pipeline(rho, ids, sigma, seed)
        except Exception as exc:  # one failed op must not end the run
            rec.op(time.perf_counter() - t0, [f"{ids}: {exc!r}"])
            return None, None
        rec.op(time.perf_counter() - t0)
        return rebuilt, delta

    def run_unit(self, rec, quiet):
        for d in self.rng.permutation(len(self.designs)):
            ids = self.designs[d]
            for seed in self.rng.integers(2**63, size=self.N_NOISY):
                _, delta = self._op(rec, self.rho, ids, self.SIGMA, int(seed))
                if delta is not None:
                    self.delta_sum[d] += delta
                    self.delta_n[d] += 1
            for _ in range(self.N_CLEAN):
                rho = random_state(self.rng)
                rebuilt, _ = self._op(rec, rho, ids, 0.0, 0)
                if rebuilt is not None:
                    err = float(np.max(np.abs(rebuilt - rho)))
                    rec.check(err < 1e-8, f"noiseless round trip of {ids}: element error {err:.3e}")

    def finish(self, rec):
        means = self.delta_sum / np.maximum(self.delta_n, 1)
        full, best_five = means[-1], float(np.min(means[:-1]))
        rec.check(full <= best_five, f"full-set mean delta {full:.4f} > best five-set {best_five:.4f}")


class SubsetSearch:
    SIZES = (5, 6, 7)
    COUNTS = {5: 72, 6: 1182, 7: 6714}

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        tf.assemble_design(FULL_SET)

    def run_unit(self, rec, quiet):
        order = [int(k) for k in self.rng.permutation(self.SIZES)]
        t0 = time.perf_counter()
        try:
            count = tf.minimum_readout_count()
            found = {k: tf.enumerate_minimal_sets(k) for k in order}
            ranked = tf.rank_sets_by_conditioning([r for k in order for r in found[k]])
        except Exception as exc:  # one failed op must not end the run
            rec.op(time.perf_counter() - t0, [repr(exc)])
            return
        elapsed = time.perf_counter() - t0
        problems = []
        if count != 5:
            problems.append(f"minimum read-out count {count}, expected 5")
        for k in order:
            if len(found[k]) != self.COUNTS[k]:
                problems.append(f"{len(found[k])} full-rank sets of size {k}, expected {self.COUNTS[k]}")
        if tuple(r.ids for r in found[5]) != goldens.MINIMAL_SETS_5:
            problems.append("size-5 sets differ from the golden table")
        keys = [(-r.min_eigenvalue, r.ids) for r in ranked]
        if keys != sorted(keys) or len(ranked) != sum(self.COUNTS.values()):
            problems.append("conditioning ranking is not a sorted ranking of every set found")
        rec.op(elapsed, problems)

    def finish(self, rec):
        pass


def density_text(rho):
    """Density-file text written by the benchmark itself, not by tomoforge."""
    return "\n".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) for row in rho) + "\n"


class CliFiles:
    CYCLES = 40
    ANALYZE_EVERY = 8
    SIGMA = 0.01

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.rho_path = str(Path(workdir) / "rho.txt")
        self.readings_path = str(Path(workdir) / "readings.csv")
        self.hat_path = str(Path(workdir) / "rho_hat.txt")
        self._cycle(Recorder(), contextlib.nullcontext, analyze=True)

    def _op(self, rec, quiet, argv, check):
        """Time one command, then check what it wrote with tracing suspended."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
            except Exception as exc:  # one failed op must not end the run
                code = repr(exc)
            elapsed = time.perf_counter() - t0
        if code != 0:
            rec.op(elapsed, [f"{argv[0]} exit {code}"])
            return
        with quiet():
            try:
                problem = check(out.getvalue())
            except Exception as exc:  # e.g. a file the library parsers reject
                problem = f"{argv[0]} output unreadable: {exc!r}"
        rec.op(elapsed, [problem] if problem else [])

    def _cycle(self, rec, quiet, analyze):
        rho = random_state(self.rng)
        size = int(self.rng.integers(4, tf.N_READOUTS + 1))
        ids = sorted(int(r) for r in self.rng.choice(FULL_SET, size, replace=False))
        id_arg = ",".join(map(str, ids))
        seed = int(self.rng.integers(2**31))
        with quiet():
            Path(self.rho_path).write_text(density_text(rho), encoding="utf-8")

        def readings_cover_ids(_):
            got = sorted({r.readout for r in tio.read_readings(self.readings_path)})
            return None if got == ids else f"readings cover {got}, expected {ids}"

        def trace_is_one(_):
            trace = float(np.trace(tio.read_density(self.hat_path)).real)
            return None if abs(trace - 1.0) <= 1e-9 else f"reconstructed trace {trace!r} of {ids}"

        def delta_matches_library(out):
            delta = tf.relative_error(tio.read_density(self.hat_path), tio.read_density(self.rho_path))
            want = f"{delta:.10g}"
            return None if out.split()[2:3] == [want] else f"compare printed {out.strip()!r}, library gives {want}"

        def rank_matches_library(out):
            rank = tf.matrix_rank(tf.assemble_design(ids).matrix)
            want = f"{4 * len(ids) + 1},16,yes,{rank}"
            return None if out.splitlines()[2:3] == [want] else f"analyze design line of {ids} is not {want!r}"

        self._op(rec, quiet, [
            "simulate", "--density", self.rho_path, "--readouts", id_arg,
            "--noise", repr(self.SIGMA), "--seed", str(seed), "--out", self.readings_path,
        ], readings_cover_ids)
        self._op(rec, quiet, ["reconstruct", "--readings", self.readings_path, "--out", self.hat_path], trace_is_one)
        self._op(rec, quiet, ["compare", "--a", self.hat_path, "--b", self.rho_path], delta_matches_library)
        if analyze:
            self._op(rec, quiet, ["analyze", "--readouts", id_arg, "--format", "csv"], rank_matches_library)

    def run_unit(self, rec, quiet):
        for c in range(self.CYCLES):
            self._cycle(rec, quiet, analyze=c % self.ANALYZE_EVERY == self.ANALYZE_EVERY - 1)

    def finish(self, rec):
        pass


WORKLOADS = {
    "mc_reconstruct": McReconstruct,
    "subset_search": SubsetSearch,
    "cli_files": CliFiles,
}


def calibration_ops(n, seed=0):
    """n mc_reconstruct-style acquisitions on the full set, for trace overhead."""
    rng = np.random.default_rng(seed)
    rho = goldens.RHO_PREDICTED / np.trace(goldens.RHO_PREDICTED).real
    t0 = time.perf_counter()
    for s in rng.integers(2**63, size=n):
        McReconstruct._pipeline(rho, FULL_SET, McReconstruct.SIGMA, int(s))
    return time.perf_counter() - t0
