"""Boundary tracing of tomoforge's public functions, installed from outside.

Nothing in the package is edited. ``install`` replaces each traced function
at every name through which a tomoforge module looks it up (the defining
module, the package namespace, and every module that imported it by name),
so a call made anywhere in the package goes through the wrapper. A function
that no longer exists is skipped and reported instead of crashing the run.

Spans are kept in flat arrays: the span's name, the index of the span that
was open when it started (its parent, -1 at the top) and its duration. A
span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# span name -> (defining module, function name)
SPANS = {
    "linalg.sym_eigen": ("tomoforge.linalg", "sym_eigen"),
    "linalg.matrix_rank": ("tomoforge.linalg", "matrix_rank"),
    "linalg.spectral_norm": ("tomoforge.linalg", "spectral_norm"),
    "model.simulate_readings": ("tomoforge.model", "simulate_readings"),
    "model.assemble_design": ("tomoforge.model", "assemble_design"),
    "model.params_to_matrix": ("tomoforge.model", "params_to_matrix"),
    "lsq.normal_system": ("tomoforge.lsq", "normal_system"),
    "lsq.error_matrix_analysis": ("tomoforge.lsq", "error_matrix_analysis"),
    "lsq.reconstruct": ("tomoforge.lsq", "reconstruct"),
    "lsq.relative_error": ("tomoforge.lsq", "relative_error"),
    "search.minimum_readout_count": ("tomoforge.search", "minimum_readout_count"),
    "search.enumerate_minimal_sets": ("tomoforge.search", "enumerate_minimal_sets"),
    "search.set_report": ("tomoforge.search", "set_report"),
    "search.rank_sets_by_conditioning": ("tomoforge.search", "rank_sets_by_conditioning"),
    "io.parse_readings": ("tomoforge.io", "parse_readings"),
    "io.format_readings": ("tomoforge.io", "format_readings"),
    "io.parse_density": ("tomoforge.io", "parse_density"),
    "io.format_density": ("tomoforge.io", "format_density"),
    "cli.main": ("tomoforge.cli", "main"),
}
NAMES = tuple(SPANS)
_INDEX = {name: k for k, name in enumerate(NAMES)}
_RANK = _INDEX["linalg.matrix_rank"]
_EIGEN = _INDEX["linalg.sym_eigen"]
_RANK_CALLERS = (_INDEX["search.minimum_readout_count"], _INDEX["search.enumerate_minimal_sets"])
_SEARCH = frozenset(k for name, k in _INDEX.items() if name.startswith("search."))

FULL_RANK = 16


class Tracer:
    """Span store plus the counters observed at the same boundaries."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("q")
        self.dur = array("d")
        self._stack = []
        self.active = True
        self.full_rank_spans = set()
        self.counters = {"bytes_read": 0, "bytes_written": 0, "reconstructs": 0, "truncated": 0}
        self.designs = set()

    def open(self, k):
        idx = len(self.dur)
        self.name.append(k)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.dur.append(0.0)
        self._stack.append((idx, time.perf_counter()))
        return idx

    def close(self):
        idx, t0 = self._stack.pop()
        self.dur[idx] = time.perf_counter() - t0

    @contextlib.contextmanager
    def suspended(self):
        """Run benchmark-side work (input writing, correctness gates) unrecorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def observe(self, k, idx, args, kwargs, result):
        name = NAMES[k]
        if name == "linalg.matrix_rank":
            if result == FULL_RANK:
                self.full_rank_spans.add(idx)
        elif name in ("io.parse_readings", "io.parse_density"):
            text = args[0] if args else kwargs["text"]
            self.counters["bytes_read"] += len(text.encode())
        elif name in ("io.format_readings", "io.format_density"):
            self.counters["bytes_written"] += len(result.encode())
        elif name == "lsq.reconstruct":
            design = args[0] if args else kwargs["design"]
            self.counters["reconstructs"] += 1
            self.counters["truncated"] += bool(result.truncated_directions)
            self.designs.add(design.row_labels)

    def snapshot(self):
        """Freeze the exact-repeat counts (taken after the first unit of work)."""
        return {
            "n_spans": len(self.dur),
            "counters": dict(self.counters),
            "distinct_designs": len(self.designs),
            "full_rank_spans": set(self.full_rank_spans),
        }


def _wrap(tracer, k, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(k)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        tracer.observe(k, idx, args, kwargs, result)
        return result

    return wrapper


def replace_everywhere(original, replacement):
    """Rebind every tomoforge module attribute that is ``original``.

    Returns the (module, attribute, old value) triples needed to undo it.
    """
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "tomoforge" or modname.startswith("tomoforge.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo):
    for module, attr, value in reversed(undo):
        setattr(module, attr, value)


def install(tracer):
    """Wrap every traced function. Returns (undo list, skipped span names)."""
    undo, skipped = [], []
    for name, (modname, attr) in SPANS.items():
        try:
            original = getattr(importlib.import_module(modname), attr, None)
        except ImportError:
            original = None
        if not callable(original):
            skipped.append(name)
            print(f"trace: skipped span {name}: {modname}.{attr} not found", file=sys.stderr)
            continue
        undo += replace_everywhere(original, _wrap(tracer, _INDEX[name], original))
    return undo, skipped


def summarize(tracer, first, ops):
    """Per-layer metrics of a finished traced run.

    ``first`` is the snapshot taken after the first unit of work; every count
    is taken from it so that counts repeat exactly for a given seed. Times
    use every span: ``self_s`` is self time per workload op, ``p50_us`` the
    median span duration.
    """
    name = np.frombuffer(tracer.name, dtype=np.int8).astype(np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    dur = np.frombuffer(tracer.dur, dtype=np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = np.bincount(name, weights=dur - child, minlength=len(NAMES))

    n = first["n_spans"]
    calls = np.bincount(name[:n], minlength=len(NAMES))
    metrics = {}
    for k, span in enumerate(NAMES):
        durs = dur[name == k]
        metrics[f"{span}.calls"] = (int(calls[k]), "count")
        metrics[f"{span}.self_s"] = (float(self_time[k]) / ops, "s")
        metrics[f"{span}.p50_us"] = (float(np.median(durs)) * 1e6 if durs.size else 0.0, "us")

    # A subset is tested when minimum_readout_count or enumerate_minimal_sets
    # asks matrix_rank about it directly; decompositions are every
    # matrix_rank and sym_eigen call made anywhere under a search span.
    name_n, parent_n = name[:n], parent[:n]
    in_search = [False] * n
    names, parents = name_n.tolist(), parent_n.tolist()
    for i, p in enumerate(parents):
        in_search[i] = p >= 0 and (in_search[p] or names[p] in _SEARCH)
    caller = np.isin(name_n, _RANK_CALLERS)
    tested_idx = np.flatnonzero((name_n == _RANK) & (parent_n >= 0) & caller[parent_n.clip(0)])
    tested = int(tested_idx.size)
    hits = sum(1 for i in tested_idx if int(i) in first["full_rank_spans"])
    decomps = int(np.count_nonzero(np.array(in_search, dtype=bool) & np.isin(name_n, (_RANK, _EIGEN))))
    counters = first["counters"]
    recon = counters["reconstructs"]
    metrics["io.bytes_written"] = (counters["bytes_written"], "B")
    metrics["io.bytes_read"] = (counters["bytes_read"], "B")
    metrics["search.subsets_tested"] = (tested, "count")
    metrics["search.hit_ratio"] = (hits / tested if tested else 0.0, "ratio")
    metrics["search.decomps_per_subset"] = (decomps / tested if tested else 0.0, "ratio")
    metrics["lsq.truncated_frac"] = (counters["truncated"] / recon if recon else 0.0, "frac")
    metrics["mc.design_reuse_frac"] = (1.0 - first["distinct_designs"] / recon if recon else 0.0, "frac")
    return metrics
