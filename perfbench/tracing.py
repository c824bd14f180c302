"""Spans around hdsparse's public functions, for the traced benchmark run.

Each wrapped function records one span: id, parent id, name, start, end and
self time (its duration minus the time its child spans cover).  Wrappers are
installed at the name each caller looks up (``hdsparse.cli.read_table``,
``hdsparse.pcg.prox_scaled_l1``, ...), so nothing under ``src/`` changes.
Spans are kept in memory in flat arrays and written out once, at the end.
"""

from __future__ import annotations

import functools
import itertools
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np

import hdsparse.agsolver
import hdsparse.bench
import hdsparse.cli
import hdsparse.pcg
import hdsparse.penalty
import hdsparse.qgaussian
import hdsparse.screen

# (name, unit, better) for every metric a traced run reports.  Which
# end-to-end metric each one should move, and on which workload, is listed in
# perfbench/README.md.
PER_LAYER = [
    ("setup.import_s", "s", "lower"),
    ("setup.inputs_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("data.read_table_s", "s", "lower"),
    ("data.read_table_cells", "count", "lower"),
    ("screen.screen_all_self_s", "s", "lower"),
    ("screen.mi_fftkde_self_s", "s", "lower"),
    ("screen.fft_kde_2d_s", "s", "lower"),
    ("screen.fft_kde_2d_calls", "count", "lower"),
    ("screen.mi_binning_self_s", "s", "lower"),
    ("screen.bin_count_s", "s", "lower"),
    ("screen.bin_count_calls", "count", "lower"),
    ("screen.mi_knn_s", "s", "lower"),
    ("screen.pearson_abs_s", "s", "lower"),
    ("screen.failed_columns", "count", "lower"),
    ("penalty.prox_scaled_l1_s", "s", "lower"),
    ("penalty.prox_scaled_l1_calls", "count", "lower"),
    ("penalty.h_grad_s", "s", "lower"),
    ("penalty.h_grad_calls", "count", "lower"),
    ("penalty.h_value_s", "s", "lower"),
    ("agsolver.ag_solve_s", "s", "lower"),
    ("agsolver.ag_iterations", "count", "lower"),
    ("agsolver.ag_self_us_per_iter", "us", "lower"),
    ("agsolver.pg_solve_s", "s", "lower"),
    ("agsolver.pg_iterations", "count", "lower"),
    ("agsolver.pg_self_us_per_iter", "us", "lower"),
    ("agsolver.loss_s", "s", "lower"),
    ("agsolver.loss_grad_calls", "count", "lower"),
    ("agsolver.loss_value_calls", "count", "lower"),
    ("agsolver.make_objective_s", "s", "lower"),
    ("agsolver.schedule_s", "s", "lower"),
    ("agsolver.solves", "count", "lower"),
    ("agsolver.converged_frac", "1", "higher"),
    ("pcg.pcg_solve_s", "s", "lower"),
    ("pcg.iterations", "count", "lower"),
    ("pcg.line_search_s", "s", "lower"),
    ("pcg.line_search_calls", "count", "lower"),
    ("pcg.moreau_grad_calls", "count", "lower"),
    ("pcg.moreau_grad_per_iter", "1", "lower"),
    ("pcg.linear_cg_s", "s", "lower"),
    ("pcg.linear_cg_calls", "count", "lower"),
    ("qgaussian.fit_s", "s", "lower"),
    ("qgaussian.theta_update_s", "s", "lower"),
    ("qgaussian.q_update_s", "s", "lower"),
    ("qgaussian.sigma2_update_calls", "count", "lower"),
    ("qgaussian.outer_iterations", "count", "lower"),
    ("bench.run_benchmark_self_s", "s", "lower"),
    ("bench.gen_dataset_s", "s", "lower"),
    ("bench.lambda_path_s", "s", "lower"),
    ("bench.error_rows", "count", "lower"),
    # untraced wall time of each operation group, from the same run
    ("screen.fftkde_s", "s", "lower"),
    ("screen.binning_s", "s", "lower"),
    ("screen.knn_s", "s", "lower"),
    ("screen.pearson_s", "s", "lower"),
    ("fit.ag_s", "s", "lower"),
    ("fit.pg_s", "s", "lower"),
    ("fit.pcg_s", "s", "lower"),
    ("qfit.psi_s", "s", "lower"),
    ("qfit.iid_s", "s", "lower"),
    ("bench.signal_recovery_s", "s", "lower"),
    ("bench.ag_convergence_s", "s", "lower"),
    ("failed_frac", "1", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._undo: list = []

    def wrap(self, name: str, fn, post=None):
        """fn wrapped in a span; post(result) may count and replace the result."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self.span_id.append(sid)
                self.parent.append(parent)
                self.name_id.append(nid)
                self.start.append(t0)
                self.end.append(t1)
                self.self_s.append(dur - frame[1])
            return result if post is None else post(result)

        return traced

    def patch(self, owner, attr: str, name: str, post=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) with a traced wrapper."""
        if isinstance(owner, dict):
            orig = owner[attr]
            owner[attr] = self.wrap(name, orig, post)
        else:
            orig = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, orig, post))
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        ag, bench, cli, pcg, pen, qg, scr = (
            hdsparse.agsolver, hdsparse.bench, hdsparse.cli, hdsparse.pcg,
            hdsparse.penalty, hdsparse.qgaussian, hdsparse.screen)
        c = self.counts

        def count(fn):
            def post(result):
                for k, v in fn(result):
                    c[k] += v
                return result
            return post

        def traced_objective(obj):
            return replace(obj,
                           value=self.wrap("agsolver.loss_value", obj.value),
                           grad=self.wrap("agsolver.loss_grad", obj.grad))

        def solve_counts(prefix):
            return count(lambda r: [(f"{prefix}_iterations", r.iterations),
                                    ("agsolver.converged", int(r.converged))])

        def read_counts(result):
            fm, y = result
            c["data.read_table_cells"] += fm.values.size + (0 if y is None else y.n)
            return result

        # cli: read_table, screening, objectives, solvers, q-Gaussian fit, harness
        self.patch(cli, "read_table", "data.read_table", read_counts)
        self.patch(cli, "screen_all", "screen.screen_all",
                   count(lambda r: [("screen.failed_columns", len(r.failures))]))
        for mod in (cli, bench):
            self.patch(mod, "make_linear_objective", "agsolver.make_objective", traced_objective)
            self.patch(mod, "make_logistic_objective", "agsolver.make_objective", traced_objective)
            self.patch(mod, "schedule_original", "agsolver.schedule")
            self.patch(mod, "pg_solve", "agsolver.pg_solve", solve_counts("agsolver.pg"))
        for mod in (cli, bench, qg):
            self.patch(mod, "ag_solve", "agsolver.ag_solve", solve_counts("agsolver.ag"))
            self.patch(mod, "schedule_optimal", "agsolver.schedule")
        for mod in (cli, qg):
            self.patch(mod, "pcg_solve", "pcg.pcg_solve",
                       count(lambda r: [("pcg.iterations", r[0].iterations)]))
        self.patch(cli, "qfit_model", "qgaussian.fit",
                   count(lambda m: [("qgaussian.outer_iterations", len(m.fit_trace) - 1)]))
        self.patch(cli, "run_benchmark", "bench.run_benchmark",
                   count(lambda r: [("bench.error_rows",
                                              sum("error" in row for row in r.rows))]))
        # screen: estimator dispatch table and the kernels behind it
        self.patch(scr._METHODS, "fftkde", "screen.mi_fftkde")
        self.patch(scr._METHODS, "binning", "screen.mi_binning")
        self.patch(scr._METHODS, "knn", "screen.mi_knn")
        self.patch(scr._METHODS, "pearson", "screen.pearson_abs")
        self.patch(scr, "fft_kde_2d", "screen.fft_kde_2d")
        self.patch(scr, "bin_count", "screen.bin_count")
        # penalty: prox at both solver modules, concave part via the DC lambdas
        self.patch(ag, "prox_scaled_l1", "penalty.prox_scaled_l1")
        self.patch(pcg, "prox_scaled_l1", "penalty.prox_scaled_l1")
        self.patch(pen, "h_grad", "penalty.h_grad")
        self.patch(pen, "h_value", "penalty.h_value")
        # pcg internals and the Psi solves
        self.patch(pcg, "line_search", "pcg.line_search")
        self.patch(pcg, "linearized_moreau_grad", "pcg.moreau_grad")
        self.patch(qg, "linear_cg", "pcg.linear_cg")
        # q-Gaussian blocks
        self.patch(qg, "theta_update", "qgaussian.theta_update")
        self.patch(qg, "q_update", "qgaussian.q_update")
        self.patch(qg, "sigma2_update", "qgaussian.sigma2_update")
        # benchmark harness
        self.patch(bench, "gen_dataset", "bench.gen_dataset")
        self.patch(bench, "lambda_path", "bench.lambda_path")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        acc = defaultdict(lambda: [0, 0.0, 0.0])
        names = self.names
        for nid, t0, t1, s in zip(self.name_id, self.start, self.end, self.self_s):
            a = acc[names[nid]]
            a[0] += 1
            a[1] += t1 - t0
            a[2] += s
        return {k: tuple(v) for k, v in acc.items()}

    def layer_metrics(self) -> dict[str, float]:
        """The span-derived part of PER_LAYER (set-up and per-op times are added
        by the runner)."""
        t = self.totals()
        c = self.counts

        def calls(n):
            return t.get(n, (0, 0.0, 0.0))[0]

        def total(*ns):
            return sum(t.get(n, (0, 0.0, 0.0))[1] for n in ns)

        def self_s(n):
            return t.get(n, (0, 0.0, 0.0))[2]

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        solves = calls("agsolver.ag_solve") + calls("agsolver.pg_solve")
        return {
            "cli.self_s": self_s("cli.main"),
            "data.read_table_s": total("data.read_table"),
            "data.read_table_cells": c["data.read_table_cells"],
            "screen.screen_all_self_s": self_s("screen.screen_all"),
            "screen.mi_fftkde_self_s": self_s("screen.mi_fftkde"),
            "screen.fft_kde_2d_s": total("screen.fft_kde_2d"),
            "screen.fft_kde_2d_calls": calls("screen.fft_kde_2d"),
            "screen.mi_binning_self_s": self_s("screen.mi_binning"),
            "screen.bin_count_s": total("screen.bin_count"),
            "screen.bin_count_calls": calls("screen.bin_count"),
            "screen.mi_knn_s": total("screen.mi_knn"),
            "screen.pearson_abs_s": total("screen.pearson_abs"),
            "screen.failed_columns": c["screen.failed_columns"],
            "penalty.prox_scaled_l1_s": total("penalty.prox_scaled_l1"),
            "penalty.prox_scaled_l1_calls": calls("penalty.prox_scaled_l1"),
            "penalty.h_grad_s": total("penalty.h_grad"),
            "penalty.h_grad_calls": calls("penalty.h_grad"),
            "penalty.h_value_s": total("penalty.h_value"),
            "agsolver.ag_solve_s": total("agsolver.ag_solve"),
            "agsolver.ag_iterations": c["agsolver.ag_iterations"],
            "agsolver.ag_self_us_per_iter": ratio(self_s("agsolver.ag_solve"),
                                                  c["agsolver.ag_iterations"], 1e6),
            "agsolver.pg_solve_s": total("agsolver.pg_solve"),
            "agsolver.pg_iterations": c["agsolver.pg_iterations"],
            "agsolver.pg_self_us_per_iter": ratio(self_s("agsolver.pg_solve"),
                                                  c["agsolver.pg_iterations"], 1e6),
            "agsolver.loss_s": total("agsolver.loss_value", "agsolver.loss_grad"),
            "agsolver.loss_grad_calls": calls("agsolver.loss_grad"),
            "agsolver.loss_value_calls": calls("agsolver.loss_value"),
            "agsolver.make_objective_s": total("agsolver.make_objective"),
            "agsolver.schedule_s": total("agsolver.schedule"),
            "agsolver.solves": solves,
            "agsolver.converged_frac": ratio(c["agsolver.converged"], solves),
            "pcg.pcg_solve_s": total("pcg.pcg_solve"),
            "pcg.iterations": c["pcg.iterations"],
            "pcg.line_search_s": total("pcg.line_search"),
            "pcg.line_search_calls": calls("pcg.line_search"),
            "pcg.moreau_grad_calls": calls("pcg.moreau_grad"),
            "pcg.moreau_grad_per_iter": ratio(calls("pcg.moreau_grad"), c["pcg.iterations"]),
            "pcg.linear_cg_s": total("pcg.linear_cg"),
            "pcg.linear_cg_calls": calls("pcg.linear_cg"),
            "qgaussian.fit_s": total("qgaussian.fit"),
            "qgaussian.theta_update_s": total("qgaussian.theta_update"),
            "qgaussian.q_update_s": total("qgaussian.q_update"),
            "qgaussian.sigma2_update_calls": calls("qgaussian.sigma2_update"),
            "qgaussian.outer_iterations": c["qgaussian.outer_iterations"],
            "bench.run_benchmark_self_s": self_s("bench.run_benchmark"),
            "bench.gen_dataset_s": total("bench.gen_dataset"),
            "bench.lambda_path_s": total("bench.lambda_path"),
            "bench.error_rows": c["bench.error_rows"],
        }

    def save(self, path) -> None:
        """Write every span as flat arrays (names indexed by name_id)."""
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_s=np.frombuffer(self.self_s, dtype=np.float64),
        )
