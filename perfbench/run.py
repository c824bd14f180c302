"""Benchmark for hdsparse: the CLI timed end to end on seeded inputs.

    python3 perfbench/run.py --workload {screen,regress,simulate} --seed N \
        --seconds S --trace {0,1} [--instance K]

The sources are taken from ``src/`` beside this directory and driven in this
process through ``hdsparse.cli.main(argv)``, with BLAS and OpenMP pinned to one
thread.  Set-up (a cold ``import hdsparse.cli`` in a fresh interpreter, then
generating and writing the workload's CSVs) is repeated ``SETUPS`` times.
Every command's output is checked; see workloads.py.

``--trace 0`` runs rounds of every operation for ``--seconds`` (at least
``MIN_ROUNDS``), timing a fixed reference kernel around every command, and
reports the end-to-end metrics from each operation's median time in units of
that kernel's time (unit ``ref``).  ``--trace 1`` spends half of ``--seconds`` the same way, then
runs one more round with spans around hdsparse's public functions
(tracing.py) and reports the per-layer metrics, the untraced time of each
operation, and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, seed, samples,
failures) goes to ``.perfbench_out/`` in the checkout, with the spans of a
traced run beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_ROUNDS = 2
REF_SHARE = 0.05  # reference-kernel time on each side of a command, per its length
MIN_SAMPLE_S = 1.0  # shorter operations repeat within a round to fill this
END_TO_END = (("setup_s", "s"), ("pass_ref", "ref"), ("op_geomean_ref", "ref"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("screen", "regress", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--instance", type=int, default=0,
                   help="regress only: which random problems to draw (the seed "
                        "permutes them); use another value to confirm a claim")
    return p.parse_args(argv)


class Reference:
    """A fixed numpy + Python kernel, independent of hdsparse, timed around
    every command.  On a shared 2-vCPU VM (Xeon, 2.0 GHz) the speed of one
    thread drifts by up to 1.7x, both within a second and over tens of seconds.
    A command's time divided by the kernel's time around it cancels much of
    that drift, so runs made at different moments compare."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.A = rng.standard_normal((200, 400))
        self.b = rng.standard_normal(400)
        self.x = rng.standard_normal(500)
        self.img = rng.standard_normal((256, 256))
        self.unit = self.time(1)

    def _kernel(self) -> None:
        np, A = self.np, self.A
        # about 30 ms on a 2 GHz Xeon, in four roughly equal parts
        b = self.b
        for _ in range(300):  # proximal-gradient steps: matvecs + small ufuncs
            z = b - 0.01 * (A.T @ (A @ b))
            b = np.sign(z) * np.maximum(np.abs(z) - 1e-3, 0.0)
        for d in range(2, 162):  # histograms of a short column, as in binning
            np.histogram(self.x, bins=d // 2)
        for _ in range(3):  # 2-D FFT convolutions, as in fftkde
            f = np.fft.rfft2(self.img)
            np.fft.irfft2(f * f)
        acc = 0
        for i in range(100_000):  # plain interpreter work
            acc += i

    def time(self, reps: int) -> float:
        """Mean time of one kernel run over reps runs."""
        t0 = time.perf_counter()
        for _ in range(reps):
            self._kernel()
        return (time.perf_counter() - t0) / reps

    def around(self, seconds: float) -> float:
        """Time the kernel for about REF_SHARE of a command of this length."""
        return self.time(max(1, round(REF_SHARE * seconds / self.unit)))


class Runner:
    """Runs operations through cli.main, counting commands and failures.

    The reference kernel runs before and after every command, each time for
    a share of the command's length; a command's time is also reported
    divided by the mean of the two."""

    def __init__(self, main, ref: Reference):
        self.main = main
        self.ref = ref
        self.last: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.warnings = 0

    def run(self, op) -> tuple[float, float]:
        wall = rel = 0.0
        for cmd in op.commands:
            self.attempted += 1
            before = self.ref.around(self.last.get(id(cmd), 0.0))
            elapsed = 0.0
            try:
                with warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(io.StringIO()):
                    warnings.simplefilter("always")
                    t0 = time.perf_counter()
                    try:
                        rc = self.main(cmd.argv)
                    finally:
                        elapsed = time.perf_counter() - t0
                self.warnings += len(caught)
                if rc != 0:
                    raise RuntimeError(f"exit code {rc}")
                cmd.check(cmd.out_dir)
            except (Exception, SystemExit) as exc:  # noqa: BLE001 - count and go on
                msg = f"{op.name}: hdsparse {' '.join(cmd.argv[:2])}: {type(exc).__name__}: {exc}"
                print(msg, file=sys.stderr)
                self.failures.append(msg)
            after = self.ref.around(elapsed)
            self.last[id(cmd)] = elapsed
            wall += elapsed
            rel += elapsed / (0.5 * (before + after))
        return wall, rel


def measure(runner: Runner, ops, seconds: float, min_rounds: int):
    """Rounds of every operation in order until another round would overrun
    ``seconds``; at least ``min_rounds`` rounds.  After the first round, an
    operation whose sample (with its reference kernels) is shorter than
    MIN_SAMPLE_S runs enough times per round to fill it, so short operations
    get more samples.  Returns each operation's wall times and its
    reference-relative times."""
    wall = {op.name: [] for op in ops}
    rel = {op.name: [] for op in ops}
    reps = dict.fromkeys(wall, 1)
    start = time.perf_counter()
    for rounds in itertools.count(1):
        t0 = time.perf_counter()
        for op in ops:
            for _ in range(reps[op.name]):
                t_sample = time.perf_counter()
                w, r = runner.run(op)
                t_sample = time.perf_counter() - t_sample
                wall[op.name].append(w)
                rel[op.name].append(r)
            reps[op.name] = max(1, round(MIN_SAMPLE_S / t_sample))
        now = time.perf_counter()
        if rounds >= min_rounds and now - start + (now - t0) > seconds:
            return wall, rel


def set_up(build, args, work: Path):
    """SETUPS cold imports and input builds; the inputs must repeat exactly."""
    import_s, inputs_s, digests = [], [], set()
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hdsparse.cli"], check=True, cwd=ROOT)
        import_s.append(time.perf_counter() - t0)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        ops = build(args.seed, args.instance, work)
        inputs_s.append(time.perf_counter() - t0)
        h = hashlib.sha256()
        for f in sorted(work.glob("*.csv")):
            h.update(f.read_bytes())
        digests.add(h.hexdigest())
    setup = {
        "setup_s": statistics.median(a + b for a, b in zip(import_s, inputs_s)),
        "setup.import_s": statistics.median(import_s),
        "setup.inputs_s": statistics.median(inputs_s),
    }
    return ops, setup, len(digests) == 1


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(str(blas.get(k, "")) for k in ("name", "version")),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hdsparse" / "__init__.py").is_file():
        print(f"perfbench: no hdsparse sources at {SRC}", file=sys.stderr)
        return 2
    # before numpy loads: iteration counts repeat exactly only at a fixed
    # thread count, and one thread gives the steadier timings
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))

    import hdsparse.cli
    import tracing
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        ops, setup, inputs_repeat = set_up(WORKLOADS[args.workload], args, work)
        runner = Runner(hdsparse.cli.main, Reference())
        if args.trace:
            wall, rel = measure(runner, ops, args.seconds / 2, 1)
            tracer = tracing.Tracer()
            tracer.install()
            runner.main = tracer.wrap("cli.main", hdsparse.cli.main)
            try:
                traced_wall, traced_rel = measure(runner, ops, 0.0, 1)
            finally:
                tracer.uninstall()
        else:
            wall, rel = measure(runner, ops, args.seconds, MIN_ROUNDS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    op_s = {name: statistics.median(s) for name, s in wall.items()}
    op_ref = {name: statistics.median(s) for name, s in rel.items()}
    failed = len(runner.failures)
    if args.trace:
        values = {name: 0.0 for name, _, _ in tracing.PER_LAYER}
        values.update(tracer.layer_metrics())
        values.update(op_s)
        values["setup.import_s"] = setup["setup.import_s"]
        values["setup.inputs_s"] = setup["setup.inputs_s"]
        values["failed_frac"] = failed / runner.attempted
        traced = sum(s[0] for s in traced_rel.values())
        values["trace.overhead_pct"] = 100.0 * (traced / sum(op_ref.values()) - 1.0)
        units = [(name, unit) for name, unit, _ in tracing.PER_LAYER]
    else:
        values = {
            "setup_s": setup["setup_s"],
            "pass_ref": sum(op_ref.values()),
            "op_geomean_ref": math.exp(statistics.fmean(math.log(v) for v in op_ref.values())),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "instance": args.instance,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup": setup,
        "inputs_repeat": inputs_repeat,
        "op_median_s": op_s,
        "op_median_ref": op_ref,
        "op_samples_s": wall,
        "op_samples_ref": rel,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures,
        "warnings_caught": runner.warnings,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["traced_op_s"] = {name: s[0] for name, s in traced_wall.items()}
        record["span_counts"] = {k: v[0] for k, v in sorted(tracer.totals().items())}
        tracer.save(OUT / f"{stem}.spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2))

    print(json.dumps({k: record[k] for k in ("workload", "seed", "environment", "op_median_s",
                                             "op_median_ref", "failed_frac", "warnings_caught")}))
    print(json.dumps({
        "correct": failed == 0 and inputs_repeat,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
