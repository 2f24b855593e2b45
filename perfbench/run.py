#!/usr/bin/env python3
"""Benchmark of the sfda2 command line, run in-process from a source checkout.

    python3 perfbench/run.py --workload large-bank --seed 1 --seconds 55 --trace 0

Workloads (inputs are generated from --seed; the package only sees the
CSVs, checkpoints and flags it would get from a user):

- quickstart: the README's four commands at their README sizes (3x200 rows,
  25 adapt epochs = 250 iterations, full-capacity bank). The per-sample
  loss loop dominates. Runnable by hand but not listed in BENCHMARK.json:
  its pure-Python loop swings about 25% in wall time from one repetition
  to the next on a shared 2-vCPU host, wider than any bound the format
  allows. The loss loop is still timed inside large-bank.
- large-bank: 3x3000 rows, pretrain at lr 0.02 (0.1 diverges at this size),
  one adapt epoch (141 iterations) with half-capacity banks. Neighbour
  search over the bank and FIFO bank writes dominate.
- verify-all: `verify --suite all` at its CLI defaults, its default seeds
  included. Thousands of tiny batches through finite differences, and
  Monte Carlo draws on 400k-row arrays in the numerics layer.

One run times the package import SETUP_REPS times in fresh interpreters,
sets up SETUP_REPS times (gen-data, pretrain and a source-only eval;
verify-all has nothing to set up beyond imports), then repeats the timed command (adapt, or verify) while the next
repetition is expected to end within --seconds of the first. Every command is one operation; it fails on a non-zero exit code,
an exception, or a failed output check. Outputs must be byte-identical
across repetitions. With --trace 1 the run then makes one more pass (one
set-up and one timed command) with every public function of the package
wrapped by perfbench/tracer.py, checks that its outputs are still
byte-identical, and reports per-function calls, busy and self time instead
of the end-to-end metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Lines before it give the same figures for reading, the
environment, and in traced runs the per-layer table.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 5
BATCH_SIZE = 64  # AdaptConfig default; used to derive the expected iteration count
README_PER_CLASS = 200  # rows per class that `gen-data` writes without --spec

WORKLOADS = {
    # per_class None: the README's gen-data command, without --spec.
    "quickstart": {"per_class": None, "pretrain_lr": "0.1", "epochs": 25, "bank_fraction": None},
    "large-bank": {"per_class": 3000, "pretrain_lr": "0.02", "epochs": 1, "bank_fraction": "0.5"},
    "verify-all": {"verify_args": []},
}
# Tiny sizes for perfbench/selftest.py: same commands, seconds instead of minutes.
TINY = {
    "quickstart": {"per_class": 12, "epochs": 2},
    "large-bank": {"per_class": 30, "epochs": 1},
    "verify-all": {"verify_args": ["--trials", "2", "--pairs", "10000"]},
}

END_TO_END = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

LAYERS = ("adapt", "banks", "stats", "losses", "model", "numerics", "data", "verify", "cli")
# Functions reported with calls, busy_s and self_s.
TIMED_FUNCTIONS = (
    "adapt.adapt",
    "adapt.batch_objective",
    "adapt.pretrain_source",
    "adapt.evaluate",
    "banks.knn",
    "banks.update_banks",
    "banks.init_banks",
    "stats.update_class_stats",
    "losses.snc_loss",
    "losses.ifa_loss",
    "losses.softmax_vjp",
    "losses.fd_loss",
    "losses.affinity_weights",
    "losses.efa_mc_estimate",
    "model.forward",
    "model.grad_params",
    "model.sgd_step",
    "model.finite_diff_check",
    "numerics.sample_gaussian",
    "numerics.row_softmax",
    "data.gen_synthetic",
    "data.load_dataset",
    "data.save_dataset",
    "data.load_checkpoint",
    "data.save_checkpoint",
)
# Drivers whose self time is only bookkeeping: calls and busy_s.
BUSY_FUNCTIONS = (
    "verify.verify_ifa_bound",
    "verify.verify_snc_factorization",
    "verify.verify_gradients",
    "verify.verify_oracles",
    "cli.run_cli",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TIMED_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s", f"{name}.self_s": "s"})
    for name in BUSY_FUNCTIONS:
        units.update({f"{name}.calls": "count", f"{name}.busy_s": "s"})
    units["banks.knn.rows_scanned"] = "count"
    units["banks.knn.valid_share"] = "fraction"
    units["banks.update_banks.rows"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "trace.spans": "count",
            "trace.op_s": "s",
            "trace.untraced_op_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


class BenchError(Exception):
    """The run cannot produce a result (no package, nothing measured)."""


# ------------------------------------------------------------ operations


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Session:
    """Runs CLI commands in-process; counts operations, failures and
    checks that every output file is byte-identical to its first version."""

    def __init__(self, cli, work: str):
        self.cli = cli  # the module, so a traced run_cli is picked up
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def fresh(self, *parts: str) -> str:
        """Empty output directory, so a missing write cannot pass as stale."""
        path = self.path(*parts)
        shutil.rmtree(path, ignore_errors=True)
        return path

    def op(self, argv: list[str], check=None) -> float | None:
        """Run one command; return its wall time, or None if it failed.

        `check()` runs after a zero exit and returns a list of problems.
        """
        self.attempted += 1
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.run_cli(argv)
        except Exception:  # a crash is a failed operation, not a failed run
            problems = [f"raised\n{traceback.format_exc()}"]
        else:
            elapsed = time.perf_counter() - start
            problems = [f"exit code {code}"] if code != 0 else []
            if not problems and check is not None:
                try:
                    problems = check()
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {argv[0]}: {problem}", file=sys.stderr)
            return None
        return elapsed

    def same_bytes(self, *rel: str) -> list[str]:
        problems = []
        for name in rel:
            digest = _digest(self.path(name))
            first = self.digests.setdefault(name, digest)
            if digest != first:
                problems.append(f"{name} differs from its first version")
        return problems


def _expected_iterations(rows: int, epochs: int) -> int:
    full, rem = divmod(rows, BATCH_SIZE)
    return epochs * (full + (1 if rem >= 2 else 0))


def _check_losses_csv(path: str, iterations: int) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "iteration,snc,ifa,fd,total,decay,lambda":
        return ["losses.csv header"]
    rows = lines[1:]
    if len(rows) != iterations:
        return [f"losses.csv has {len(rows)} rows, expected {iterations}"]
    for i, line in enumerate(rows):
        cells = line.split(",")
        if len(cells) != 7 or cells[0] != str(i):
            return [f"losses.csv row {i} malformed"]
        if not all(math.isfinite(float(c)) for c in cells[1:]):
            return [f"losses.csv row {i} not finite"]
    return []


def _accuracy(path: str) -> float:
    accuracy = _read_json(path)["accuracy"]
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError(f"accuracy {accuracy!r} outside [0, 1]")
    return accuracy


class AdaptWorkload:
    """gen-data, pretrain and a source-only eval as set-up; adapt is timed,
    and the adapted checkpoint is evaluated after it."""

    op_label = "adapt_s"
    setup_reps = SETUP_REPS

    def __init__(self, s: Session, seed: int, per_class, pretrain_lr, epochs, bank_fraction):
        self.s = s
        self.seed = str(seed)
        self.per_class = per_class
        self.pretrain_lr = pretrain_lr
        self.epochs = epochs
        self.bank_fraction = bank_fraction
        rows = 3 * (README_PER_CLASS if per_class is None else per_class)
        self.iterations = _expected_iterations(rows, epochs)
        self.source_acc = None
        self.target_acc = None

    def setup(self) -> float | None:
        s = self.s
        data, source, source_eval = s.fresh("data"), s.fresh("runs", "source"), s.fresh("runs", "source-eval")
        argv = ["gen-data", "--seed", self.seed, "--out", data]
        if self.per_class is not None:
            spec = s.path("spec.json")
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump({"source_counts": [self.per_class] * 3, "target_counts": [self.per_class] * 3}, fh)
            argv[1:1] = ["--spec", spec]
        t_gen = s.op(argv, lambda: s.same_bytes("data/source.csv", "data/target.csv"))
        t_pre = s.op(
            ["pretrain", "--source", os.path.join(data, "source.csv"), "--seed", self.seed,
             "--epochs", "15", "--lr", self.pretrain_lr, "--out", source],
            lambda: s.same_bytes("runs/source/source.ckpt", "runs/source/metrics.json"),
        )
        t_eval = s.op(
            ["eval", "--model", os.path.join(source, "source.ckpt"),
             "--data", os.path.join(data, "target.csv"), "--out", source_eval],
            lambda: self._record("source_acc", "runs/source-eval/metrics.json"),
        )
        if None in (t_gen, t_pre, t_eval):
            return None
        return t_gen + t_pre + t_eval

    def _record(self, attr: str, rel: str) -> list[str]:
        setattr(self, attr, _accuracy(self.s.path(rel)))
        return self.s.same_bytes(rel)

    def timed(self) -> float | None:
        s = self.s
        adapted, evaluated = s.fresh("runs", "adapted"), s.fresh("runs", "eval")
        argv = [
            "adapt", "--model", s.path("runs", "source", "source.ckpt"),
            "--target", s.path("data", "target.csv"), "--seed", self.seed,
            "--lr", "0.0075", "--momentum", "0.0", "--epochs", str(self.epochs),
            "--eval-data", s.path("data", "target.csv"), "--out", adapted,
        ]
        if self.bank_fraction is not None:
            argv += ["--bank-fraction", self.bank_fraction]

        def check():
            return _check_losses_csv(os.path.join(adapted, "losses.csv"), self.iterations) + s.same_bytes(
                "runs/adapted/adapted.ckpt", "runs/adapted/losses.csv", "runs/adapted/metrics.json"
            )

        elapsed = s.op(argv, check)
        s.op(
            ["eval", "--model", os.path.join(adapted, "adapted.ckpt"),
             "--data", s.path("data", "target.csv"), "--out", evaluated],
            lambda: self._record("target_acc", "runs/eval/metrics.json"),
        )
        return elapsed

    def summary(self) -> list[str]:
        return [
            f"target_acc    {self.target_acc} fraction (adapted model on the target split)",
            f"source_acc    {self.source_acc} fraction (source-only model on the target split)",
        ]


class VerifyWorkload:
    """Nothing to set up beyond imports; `verify --suite all` is timed.

    The suites run at their CLI defaults, seeds included (7 for ifa-bound,
    0 for the rest), so the workload seed does not reach them: this is a
    fixed load shape, not a search over verification instances.
    """

    op_label = "verify_s"
    setup_reps = 1

    SUITES = ("ifa-bound", "snc-factorization", "gradients", "oracles")

    def __init__(self, s: Session, verify_args):
        self.s = s
        self.verify_args = verify_args

    def setup(self) -> float | None:
        return 0.0

    def _check(self) -> list[str]:
        report = _read_json(self.s.path("runs", "verify", "report.json"))
        suites = {r["suite"]: r["passed"] for r in report["suites"]}
        problems = [] if report["passed"] is True else ["report says passed: false"]
        if tuple(suites) != self.SUITES:
            problems.append(f"suites {tuple(suites)} != {self.SUITES}")
        problems += [f"suite {name} did not pass" for name, ok in suites.items() if ok is not True]
        return problems + self.s.same_bytes("runs/verify/report.json")

    def timed(self) -> float | None:
        out = self.s.fresh("runs", "verify")
        argv = ["verify", "--suite", "all", *self.verify_args, "--out", out]
        return self.s.op(argv, self._check)

    def summary(self) -> list[str]:
        return []


def make_workload(name: str, size: str, s: Session, seed: int):
    params = dict(WORKLOADS[name])
    if size == "tiny":
        params.update(TINY[name])
    if "verify_args" in params:
        return VerifyWorkload(s, params["verify_args"])
    return AdaptWorkload(s, seed, **params)


# ----------------------------------------------------------- environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, asked through its own entry point."""
    import ctypes

    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, openblas_env) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": openblas_env,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


# ------------------------------------------------------------------- run


# Prints the seconds that `import sfda2.cli` takes in a fresh interpreter.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import sfda2.cli; print(time.perf_counter() - start)"
)


def _fresh_import_s() -> float | None:
    """Import time of the package in a new interpreter, or None if it failed."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        print(f"FAILED import probe: {done.stderr.strip()}", file=sys.stderr)
        return None
    return float(done.stdout.strip().splitlines()[-1])


def _import_package():
    """Import sfda2 from this checkout's src/; return sfda2.cli."""
    if not os.path.isfile(os.path.join(SRC, "sfda2", "cli.py")):
        raise BenchError(f"no sfda2 sources under {SRC}")
    sys.path.insert(0, SRC)
    import sfda2.cli

    if not os.path.abspath(sfda2.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported sfda2 from {sfda2.cli.__file__}, not from {SRC}")
    return sfda2.cli


def _timed_loop(workload, seconds: float) -> list[float]:
    """Repeat the timed command at least once, and again while the next
    repetition is expected to end within `seconds` of the start."""
    samples = []
    start = time.perf_counter()
    reps = 0
    while True:
        elapsed = workload.timed()
        reps += 1
        if elapsed is not None:
            samples.append(elapsed)
        spent = time.perf_counter() - start
        if spent + spent / reps > seconds:
            return samples


def _layer_metrics(report: dict, counts: dict, traced_op: float, untraced_op: float) -> dict:
    metrics = {}
    for name in TIMED_FUNCTIONS + BUSY_FUNCTIONS:
        entry = report.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.busy_s"] = entry["busy_s"]
        if name in TIMED_FUNCTIONS:
            metrics[f"{name}.self_s"] = entry["self_s"]
    knn = counts.get("banks.knn", {})
    scanned = knn.get("rows_scanned", 0)
    metrics["banks.knn.rows_scanned"] = scanned
    metrics["banks.knn.valid_share"] = knn.get("rows_valid", 0) / scanned if scanned else 0.0
    metrics["banks.update_banks.rows"] = counts.get("banks.update_banks", {}).get("rows", 0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            (e["self_s"] for n, e in report.items() if n.split(".", 1)[0] == layer), 0.0
        )
    metrics["trace.spans"] = sum(e["calls"] for e in report.values())
    metrics["trace.op_s"] = traced_op
    metrics["trace.untraced_op_s"] = untraced_op
    metrics["trace.overhead_s"] = traced_op - untraced_op
    return metrics


def _print_layer_table(report: dict, traced_op: float) -> None:
    print(f"traced pass: one set-up and one timed command; shares are of the traced command ({traced_op:.4f} s)")
    print(f"{'function':34} {'calls':>8} {'busy_s':>10} {'self_s':>10} {'self/op':>8}")
    for name, e in sorted(report.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:34} {e['calls']:8d} {e['busy_s']:10.4f} {e['self_s']:10.4f} {e['self_s'] / traced_op:8.1%}")


def run(args) -> dict:
    openblas_env = os.environ.get("OPENBLAS_NUM_THREADS")
    # One BLAS thread unless the caller says otherwise: the timed commands
    # multiply small matrices, and extra threads only add scheduling noise.
    # Must be set before numpy is first imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    cli = _import_package()

    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        session = Session(cli, work)
        workload = make_workload(args.workload, args.size, session, args.seed)
        imports = [t for t in (_fresh_import_s() for _ in range(SETUP_REPS)) if t is not None]
        setups = [workload.setup() for _ in range(workload.setup_reps)]
        setups = [t for t in setups if t is not None]
        samples = _timed_loop(workload, args.seconds)
        if not imports or not setups or not samples:
            raise BenchError("no import, set-up or timed command succeeded")
        import_s = statistics.median(imports)
        op_s = statistics.median(samples)
        setup_s = import_s + statistics.median(setups)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            tracer = Tracer()
            with tracer:
                workload.setup()
                traced_op = workload.timed()
            if traced_op is None:
                raise BenchError("the traced command failed")

        label = workload.op_label
        print(f"workload {args.workload} (size {args.size}), seed {args.seed}")
        print(f"{label:13} {op_s} s (median of {len(samples)}; min {min(samples):.4f}, max {max(samples):.4f})")
        print(f"setup_s       {setup_s} s (median of {len(imports)} fresh imports, {import_s:.4f} s, + median of {len(setups)} set-ups)")
        print(f"peak_rss_mb   {peak_rss_mb} MiB")
        for line in workload.summary():
            print(line)
        print(f"failed_ops    {session.failed / session.attempted} share ({session.failed} of {session.attempted})")
        print("env " + json.dumps(environment(args.seed, openblas_env), sort_keys=True))

        if args.trace:
            report = tracer.report()
            _print_layer_table(report, traced_op)
            print(f"tracing overhead: {traced_op - op_s:.4f} s on {label} ({traced_op / op_s - 1:.1%})")
            metrics = _layer_metrics(report, tracer.counts, traced_op, op_s)
            units = per_layer_units()
        else:
            metrics = {"op_s": op_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
            units = END_TO_END
        return {
            "correct": session.failed == 0,
            "attempted": session.attempted,
            "failed": session.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no other run is using it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: for the self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
