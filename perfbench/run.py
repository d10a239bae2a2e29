"""Benchmark of the netscaffold pipeline.

Run from the root of a checkout (the program is imported from its
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload ws_sweep --seed 0 --seconds 20 --trace 0

One process runs one workload, so peak RSS is per workload. The run:

1. sets up: a fresh interpreter imports the package, makes the
   workload's inputs from the seed and writes them as edge-list files.
   This is done SETUP_REPEATS times; ``setup_s`` is the median and the
   copies must be byte-identical.
2. runs a closed loop, one in-process ``netscaffold.cli.main`` call at
   a time, in whole passes over the workload's instances, until the
   next pass would end after ``--seconds``; at least one pass runs.
3. checks the outputs of every call (invariants on any seed, recorded
   digests on the default seed); a call that raises, exits non-zero or
   fails a check counts in ``failed``.

``--trace 0`` reports the end-to-end metrics (medians over calls).
``--trace 1`` calls each instance first untraced and then with span
recorders around the layer boundaries (see ``spans.py``), and reports
per-layer medians over the traced calls;
spans are written to ``.bench_work/spans_<workload>_<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS: the inputs are small, and threads would only add
# noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "netscaffold"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _import_program() -> None:
    """Put this checkout's src/ first on the path and check it is used."""
    if not (PACKAGE / "__init__.py").is_file():
        _fail(f"no package at {PACKAGE}; run from the root of a netscaffold checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import netscaffold

    if Path(netscaffold.__file__).resolve().parent != PACKAGE.resolve():
        _fail(f"imported netscaffold from {netscaffold.__file__}, not {PACKAGE}")


class _WarningCounter(logging.Handler):
    """Counts the minbasis pathology warnings and keeps them off stderr."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def _rusage_cpu() -> float:
    """CPU seconds of this process plus those of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _tree_bytes(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def _set_up(workload: str, seed: int, work: Path) -> tuple[float, Path]:
    """Median wall time of SETUP_REPEATS fresh-process set-ups, and the
    directory holding the inputs."""
    times = []
    dirs = []
    for i in range(SETUP_REPEATS):
        into = work / f"inputs{i}"
        t0 = time.perf_counter()
        subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--write-inputs", str(into),
            ],
            check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        dirs.append(into)
    if any(_tree_bytes(d) != _tree_bytes(dirs[0]) for d in dirs[1:]):
        _fail(f"{workload}: seed {seed} gave different inputs on repeated set-up")
    return statistics.median(times), dirs[0]


class Runner:
    """Runs and checks one workload's CLI calls."""

    def __init__(
        self, workload, seed: int, inputs: Path, work: Path, golden: bool = True
    ) -> None:
        from netscaffold.cli import main
        from workloads import DEFAULT_SEED

        self.main = main
        self.workload = workload
        self.seed = seed
        self.golden = golden and seed == DEFAULT_SEED
        self.inputs = inputs
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.warnings = _WarningCounter()
        log = logging.getLogger("netscaffold.minbasis")
        log.addHandler(self.warnings)
        log.propagate = False

    def op(self, instance: int, recorder=None) -> tuple[float, float]:
        """One timed CLI call and its output check: (wall s, cpu s)."""
        from workloads import check_digests

        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.workload.argv(self.seed, instance, self.inputs, self.out)
        self.warnings.count = 0
        self.attempted += 1
        c0 = _rusage_cpu()
        t0 = time.perf_counter()
        try:
            if recorder is None:
                code = self.main(argv)
            else:
                code = recorder.span("cli.main", "perfbench", self.main, (argv,), {})
        except Exception:
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - t0
        cpu = _rusage_cpu() - c0
        try:
            if code != 0:
                raise RuntimeError(f"exit code {code}")
            self.workload.check(instance, self.out, self.warnings.count)
            if self.golden:
                check_digests(self.workload.name, instance, self.out)
        except Exception as exc:
            print(
                f"perfbench: {self.workload.name} instance {instance} failed: {exc}",
                file=sys.stderr,
            )
            self.failed += 1
        print(
            f"perfbench: call {self.attempted} (instance {instance}): "
            f"wall {wall:.3f} s, cpu {cpu:.3f} s",
            file=sys.stderr,
        )
        return wall, cpu


def _passes(seconds: float, one_pass) -> None:
    """Run whole passes over the instances until the next pass would end
    after `seconds`; at least one. Whole passes weigh every instance
    equally, so medians over calls do not depend on where time ran out."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return


def _untraced(runner: Runner, seconds: float, setup_s: float) -> dict[str, float]:
    from workloads import INSTANCES

    calls = []
    _passes(
        seconds,
        lambda: calls.extend(runner.op(i) for i in range(INSTANCES)),
    )
    return {
        "wall_s": statistics.median(w for w, _ in calls),
        "cpu_s": statistics.median(c for _, c in calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def _traced(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    """Per-layer medians over traced calls. Each traced call follows an
    untraced call on the same instance, whose wall time is the reference
    for the tracing overhead."""
    from netscaffold.minbasis import annotate_edges

    import spans
    from workloads import INSTANCES

    recorder = spans.Recorder()
    per_op = []

    def pair(instance: int) -> None:
        reference, _ = runner.op(instance)
        recorder.op += 1
        with recorder.installed():
            wall, _ = runner.op(instance, recorder=recorder)
        warnings = runner.warnings.count
        t0 = time.perf_counter()
        for cx in recorder.step_complexes:
            annotate_edges(cx)
        probe = time.perf_counter() - t0
        recorder.step_complexes.clear()
        m = spans.op_metrics([s for s in recorder.spans if s.op == recorder.op])
        m["minbasis.annotate_probe_s"] = probe
        m["minbasis.pathology_warnings"] = warnings
        m["trace.overhead_s"] = wall - reference
        if warnings != m["minbasis.pathology_events"]:
            print(
                f"perfbench: {warnings} pathology warnings for "
                f"{m['minbasis.pathology_events']} events",
                file=sys.stderr,
            )
            runner.failed += 1
        per_op.append(m)

    _passes(seconds, lambda: [pair(i) for i in range(INSTANCES)])
    recorder.write(spans_path)
    return spans.median_metrics(per_op)


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-inputs", type=Path, default=None,
        help="only write the workload's inputs into this directory (set-up step)",
    )
    parser.add_argument(
        "--write-golden", action="store_true",
        help="run each instance once on the default seed and record its output digests",
    )
    args = parser.parse_args()

    _import_program()
    from workloads import DEFAULT_SEED, INSTANCES, WORKLOADS, record_digests

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed < 0:
        _fail("seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    if args.write_inputs is not None:
        workload.write_inputs(args.seed, args.write_inputs)
        return 0

    work = WORK / f"{args.workload}_{args.seed}_{os.getpid()}"
    try:
        if args.write_golden:
            workload.write_inputs(DEFAULT_SEED, work / "inputs")
            runner = Runner(workload, DEFAULT_SEED, work / "inputs", work, golden=False)
            for i in range(INSTANCES):
                runner.op(i)
                if runner.failed:
                    _fail(f"instance {i} failed its checks; not recorded")
                record_digests(workload.name, i, runner.out)
            return 0
        setup_s, inputs = _set_up(args.workload, args.seed, work)
        runner = Runner(workload, args.seed, inputs, work)
        if args.trace:
            spans_path = WORK / f"spans_{args.workload}_{args.seed}.jsonl"
            metrics = _traced(runner, args.seconds, spans_path)
        else:
            metrics = _untraced(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"perfbench: {args.workload} seed {args.seed}: "
        f"{runner.attempted} calls, {runner.failed} failed",
        file=sys.stderr,
    )
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
