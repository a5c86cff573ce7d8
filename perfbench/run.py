"""Benchmark of the dialact command line on seeded synthetic workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload swbd-tag --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run generates the workload's inputs from ``--seed``, sets up (input
generation plus, except for ``swbd-train``, training the model directory
with the CLI) several times, then repeats passes of the workload's CLI
commands for ``--seconds`` seconds.  Every command is a fresh
``python -m dialact.cli`` child; its CPU time and peak RSS come from
``os.wait4``.  Outputs are checked and fingerprinted (sha256); a failed
command, a failed check or a fingerprint that differs from the first
pass's counts as a failure.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` additionally
runs passes in this process with every public dialact function wrapped in
a span (see spans.py) and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with fingerprints, per-pass samples and the quality figures, is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

RUN_LIMIT_S = 170.0             # a run ends its last child by then
MIN_PASSES = 2
TRAINING_SETUPS = 3              # set-ups that train a model directory
GENERATION_SETUPS = 5            # set-ups that only generate inputs
# calibrate() takes about this long on the reference machine at its usual speed
CALIBRATION_REF_S = 0.1

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "utts_per_s": "1/s",
             "peak_rss_mb": "MB", "setup_s": "s", "model_mb": "MB"}


def calibrate() -> float:
    """Time a fixed pure-Python loop (dict updates, float math, string
    formatting) in this process.

    Shared virtual cores can change speed by up to 2x for minutes at a
    time.  Each timed sample is scaled by the square root of
    CALIBRATION_REF_S over the mean of calibrate() just before and just
    after it, on the same pinned core.  The square root: when the cores
    slow down, the dialact workloads slow about half as much as this loop
    does, in log terms (fitted slopes 0.55-0.74 here).  The raw times are
    kept in the results file.
    """
    start = time.perf_counter()
    table: dict[str, float] = {}
    for i in range(250_000):
        k = str((i * 7919) % 1009)
        table[k] = table.get(k, 0.0) + math.log1p(i)
    return time.perf_counter() - start


def timed(action):
    """Run ``action`` between two calibrations; returns its result and the
    factor that scales its times to the reference speed."""
    before = calibrate()
    result = action()
    return result, math.sqrt(2 * CALIBRATION_REF_S / (before + calibrate()))


def pin_to_one_core() -> int:
    """Keep this process and its children on one core, so calibration and
    measurement see the same core, and no child migrates mid-run."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def spawn(argv: list[str], stdout: Path, stderr: Path,
          timeout: float) -> Child:
    """Run one child to completion, killing it after ``timeout`` seconds;
    wall time is spawn to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        done = threading.Event()

        def watchdog() -> None:
            if not done.wait(timeout):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(proc.pid, signal.SIGKILL)

        guard = threading.Thread(target=watchdog, daemon=True)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            guard.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss * 1024 / 1e6, proc.returncode)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "dialact.cli", *args]


def _files(path: Path) -> list[Path]:
    if path.is_dir():
        return sorted(p for p in path.rglob("*") if p.is_file())
    return [path] if path.is_file() else []


def fingerprint(paths: list[Path]) -> str:
    """sha256 over the names (relative to their root) and bytes of files."""
    digest = hashlib.sha256()
    for root in paths:
        for f in _files(root):
            digest.update(str(f.relative_to(root.parent)).encode() + b"\0")
            digest.update(f.read_bytes())
    return digest.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in _files(path))


def arpa_entries(directory: Path) -> int:
    total = 0
    for f in sorted(directory.glob("*.arpa")):
        with open(f, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("ngram "):
                    total += int(line.split("=")[1])
                elif line.startswith("\\1-grams"):
                    break
    return total


def dense_ratio(models: Path) -> float:
    """Entries in da_lms_smoothed/ per entry in da_lms/."""
    return arpa_entries(models / "da_lms_smoothed") / arpa_entries(models / "da_lms")


@dataclass
class Tally:
    """Commands attempted and failed, with the reasons, and the time by
    which the run must be done."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    deadline: float = field(
        default_factory=lambda: time.perf_counter() + RUN_LIMIT_S)

    def time_left(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)


class SetupFailed(Exception):
    pass


def setup(wl, seed: int, work: Path, tally: Tally):
    """Generate inputs (and train models) repeatedly; keep the last copy."""
    from gen import generate

    times, scales, prints = [], [], []
    setup_dir = work / "setup"
    models = setup_dir / "models"
    reps = GENERATION_SETUPS if wl.trains_in_pass else TRAINING_SETUPS

    def once():
        start = time.perf_counter()
        inputs = generate(wl.spec, seed, setup_dir / "inputs")
        if not wl.trains_in_pass:
            tally.attempted += 1
            child = spawn(cli_argv(wl.train_argv(inputs, models)),
                          setup_dir / "train.out", setup_dir / "train.err",
                          tally.time_left())
            if child.code != 0:
                tally.fail(f"set-up train exited {child.code}")
                raise SetupFailed((setup_dir / "train.err").read_text()[-2000:])
        return inputs, time.perf_counter() - start

    while len(times) < reps:
        shutil.rmtree(setup_dir, ignore_errors=True)
        (inputs, took), factor = timed(once)
        times.append(took)
        scales.append(factor)
        prints.append(fingerprint([setup_dir / "inputs"] + (
            [] if wl.trains_in_pass else [models])))
    if len(set(prints)) != 1:
        tally.fail("set-up is not deterministic: fingerprints differ")
    return inputs, models, times, scales, prints[0]


@dataclass
class Pass:
    wall_s: float                # raw
    cpu_s: float                 # raw
    rss_mb: float
    scale: float                 # from the calibrations around it
    prints: list[str]


def run_pass(wl, inputs, models, out: Path, seed: int, tally: Tally,
             reference: list[str] | None, quality: dict) -> Pass:
    """One pass of the workload's commands as fresh CLI children.

    The first pass (``reference`` is None) has its outputs checked; later
    passes must reproduce its fingerprints.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    commands = wl.commands(wl, inputs, models, out, seed)
    children, factor = timed(lambda: [
        spawn(cli_argv(cmd.argv), out / f"cmd{i}.out", out / f"cmd{i}.err",
              tally.time_left()) for i, cmd in enumerate(commands)])
    prints = []
    for i, (cmd, child) in enumerate(zip(commands, children)):
        tally.attempted += 1
        prints.append(fingerprint(cmd.outputs))
        if child.code != 0:
            tally.fail(f"{cmd.argv[0]} exited {child.code}: "
                       f"{(out / f'cmd{i}.err').read_text()[-500:]}")
        elif reference is None:
            judge(cmd, out / f"cmd{i}.out", tally, quality)
        elif prints[i] != reference[i]:
            tally.fail(f"{cmd.argv[0]}: outputs differ from the first pass")
    return Pass(sum(c.wall_s for c in children), sum(c.cpu_s for c in children),
                max(c.rss_mb for c in children), factor, prints)


def judge(cmd, stdout: Path, tally: Tally, quality: dict) -> None:
    from workloads import CheckFailed

    try:
        figures = cmd.check(stdout)
    except (CheckFailed, ValueError, OSError, KeyError, IndexError) as exc:
        tally.fail(f"{cmd.argv[0]} output check: {exc!r}")
        return
    for key, value in figures.items():
        quality.setdefault(key, []).append(value)


def traced_pass(wl, inputs, models, out: Path, seed: int, tally: Tally,
                reference: list[str]) -> dict:
    """One pass in this process under the tracer; returns layer metrics."""
    import dialact.cli
    from spans import Tracer, layer_metrics

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = Tracer()
    tracer.install()
    total = 0.0
    try:
        for i, cmd in enumerate(wl.commands(wl, inputs, models, out, seed)):
            tally.attempted += 1
            with open(out / f"cmd{i}.out", "w") as so, \
                    open(out / f"cmd{i}.err", "w") as se, \
                    contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                start = time.perf_counter()
                code = dialact.cli.main(cmd.argv)
                total += time.perf_counter() - start
            if code != 0:
                tally.fail(f"traced {cmd.argv[0]} returned {code}")
            elif fingerprint(cmd.outputs) != reference[i]:
                tally.fail(f"traced {cmd.argv[0]}: outputs differ from untraced")
    finally:
        tracer.uninstall()
    return layer_metrics(tracer.spans, tracer.counts, total)


def import_seconds(work: Path, tally: Tally, repeats: int = 5) -> float:
    """Median wall time of a fresh interpreter that imports dialact.cli."""
    walls = [spawn([sys.executable, "-c", "import dialact.cli"],
                   work / "import.out", work / "import.err",
                   tally.time_left()).wall_s
             for _ in range(repeats)]
    return statistics.median(walls)


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path,
                 tally: Tally) -> dict:
    inputs, models, setup_times, setup_scales, input_print = setup(
        wl, seed, work, tally)
    quality: dict[str, list[float]] = {}
    passes: list[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        reference = passes[0].prints if passes else None
        passes.append(run_pass(wl, inputs, models, work / "pass", seed, tally,
                               reference, quality))
    model_dir = work / "pass" / "models" if wl.trains_in_pass else models
    wall = statistics.median(p.wall_s * p.scale for p in passes)
    record = {
        "e2e": {
            "wall_s": wall,
            "cpu_s": statistics.median(p.cpu_s * p.scale for p in passes),
            "utts_per_s": wl.processed(inputs) / wall,
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
            "setup_s": statistics.median(
                t * f for t, f in zip(setup_times, setup_scales)),
            "model_mb": tree_bytes(model_dir) / 1e6,
        },
        "quality": {k: v[0] for k, v in quality.items()},
        "fingerprints": {"inputs+setup": input_print,
                         "outputs": passes[0].prints},
        "samples": {"raw_wall_s": [p.wall_s for p in passes],
                    "raw_cpu_s": [p.cpu_s for p in passes],
                    "scale": [p.scale for p in passes],
                    "peak_rss_mb": [p.rss_mb for p in passes],
                    "raw_setup_s": setup_times,
                    "setup_scale": setup_scales},
    }
    raw_wall = statistics.median(p.wall_s for p in passes)
    # Children inherit this process's peak RSS in ru_maxrss (exec keeps the
    # high-water mark), so it must stay below theirs; recorded to show it.
    record["bench_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if trace:
        imp = import_seconds(work, tally) * len(passes[0].prints)
        layers = []
        deadline = time.perf_counter() + seconds / 2
        while not layers or time.perf_counter() < deadline:
            layers.append(traced_pass(wl, inputs, models, work / "traced",
                                      seed, tally, passes[0].prints))
        layer = sorted(layers, key=lambda m: m["trace.total_s"])[len(layers) // 2]
        layer["cli.import_s"] = imp
        layer["trace.overhead_s"] = layer["trace.total_s"] - (raw_wall - imp)
        layer["ngram.dense_ratio"] = dense_ratio(model_dir)
        record["layers"] = layer
    return record


def summary(name: str, seed: int, record: dict, tally: Tally) -> list[str]:
    e2e, samples = record["e2e"], record["samples"]
    raw = {k: statistics.median(samples[f"raw_{k}"])
           for k in ("wall_s", "cpu_s", "setup_s")}
    lines = [f"# {name} seed={seed} passes={len(samples['raw_wall_s'])} "
             f"setups={len(samples['raw_setup_s'])} speed scale "
             f"{statistics.median(samples['scale']):.3f}"]
    for key, unit in E2E_UNITS.items():
        note = f"  (raw {raw[key]:.6g} {unit})" if key in raw else ""
        lines.append(f"{key:<14} {e2e[key]:>12.6g} {unit}{note}")
    frac = len(tally.failures) / tally.attempted
    lines.append(f"{'failed_frac':<14} {frac:>12.6g} "
                 f"({len(tally.failures)}/{tally.attempted} commands)")
    for key, value in sorted(record["quality"].items()):
        lines.append(f"{key:<14} {value:>12.6g}")
    for key, value in sorted(record.get("layers", {}).items()):
        lines.append(f"{key:<26} {value:>12.6g}")
    lines.append(f"fingerprint inputs+setup {record['fingerprints']['inputs+setup']}")
    for i, fp in enumerate(record["fingerprints"]["outputs"]):
        lines.append(f"fingerprint command{i} {fp}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time per run (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dialact" / "cli.py").is_file():
        print(f"error: {SRC / 'dialact'} not found; run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    core = pin_to_one_core()
    from spans import UNITS as LAYER_UNITS
    from workloads import workloads

    table = workloads()
    names = list(table) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in table]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; one of {', '.join(table)}")

    for name in names:
        tally = Tally()
        work = STATE / "work" / f"{name}-seed{args.seed}-pid{os.getpid()}"
        try:
            record = run_workload(table[name], args.seed, args.seconds,
                                  bool(args.trace), work, tally)
        except SetupFailed as exc:
            print(f"error: {name}: set-up failed:\n{exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print("\n".join(summary(name, args.seed, record, tally)))
        metrics = record["layers"] if args.trace else record["e2e"]
        units = LAYER_UNITS if args.trace else E2E_UNITS
        result = {
            "correct": not tally.failures,
            "attempted": tally.attempted,
            "failed": len(tally.failures),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
        }
        results = STATE / "results"
        results.mkdir(parents=True, exist_ok=True)
        suffix = "-trace" if args.trace else ""
        (results / f"{name}-seed{args.seed}{suffix}.json").write_text(
            json.dumps({"workload": name, "seed": args.seed,
                        "seconds": args.seconds, "core": core,
                        "result": result,
                        "failures": tally.failures, **record}, indent=1) + "\n")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
