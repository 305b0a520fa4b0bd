"""End-to-end benchmark of the amalgamlab command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  A run writes the workload's seeded input files, then runs its
command list pass after pass for about S seconds (whole passes only, at
least one).  Every command starts a fresh interpreter through
``perfbench/launch.py``, because users pay interpreter start, import and the
uncached catalog automorphism search on every invocation.  Every report is
checked against the expected values in ``workloads.py``.

With ``--trace 0`` the last line of output holds the end-to-end metrics,
timings as medians over the run's passes or processes.  With ``--trace 1``
untraced and traced passes alternate, and the last line holds the per-layer
metrics of the traced passes plus the tracing overhead.  The line before it
records the provenance (kernel backend, guard values, Python version, CPU
count, seed) and the sample counts.

Exit codes: 0 when every report was correct, 1 when any command failed the
correctness gate (the result is still printed), 2 when the program cannot
be run at all or its processes disagree on backend or guards (nothing is
printed on stdout).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from gate import check_command
from tracer import self_times
from workloads import WORKLOADS, Command, commands, generate_inputs, resolve

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
# Every command is killed once the run has lasted this long, so that a run
# always ends within the three minutes it is allowed.
RUN_LIMIT_S = 170.0
# The tail percentile, and the samples it must leave beyond it.
TAIL_PERCENTILE = 90.0
TAIL_BEYOND = 10


class BenchmarkError(Exception):
    """The program cannot be benchmarked; no result is printed."""


@dataclass
class Sample:
    command: int
    wall_s: float
    setup_s: float
    rss_mb: float
    problems: list[str]
    record: dict


@dataclass
class Pass:
    samples: list[Sample] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples)


class Finished(NamedTuple):
    wall_s: float
    setup_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    record: dict


class Runner:
    """Runs commands of one workload in fresh interpreters."""

    def __init__(self, workdir: Path, files: dict[str, str], started: float) -> None:
        self.workdir = workdir
        self.files = files
        self.kill_at = started + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = (
            src + os.pathsep + self.env["PYTHONPATH"]
            if self.env.get("PYTHONPATH")
            else src
        )
        self._next = 0

    def launch(self, command_id: int, argv: list[str], traced: bool) -> Finished:
        """Run one command in a fresh interpreter and wait for it."""
        self._next += 1
        record_path = self.workdir / f"record{self._next}.json"
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        args = [sys.executable, str(LAUNCHER), str(record_path), str(command_id),
                "1" if traced else "0", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                args, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=ROOT,
            )
            killer = threading.Timer(max(self.kill_at - start, 0.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {}
        if record_path.exists():
            try:
                record = json.loads(record_path.read_text())
            except json.JSONDecodeError:
                pass  # cut short by the kill; the gate reports the command
            record_path.unlink()
        setup = record["imported"] - start if "imported" in record else end - start
        return Finished(
            end - start,
            setup,
            usage.ru_maxrss / 1024.0,
            proc.returncode,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
            record,
        )

    def run(self, command_id: int, command: Command, traced: bool) -> Sample:
        done = self.launch(command_id, resolve(command, self.files), traced)
        problems = check_command(command, done.code, done.stdout)
        if problems and done.stderr.strip():
            problems.append("stderr: " + done.stderr.strip().splitlines()[-1])
        return Sample(
            command_id, done.wall_s, done.setup_s, done.rss_mb, problems, done.record
        )


def provenance_of(record: dict) -> dict:
    return {"backend": record.get("backend"), "guards": record.get("guards")}


def tail(passes: list[list[float]]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the command wall times of
    a run, given pass by pass in command order.

    The value is the TAIL_PERCENTILE point when the run has at least
    TAIL_BEYOND samples beyond it.  Otherwise it is the median wall time of
    the workload's slowest command, reported as percentile 100.  A fixed
    percentile keeps the metric's meaning when a faster program fits more
    passes into a run.
    """
    xs = sorted(t for p in passes for t in p)
    n = len(xs)
    k = math.ceil(n * TAIL_PERCENTILE / 100.0) - 1
    if n - 1 - k >= TAIL_BEYOND:
        return xs[k], TAIL_PERCENTILE, n - 1 - k
    return max(statistics.median(c) for c in zip(*passes)), 100.0, 0


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    samples = [s for p in passes for s in p.samples]
    times = [s.wall_s for s in samples]
    tail_value, tail_pct, beyond = tail([[s.wall_s for s in p.samples] for p in passes])
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(s.setup_s for s in samples), "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "cmd_tail_s": (tail_value, "s"),
        "peak_rss_mb": (max(s.rss_mb for s in samples), "MB"),
    }
    detail = {
        "passes": len(passes),
        "cmd_samples": len(times),
        "cmd_tail_percentile": round(tail_pct, 2),
        "cmd_tail_beyond": beyond,
    }
    return metrics, detail


# Per-layer metrics: layer self times, chosen function self times, counts.
LAYERS = ("group", "structure", "actions", "pairs", "graphs", "amalgams",
          "verify", "cli")
SPAN_SELF = (
    "group.normalizer", "group.centralizer", "group.normal_closure",
    "group.pointwise_stabilizer", "group.coset_action", "group.intersection",
    "structure.sylow", "structure.o_upper_p", "structure.conjugacy_classes",
    "structure.thompson_subgroup",
    "actions.classify_action",
    "graphs.graph_automorphisms",
    "amalgams.core_sequence", "amalgams.faithful_kernel",
    "amalgams.verify_inflation",
    "verify.verify_theorem", "verify.proof_trace", "verify.hauptlemma_check",
    "perm.parse",
)
COUNTS = (
    "kernels.compose.calls", "kernels.inverse.calls", "kernels.conjugate.calls",
    "kernels.orbit_transversal.calls", "group.contains.calls",
    "group.chain.builds", "group.element_scan.elements",
    "actions.induced_action.calls", "amalgams.GroupIso.builds",
)
SPAN_CALLS = ("pairs.verify_approximation",)


def pass_layers(p: Pass) -> dict[str, float]:
    """Self times and counts of one traced pass, summed over its commands."""
    out: dict[str, float] = {}
    counts: dict[str, int] = {}
    for sample in p.samples:
        spans = sample.record.get("spans", [])
        selfs = self_times(spans)
        for span in spans:
            name = span[1]
            layer = name.partition(".")[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + selfs[span[0]]
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + selfs[span[0]]
            counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
        for name, value in sample.record.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + value
    metrics = {f"{layer}.self_s": out.get(f"{layer}.self_s", 0.0) for layer in LAYERS}
    metrics.update({f"{n}.self_s": out.get(f"{n}.self_s", 0.0) for n in SPAN_SELF})
    metrics.update({n: counts.get(n, 0) for n in COUNTS})
    metrics.update({f"{n}.calls": counts.get(f"{n}.calls", 0) for n in SPAN_CALLS})
    tests = counts.get("graphs.autos.membership_tests", 0)
    metrics["graphs.autos.generator_yield"] = (
        counts.get("graphs.autos.generators", 0) / tests if tests else 0.0
    )
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_yield"):
        return "ratio"
    return "count"


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, dict]:
    rows = [pass_layers(p) for p in traced]
    metrics = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        # Counts repeat exactly from pass to pass; times are medians.
        value = statistics.median(values) if unit_of(name) == "s" else values[0]
        metrics[name] = (value, unit_of(name))
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    detail = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "counts_repeat": all(
            row[n] == rows[0][n] for row in rows for n in rows[0] if unit_of(n) != "s"
        ),
    }
    return metrics, detail


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result, provenance and detail)."""
    if not (ROOT / "src" / "amalgamlab" / "cli.py").is_file():
        raise BenchmarkError(f"no amalgamlab sources under {ROOT / 'src'}")
    started = time.monotonic()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workdir, generate_inputs(seed, workdir), started)
        # Warm-up: compiles the package's bytecode, shows that it imports and
        # records the backend and guards that every command must share.
        warm = runner.launch(-1, ["--help"], False)
        if warm.code != 0 or "backend" not in warm.record:
            raise BenchmarkError("amalgamlab does not start: " + warm.stderr.strip()[-500:])
        expected = provenance_of(warm.record)
        cmd_list = commands(workload)
        deadline = started + seconds
        kinds = (False, True) if trace else (False,)
        passes: dict[bool, list[Pass]] = {False: [], True: []}
        cycles: list[float] = []
        while True:
            cycle_start = time.monotonic()
            for traced in kinds:
                p = Pass()
                for i, command in enumerate(cmd_list):
                    p.samples.append(runner.run(i, command, traced))
                passes[traced].append(p)
            cycles.append(time.monotonic() - cycle_start)
            if time.monotonic() + statistics.median(cycles) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    samples = [s for ps in passes.values() for p in ps for s in p.samples]
    for s in samples:
        if provenance_of(s.record) != expected and not s.problems:
            raise BenchmarkError(
                f"command {s.command} ran with {provenance_of(s.record)}, "
                f"expected {expected}; refusing to mix results"
            )
    failures = [
        f"{workload}[{s.command}] {' '.join(cmd_list[s.command].argv)}: {p}"
        for s in samples
        for p in s.problems
    ]
    if trace:
        metrics, detail = per_layer(passes[False], passes[True])
    else:
        metrics, detail = end_to_end(passes[False])
    failed = sum(1 for s in samples if s.problems)
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    info = {
        "provenance": {
            **expected,
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "seed": seed,
            "workload": workload,
            "seconds": seconds,
            "trace": int(trace),
        },
        "detail": {**detail, "error_rate": failed / len(samples)},
        "failures": failures[:20],
    }
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in info["failures"]:
        print(f"perfbench: incorrect: {line}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
