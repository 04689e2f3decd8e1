#!/usr/bin/env python3
"""Benchmark of the th4 command-line tool, one workload per run.

    python3 perfbench/run.py --workload lowcard --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; th4 is imported from its src/ and
never from an installed copy. The corpora are generated from --seed,
and every CLI output is checked against reference values computed from
the generator's own label counts (see reference.py).

--trace 0 runs the workload's invocations as fresh `python -m th4.cli`
processes, one after another (a closed loop with one client), for
--seconds, and reports the end-to-end metrics as means over passes
(set-up: over the set-up probes).
--trace 1 runs the same invocations inside this process for --seconds:
first one tracemalloc pass, then untraced and traced passes in turn.
It reports the per-layer metrics (see spans.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Metric names, units and the reason for
each workload come from BENCHMARK.json, and a run that would emit a
different set of metrics than it names fails. --smoke runs every
workload in both modes on tiny corpora, one pass each.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from typing import Callable

import numpy

import reference as ref
import spans
from corpus import Shape, write_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# Workload sizes and set-up samples per run. The alphabets, Zipf skew,
# blank-label share and records per batch file follow the workload
# definitions; the record counts of the single-file corpora and the
# number of batch files are cut so that one pass takes 2-4 s and a run
# holds several passes.
PROFILES = {
    "full": {
        "lowcard": Shape((12, 9, 7, 5), 100_000, empty_share=0.01),
        "highcard": Shape((2000, 2000, 50, 20), 100_000),
        "ipf3": Shape((2000, 50, 20), 100_000),
        "batch": Shape((12, 9, 7, 5), 1000, empty_share=0.01),
        "batch_files": 120,
        "setup_samples": 15,
    },
    "smoke": {
        "lowcard": Shape((12, 9, 7, 5), 2000, empty_share=0.01),
        "highcard": Shape((40, 40, 10, 5), 1000),
        "ipf3": Shape((40, 10, 5), 1000),
        "batch": Shape((12, 9, 7, 5), 200, empty_share=0.01),
        "batch_files": 12,
        "setup_samples": 2,
    },
}
INVOCATION_TIMEOUT_S = 120
SETUP_PROBES_PER_PASS = 3
OUTPUT_SLOT = "{output}"


@dataclass
class Invocation:
    """One CLI call. OUTPUT_SLOT in argv becomes a fresh results-file path."""

    argv: list[str]
    units: int  # rows or documents the call must produce
    check: Callable[[str, str], int]  # (stdout, results file) -> failed units


@dataclass
class Workload:
    invocations: list[Invocation]
    inputs: dict  # input properties for the run record


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, invocation: Invocation, ok: bool, stdout: str, results: str, error: str) -> None:
        self.attempted += invocation.units
        failed = invocation.check(stdout, results) if ok else invocation.units
        self.failed += failed
        if failed and len(self.errors) < 5:
            self.errors.append(f"{invocation.argv[0]}: {failed} failed {error.strip()[-300:]}")


def _input_props(paths: list[Path], cells: int, shape: Shape, files: int = 1) -> dict:
    records = shape.records * files
    return {
        "files": files,
        "records": records,
        "bytes": sum(p.stat().st_size for p in paths),
        "cells": cells,
        "records_per_cell": records / cells,
        "alphabets": list(shape.alphabets),
        "dense_cells": shape.dense_cells,
        "empty_label_share": shape.empty_share,
    }


def _report_call(path: Path, expected: dict) -> Invocation:
    return Invocation(
        ["report", "--full-precision", "--input", str(path), "--output", OUTPUT_SLOT],
        1,
        lambda stdout, results: ref.check_report_csv(results, [expected]),
    )


def prepare_lowcard(work: Path, rng: random.Random, profile: dict) -> Workload:
    shape = profile["lowcard"]
    path = work / "lowcard.txt"
    joint = write_corpus(path, shape, rng)
    decomposition = ref.expected_decomposition(joint, group_dim=2, dims=(0, 1, 3))
    decompose = Invocation(
        ["decompose", "--input", str(path), "--group-by", "y", "--subset", "w,x,z",
         "--drop-empty-labels", "--precision", "15"],
        ref.decomposition_units(decomposition),
        lambda stdout, results: ref.check_decompose_stdout(stdout, decomposition),
    )
    report = _report_call(path, ref.expected_report_row(path.name, joint, 4))
    return Workload([report, decompose], _input_props([path], len(joint), shape))


def prepare_highcard(work: Path, rng: random.Random, profile: dict) -> Workload:
    shape = profile["highcard"]
    path = work / "highcard.txt"
    joint = write_corpus(path, shape, rng)
    report = _report_call(path, ref.expected_report_row(path.name, joint, 4))
    return Workload([report], _input_props([path], len(joint), shape))


def prepare_ipf3(work: Path, rng: random.Random, profile: dict) -> Workload:
    shape = profile["ipf3"]
    path = work / "ipf3.txt"
    joint = write_corpus(path, shape, rng)
    expected = ref.expected_ipf(joint)
    fit = Invocation(
        ["ipf", "--input", str(path), "--subset", "wxy", "--json"],
        1,
        lambda stdout, results: ref.check_ipf_json(stdout, expected),
    )
    props = _input_props([path], len(joint), shape)
    props["fill_ratio"] = len(joint) / shape.dense_cells
    return Workload([fit], props)


def prepare_batch(work: Path, rng: random.Random, profile: dict) -> Workload:
    shape, files = profile["batch"], profile["batch_files"]
    folder = work / "batch"
    folder.mkdir()
    paths, rows, cells = [], [], 0
    for i in range(files):
        path = folder / f"part{i:04d}.txt"
        joint = write_corpus(path, shape, rng)
        paths.append(path)
        rows.append(ref.expected_report_row(path.name, joint, 4))
        cells += len(joint)
    run = Invocation(
        ["batch", str(folder), "--full-precision", "--output", OUTPUT_SLOT],
        files,
        lambda stdout, results: ref.check_report_csv(results, rows),
    )
    return Workload([run], _input_props(paths, cells, shape, files))


PREPARE = {
    "lowcard": prepare_lowcard,
    "highcard": prepare_highcard,
    "ipf3": prepare_ipf3,
    "batch": prepare_batch,
}


class Outputs:
    """Fresh results-file paths, so appends never accumulate across calls."""

    def __init__(self, work: Path):
        self.dir = work / "out"
        self.dir.mkdir()
        self.count = 0

    def argv(self, invocation: Invocation) -> tuple[list[str], Path]:
        self.count += 1
        path = self.dir / f"results{self.count}.csv"
        return [str(path) if a == OUTPUT_SLOT else a for a in invocation.argv], path

    @staticmethod
    def take(path: Path) -> str:
        if not path.exists():
            return ""
        text = path.read_text(encoding="utf-8")
        path.unlink()
        return text


# ---------------------------------------------------------------- end to end


def _spawn(cmd: list[str], work: Path, env: dict, stdout_path: Path):
    """Run one child to completion; return (wall s, rusage, exit code)."""
    with open(stdout_path, "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=out, stderr=err)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode


def setup_probe(work: Path, env: dict) -> float:
    """CPU seconds a fresh interpreter's main thread spends until `import th4.cli` returns.

    The main thread's CPU clock runs from the child's start and leaves
    out time spent waiting to be scheduled, which on a shared host
    drifts far more than the work itself, and the CPU of helper threads
    a library may start (a BLAS pool), which runs beside the import.
    """
    probe = "import time, th4.cli; print(time.thread_time(), th4.cli.__file__)"
    out = work / "probe.txt"
    _, _, code = _spawn([sys.executable, "-c", probe], work, env, out)
    cpu, _, location = out.read_text().strip().partition(" ")
    if code != 0 or not Path(location).resolve().is_relative_to(SRC):
        raise SystemExit(f"th4.cli did not import from {SRC}: {location or 'exit ' + str(code)}")
    return float(cpu)


def run_end_to_end(workload: Workload, work: Path, seconds: float, setup_samples: int,
                   tally: Tally) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
    outputs = Outputs(work)
    setup_probe(work, env)  # compiles th4's bytecode before anything is timed
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    deadline = time.perf_counter() + seconds
    while not samples["wall_s"] or time.perf_counter() < deadline:
        wall = cpu = rss = 0.0
        for invocation in workload.invocations:
            argv, results = outputs.argv(invocation)
            cmd = [sys.executable, "-m", "th4.cli", *argv]
            took, usage, code = _spawn(cmd, work, env, work / "stdout.txt")
            wall += took
            cpu += usage.ru_utime + usage.ru_stime
            rss = max(rss, usage.ru_maxrss / 1024)
            stdout = (work / "stdout.txt").read_text(encoding="utf-8", errors="replace")
            error = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            tally.add(invocation, code == 0, stdout, Outputs.take(results), error)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        samples["setup_s"].extend(setup_probe(work, env) for _ in range(SETUP_PROBES_PER_PASS))
    while len(samples["setup_s"]) < setup_samples:
        samples["setup_s"].append(setup_probe(work, env))
    # On a shared host the whole machine runs up to half again slower for
    # stretches of seconds to minutes. A median or minimum of a few passes
    # jumps between the fast and the slow speed from run to run; the mean
    # moves with the share of slow time in the run, which varies less.
    return {name: statistics.fmean(values) for name, values in samples.items()}, samples


# ---------------------------------------------------------------- traced, in process


def _import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("th4.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"th4.cli did not import from {SRC}: {cli.__file__}")
    return cli


def call_in_process(cli, argv: list[str]) -> tuple[bool, str, str]:
    """Invoke the click app in this process; return (succeeded, stdout, error)."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            cli.main.main(args=argv, prog_name="th4", standalone_mode=False)
    except (Exception, SystemExit) as exc:  # a failed call is counted, not fatal
        return False, stdout.getvalue(), repr(exc)
    return True, stdout.getvalue(), ""


def in_process_pass(cli, workload: Workload, outputs: Outputs, tally: Tally,
                    tracer: spans.Tracer | None) -> float:
    """Run every invocation in this process, under `tracer` if given; return the pass's wall time."""
    calls = [(invocation, *outputs.argv(invocation)) for invocation in workload.invocations]
    done = []
    restore = spans.install(tracer) if tracer else None
    start = time.perf_counter()
    try:
        for number, (invocation, argv, results) in enumerate(calls):
            if tracer:
                tracer.run = number
                span = tracer.begin(spans.COMMAND, argv[0])
            try:
                done.append((invocation, results, *call_in_process(cli, argv)))
            finally:
                if tracer:
                    tracer.end(span)
    finally:
        wall = time.perf_counter() - start
        if restore:
            restore()
    for invocation, results, ok, stdout, error in done:
        tally.add(invocation, ok, stdout, Outputs.take(results), error)
    return wall


def run_traced(workload: Workload, work: Path, seconds: float, tally: Tally) -> tuple[dict, list]:
    cli = _import_cli()
    outputs = Outputs(work)
    deadline = time.perf_counter() + seconds
    # The tracemalloc pass comes first and doubles as the warm-up.
    memory = spans.Tracer(memory=True)
    in_process_pass(cli, workload, outputs, tally, memory)
    overheads, passes = [], []
    while not passes or time.perf_counter() < deadline:
        tracer = spans.Tracer()
        if len(passes) % 2:  # alternate which pass of a pair goes first
            wall = in_process_pass(cli, workload, outputs, tally, tracer)
            plain = in_process_pass(cli, workload, outputs, tally, None)
        else:
            plain = in_process_pass(cli, workload, outputs, tally, None)
            wall = in_process_pass(cli, workload, outputs, tally, tracer)
        overheads.append(wall / plain - 1)
        passes.append((tracer, wall))

    metrics = spans.median_metrics([spans.pass_metrics(t, wall) for t, wall in passes])
    files = [s * 1000 for t, _ in passes for s in spans.file_times(t)]
    metrics["cli.file_p50_ms"] = statistics.median(files)
    metrics["cli.file_tail_ms"] = spans.tail(files)
    metrics["ingest.peak_alloc_mb"] = spans.peak_alloc_mb(memory, "ingest")
    metrics["maxent.peak_alloc_mb"] = spans.peak_alloc_mb(memory, "maxent")
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    record = [
        [pass_number, *span.as_list()]
        for pass_number, (t, _) in enumerate(passes)
        for span in t.spans
    ]
    detail = {"passes": len(passes), "file_samples": len(files), "overheads": overheads}
    return metrics, [detail, record]


# ---------------------------------------------------------------- run record


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when it is no git repository (git looks no higher)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    with contextlib.suppress(OSError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                info[f"l{level}_cache"] = (index / "size").read_text().strip()
    info["numpy"] = numpy.__version__
    with contextlib.suppress(PackageNotFoundError):
        info["click"] = version("click")
    return info


# ---------------------------------------------------------------- entry point


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload_name: str, seed: int, seconds: float, trace: bool, profile_name: str) -> dict:
    """Run one workload in one mode; return the result object (plus 'record')."""
    definition = load_definition()
    whys = {w["name"]: w["why"] for w in definition["workloads"]}
    if workload_name not in whys:
        raise SystemExit(f"unknown workload {workload_name!r}; BENCHMARK.json names {sorted(whys)}")
    declared = definition["per_layer" if trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    tally = Tally()
    try:
        started = time.perf_counter()
        rng = random.Random(f"{workload_name}:{seed}")
        profile = PROFILES[profile_name]
        workload = PREPARE[workload_name](work, rng, profile)
        prepare_s = time.perf_counter() - started
        if trace:
            metrics, detail = run_traced(workload, work, seconds, tally)
        else:
            metrics, detail = run_end_to_end(workload, work, seconds, profile["setup_samples"], tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    emitted, named = set(metrics), {m["name"] for m in declared}
    if emitted != named:
        raise SystemExit(
            f"metrics emitted and named in BENCHMARK.json differ: "
            f"only emitted {sorted(emitted - named)}, only named {sorted(named - emitted)}"
        )
    record = {
        "workload": workload_name,
        "why": whys[workload_name],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "profile": profile_name,
        "git_sha": _git_sha(),
        "machine": machine(),
        "inputs": workload.inputs,
        "prepare_s": prepare_s,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "errors": tally.errors,
        "metrics": metrics,
        "detail": detail,
    }
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
        "record": record,
    }


def _save(result: dict) -> Path:
    record = result["record"]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return path


def smoke() -> int:
    """Every workload in both modes on tiny corpora; fails unless all outputs are correct."""
    bad = 0
    for workload in load_definition()["workloads"]:
        for trace in (False, True):
            result = run(workload["name"], seed=1, seconds=0, trace=trace, profile_name="smoke")
            names = ", ".join(result["metrics"])
            print(f"{workload['name']} trace={int(trace)} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}: {names}")
            bad += not result["correct"]
    print(json.dumps({"smoke_ok": bad == 0}))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, every workload and mode")
    args = parser.parse_args()
    if not (SRC / "th4" / "cli.py").is_file():
        print(f"error: no th4 sources under {SRC}; run from a th4 checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required unless --smoke is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    saved = _save(result)
    record = result.pop("record")
    for name, metric in result["metrics"].items():
        print(f"{name:26} {metric['value']:>14.6g} {metric['unit']}")
    print("run", json.dumps({k: v for k, v in record.items() if k not in ("metrics", "detail")}))
    print(f"failed_frac {record['failed_frac']:.6g}; samples and spans in {saved.relative_to(ROOT)}")
    for error in record["errors"]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
