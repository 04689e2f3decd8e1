"""Tests of the benchmark itself.

Honest CLI outputs pass the reference checks and tampered ones are
counted as failed; command time no traced call covers is reported as
unaccounted; the smoke mode emits every metric BENCHMARK.json names;
without th4 sources the benchmark fails without a result.

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import spans


@pytest.fixture(scope="module")
def cli():
    return run._import_cli()


def produce(cli, name, tmp_path):
    """Prepare a smoke-size workload and run its invocations through the real CLI."""
    workload = run.PREPARE[name](tmp_path, random.Random(7), run.PROFILES["smoke"])
    outputs = run.Outputs(tmp_path)
    produced = []
    for invocation in workload.invocations:
        argv, results = outputs.argv(invocation)
        ok, stdout, error = run.call_in_process(cli, argv)
        assert ok, error
        produced.append((invocation, stdout, run.Outputs.take(results)))
    return produced


def failed(invocation, stdout, results, ok=True):
    tally = run.Tally()
    tally.add(invocation, ok, stdout, results, "")
    assert tally.attempted == invocation.units
    return tally.failed


def nudge(text: str, line: int, column: int, delta: float, sep: str = ",") -> str:
    lines = text.splitlines()
    fields = lines[line].split(sep)
    fields[column] = repr(float(fields[column]) + delta)
    lines[line] = sep.join(fields)
    return "\n".join(lines) + "\n"


def test_lowcard_outputs_checked(cli, tmp_path):
    (report, _, csv_text), (decompose, listing, _) = produce(cli, "lowcard", tmp_path)
    assert failed(report, "", csv_text) == 0
    assert failed(report, "", nudge(csv_text, 1, -1, 1e-6)) == 1
    assert failed(report, "", csv_text.replace(",4,", ",3,", 1)) == 1
    assert failed(decompose, listing, "") == 0
    assert failed(decompose, nudge(listing, 2, 3, 1e-6), "") == 1
    assert failed(decompose, "\n".join(listing.splitlines()[:-1]), "") == 1
    assert failed(decompose, listing, "", ok=False) == decompose.units


def test_ipf3_output_checked(cli, tmp_path):
    [(fit, stdout, _)] = produce(cli, "ipf3", tmp_path)
    assert failed(fit, stdout, "") == 0
    doc = json.loads(stdout)
    doc["interaction_bits"] += 1e-8
    assert failed(fit, json.dumps(doc), "") == 1
    assert failed(fit, stdout[:-5], "") == 1


def test_batch_rows_checked(cli, tmp_path):
    [(batch, stdout, csv_text)] = produce(cli, "batch", tmp_path)
    assert failed(batch, stdout, csv_text) == 0
    lines = csv_text.splitlines()
    assert failed(batch, stdout, "\n".join(lines[:-1]) + "\n") == 1
    assert failed(batch, stdout, nudge(csv_text, 3, 5, -1e-7)) == 1


def test_command_time_outside_traced_calls_is_unaccounted():
    tracer = spans.Tracer()
    command = tracer.begin(spans.COMMAND, "report")
    load = tracer.begin("ingest", "load_dataset")
    tracer.end(load)
    tracer.end(command)
    command.start, command.end = 0.0, 1.0
    load.start, load.end = 0.25, 0.5
    load.cpu_start = load.cpu_end = 0.0
    metrics = spans.pass_metrics(tracer, wall=1.5)
    assert metrics["ingest.self_s"] == 0.25
    assert metrics["cli.self_s"] == 0.0
    assert metrics["trace.unaccounted_s"] == 1.25


def test_smoke_emits_every_named_metric():
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke_ok": True}


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lowcard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
