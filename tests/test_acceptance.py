"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints a `PASS criterion N` line on success (visible with
`pytest -s` or in the captured-output summary with `-rA`). Stated
tolerances are pinned in the assertions.
"""

from __future__ import annotations

import random
import re
import time
from math import fsum, log2

import pytest
from click.testing import CliRunner

import oracles
from th4.cli import main
from th4.decompose import decompose_by_dimension
from th4.infocalc import (
    conditional_transmission,
    entropy,
    full_report,
    transmission,
)
from th4.ingest import Dataset
from th4.maxent import ipf_fit, krippendorff_interaction
from th4.tables import build_table, merge

LISTING_LINE = re.compile(r"^([HT])\(([WXYZ]+)\)\s+(-?\d+\.\d+)$")


def _pass(number, message):
    print(f"PASS criterion {number}: {message}")


def test_c01_golden_worked_example(golden4_path, tmp_path):
    runner = CliRunner()
    started = time.perf_counter()
    result = runner.invoke(
        main,
        ["report", "--input", str(golden4_path), "--output", str(tmp_path / "runs.csv")],
    )
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0
    shown = {}
    for line in result.output.splitlines():
        match = LISTING_LINE.match(line)
        if match:
            kind, dims, value = match.groups()
            shown[f"{kind}_{dims}"] = float(value)
    assert len(shown) == 26
    for name, expected in oracles.GOLDEN4_DISPLAY.items():
        assert shown[name] == pytest.approx(expected, abs=0.005), name
    assert shown["T_WXZ"] == pytest.approx(-0.19, abs=0.005)
    assert shown["T_WYZ"] == pytest.approx(-0.19, abs=0.005)
    assert shown["T_WXYZ"] == pytest.approx(-0.19, abs=0.005)
    assert shown["T_XYZ"] == pytest.approx(0.00, abs=0.005)
    assert elapsed < 1.0
    _pass(1, f"all 26 listed values match within 0.005 in {elapsed:.3f}s")


def test_c02_first_dimension_entropy_components(golden4_table):
    component_a = -(3 / 4) * log2(3 / 4)
    component_b = -(1 / 4) * log2(1 / 4)
    value = entropy(golden4_table, (0,))
    assert value == pytest.approx(component_a + component_b, abs=1e-6)
    assert value == pytest.approx(0.811278, abs=1e-6)
    assert component_a == pytest.approx(0.31, abs=0.005)
    assert component_b == pytest.approx(0.50, abs=0.005)
    _pass(2, f"H(W) = {value:.9f} = {component_a:.4f} + {component_b:.4f}")


def test_c03_inclusion_exclusion_consistency():
    rng = random.Random(1003)
    started = time.perf_counter()
    for _ in range(1000):
        arity = rng.choice((3, 4))
        sizes = [rng.randint(2, 4) for _ in range(arity)]
        rows = oracles.random_rows(rng, arity, sizes, rng.randint(1, 50))
        table = oracles.table_from_rows(rows)
        a, b, c = rng.sample(range(arity), 3)
        assert transmission(table, (a, b)) == pytest.approx(
            oracles.mi_definitional(rows, a, b), abs=1e-12
        )
        mcgill = transmission(table, (a, b)) - conditional_transmission(table, a, b, c)
        assert transmission(table, (a, b, c)) == pytest.approx(mcgill, abs=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _pass(3, f"1000 random tables consistent within 1e-12 in {elapsed:.2f}s")


def test_c04_independence_null():
    rng = random.Random(1004)
    fixtures = [[[1, 2], [1, 3], [2, 1], [1, 1, 2]]]
    for _ in range(10):
        arity = rng.choice((3, 4))
        fixtures.append(
            [[rng.randint(1, 4) for _ in range(rng.randint(2, 3))] for _ in range(arity)]
        )
    for weights in fixtures:
        table = oracles.table_from_rows(oracles.product_rows(weights))
        report = full_report(table)
        for subset, value in report.t.items():
            assert value == pytest.approx(0.0, abs=1e-9), subset
    _pass(4, "all transmissions of product-structured tables within 1e-9 of 0")


def test_c05_duplication_and_permutation_invariance():
    rng = random.Random(1005)
    for arity in (3, 4):
        rows = oracles.random_rows(rng, arity, [rng.randint(2, 4)] * arity, 43)
        perm = list(range(arity))
        rng.shuffle(perm)
        transformed = [tuple(row[d] for d in perm) for row in rows] * 7
        base = full_report(oracles.table_from_rows(rows))
        moved = full_report(oracles.table_from_rows(transformed))
        inverse = {old: new for new, old in enumerate(perm)}
        for subset, value in base.h.items():
            relabeled = tuple(sorted(inverse[d] for d in subset))
            assert abs(moved.h[relabeled] - value) <= 1e-12, ("h", subset)
        for subset, value in base.t.items():
            relabeled = tuple(sorted(inverse[d] for d in subset))
            assert abs(moved.t[relabeled] - value) <= 1e-12, ("t", subset)
    _pass(5, "7x duplication plus dimension permutation moved no value by more than 1e-12")


def test_c06_parallel_merge_equivalence():
    rng = random.Random(1006)
    rows = oracles.random_rows_bulk(rng, (12, 9, 7, 5), 1_000_000)
    dataset = oracles.dataset_from_rows(rows)

    started = time.perf_counter()
    sequential = build_table(dataset)
    n = len(dataset.records)
    bounds = [0, n // 4, n // 2, 3 * n // 4, n]
    combined = None
    for lo, hi in zip(bounds, bounds[1:]):
        shard = Dataset(dataset.records[lo:hi], dataset.arity, f"shard{lo}")
        part = build_table(shard)
        combined = part if combined is None else merge(combined, part)
    report_seq = full_report(sequential)
    report_par = full_report(combined)
    elapsed = time.perf_counter() - started

    assert dict(combined.counts) == dict(sequential.counts)
    assert combined.total == sequential.total == 1_000_000
    assert combined.alphabets == sequential.alphabets
    for key, value in report_seq.h.items():
        assert report_par.h[key] == value, key  # bit-identical
    for key, value in report_seq.t.items():
        assert report_par.t[key] == value, key
    assert elapsed < 5.0
    _pass(6, f"sharded build+merge identical to sequential on 1e6 records in {elapsed:.2f}s")


def test_c07_ipf_properties():
    parity = oracles.table_from_rows(oracles.parity_rows(copies=2))
    fit = ipf_fit(parity)
    assert fit.converged
    assert fit.interaction_bits == pytest.approx(1.0, abs=1e-6)

    independent = oracles.table_from_rows(oracles.product_rows([[1, 2], [1, 3], [2, 1]]))
    fit_ind = ipf_fit(independent)
    assert fit_ind.converged
    assert fit_ind.interaction_bits == pytest.approx(0.0, abs=1e-9)

    rng = random.Random(1007)
    for _ in range(100):
        sizes = tuple(rng.randint(2, 4) for _ in range(3))
        table = oracles.table_from_rows(oracles.random_dense_rows(rng, sizes))
        result = ipf_fit(table, tolerance=1e-12, max_iterations=20000)
        assert result.converged
        assert result.max_margin_error <= 1e-10
        n = table.total
        for dims in ((0, 1), (0, 2), (1, 2)):
            target, got = {}, {}
            for labels, count in table.counts.items():
                key = tuple(labels[d] for d in dims)
                target[key] = target.get(key, 0.0) + count / n
            for labels, q in result.fitted.items():
                key = tuple(labels[d] for d in dims)
                got[key] = got.get(key, 0.0) + q
            for key, value in target.items():
                assert abs(got[key] - value) <= 1e-10, (dims, key)
        kl = krippendorff_interaction(table, result)
        fitted_h = -sum(q * log2(q) for q in result.fitted.values() if q > 0)
        observed_h = -sum(c / n * log2(c / n) for c in table.counts.values())
        assert kl == pytest.approx(fitted_h - observed_h, abs=1e-9)
        assert kl >= -1e-12
    _pass(7, "parity=1.0, independence=0, margins<=1e-10, KL vs entropy-difference<=1e-9 on 100 tables")


def test_c08_decomposition_reconstruction(golden4):
    rng = random.Random(1008)
    cases = []
    for _ in range(20):
        arity = rng.choice((3, 4))
        rows = oracles.random_rows(rng, arity, [rng.randint(2, 3)] * arity, rng.randint(4, 80))
        dataset = oracles.dataset_from_rows(rows)
        group_dim = rng.randrange(arity)
        subset = tuple(d for d in range(arity) if d != group_dim)
        cases.append((dataset, group_dim, subset))
    for group_dim in range(4):
        subset = tuple(d for d in range(4) if d != group_dim)
        cases.append((golden4, group_dim, subset))
    for dataset, group_dim, subset in cases:
        result = decompose_by_dimension(build_table(dataset), group_dim, subset)
        reconstructed = result.t_between + fsum(g.contribution for g in result.groups)
        assert abs(reconstructed - result.t_pooled) <= 1e-12
        assert abs(fsum(g.weight for g in result.groups) - 1.0) <= 1e-12
    _pass(8, f"reconstruction exact within 1e-12 on {len(cases)} decompositions")


def test_c09_three_dimension_schema_rule(golden3_path, tmp_path):
    runner = CliRunner()
    out = tmp_path / "runs.csv"
    result = runner.invoke(
        main, ["report", "--input", str(golden3_path), "--output", str(out)]
    )
    assert result.exit_code == 0
    header, row = out.read_text(encoding="utf-8").splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    z_columns = [name for name in cells if "Z" in name]
    assert len(z_columns) == 15  # 8 entropy and 7 transmission columns
    for name in z_columns:
        assert cells[name] == "0.00", name
    _pass(9, "all 15 z-involving columns are exactly 0 for 3-dimension input")


def test_c10_planted_negative_three_way_interaction():
    rng = random.Random(1010)
    rows = oracles.noisy_parity_rows(rng, 14552, flip=0.1)
    table = oracles.table_from_rows(rows)
    value = transmission(table, (0, 1, 2))
    reference = oracles.t3(rows, 0, 1, 2)
    assert value < 0
    assert reference < 0
    assert value == pytest.approx(reference, abs=1e-9)
    _pass(10, f"14552-case planted interaction: T = {value:.4f} < 0, sign agreed by brute force")
