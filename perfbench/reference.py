"""Reference values computed from the generator's own label counts, and output checks.

Nothing here imports th4. Entropies use the count-histogram form

    H = log2 N - (1/N) * sum_c m_c * c * log2 c

(m_c cells with count c), a different formula from th4's per-cell
plug-in sum, so a shared mistake is unlikely. The interaction
information comes from a small dense numpy fit run to a tighter
tolerance than the CLI's. A value counts as wrong when it is more than
TOLERANCE bits from the reference.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from itertools import combinations
from math import fsum, log2
from operator import itemgetter

import numpy as np

TOLERANCE = 1e-9
DIM_NAMES = "WXYZ"
IPF_TOLERANCE = 1e-13
IPF_MAX_ITERATIONS = 100


def entropy_bits(counts) -> float:
    """Shannon entropy in bits of the distribution given by positive counts."""
    histogram = Counter(counts)
    n = sum(c * m for c, m in histogram.items())
    return log2(n) - fsum(m * c * log2(c) for c, m in histogram.items()) / n


def marginal(joint: Counter, dims: tuple[int, ...]) -> Counter:
    key = itemgetter(*dims)
    out: Counter = Counter()
    for cell, count in joint.items():
        out[key(cell)] += count
    return out


def subset_entropies(joint: Counter, arity: int) -> dict[tuple[int, ...], float]:
    """H of every non-empty dimension subset, keyed by sorted index tuple."""
    return {
        dims: entropy_bits(marginal(joint, dims).values())
        for size in range(1, arity + 1)
        for dims in combinations(range(arity), size)
    }


def transmission_bits(h: dict[tuple[int, ...], float], dims: tuple[int, ...]) -> float:
    return fsum(
        (-1) ** (len(sub) + 1) * h[sub]
        for size in range(1, len(dims) + 1)
        for sub in combinations(dims, size)
    )


def report_values(joint: Counter, arity: int) -> dict[str, float]:
    """Every H_<dims> and T_<dims> column th4 writes, by column name; absent dimensions read 0."""
    h = subset_entropies(joint, arity)
    values = {}
    for size in range(1, 5):
        for dims in combinations(range(4), size):
            name = "".join(DIM_NAMES[d] for d in dims)
            present = all(d < arity for d in dims)
            values[f"H_{name}"] = h[dims] if present else 0.0
            if size >= 2:
                values[f"T_{name}"] = transmission_bits(h, dims) if present else 0.0
    return values


def expected_report_row(label: str, joint: Counter, arity: int) -> dict:
    return {
        "label": label,
        "n_cases": sum(joint.values()),
        "arity": arity,
        "values": report_values(joint, arity),
    }


def expected_decomposition(joint: Counter, group_dim: int, dims: tuple[int, ...]) -> dict:
    """Per-group and pooled transmission over `dims`, records with a blank label dropped."""
    kept = Counter({cell: c for cell, c in joint.items() if all(cell)})
    n = sum(kept.values())
    arity = len(next(iter(kept)))
    pooled_h = subset_entropies(kept, arity)
    pooled = transmission_bits(pooled_h, dims)
    by_group: dict[str, Counter] = {}
    for cell, count in kept.items():
        by_group.setdefault(cell[group_dim], Counter())[cell] = count
    groups = {}
    for label, part in by_group.items():
        n_g = sum(part.values())
        t_g = transmission_bits(subset_entropies(part, arity), dims)
        groups[label] = (n_g, n_g / n, t_g, n_g / n * t_g)
    between = pooled - fsum(g[3] for g in groups.values())
    return {"n": n, "groups": groups, "pooled": pooled, "between": between}


def ipf_interaction_bits(joint: Counter) -> float:
    """Divergence of the observed 3-way joint from its max-entropy fit to all 2-way margins."""
    alphabets = [sorted({cell[d] for cell in joint}) for d in range(3)]
    index = [{label: i for i, label in enumerate(alpha)} for alpha in alphabets]
    p = np.zeros([len(a) for a in alphabets])
    for cell, count in joint.items():
        p[tuple(index[d][cell[d]] for d in range(3))] = count
    p /= p.sum()
    targets = [(axis, p.sum(axis=axis)) for axis in (2, 1, 0)]
    q = np.ones_like(p)
    for axis, target in targets:
        q *= np.expand_dims(target > 0, axis)
    q /= q.sum()
    for _ in range(IPF_MAX_ITERATIONS):
        for axis, target in targets:
            current = q.sum(axis=axis)
            q *= np.expand_dims(
                np.divide(target, current, out=np.zeros_like(current), where=current > 0), axis
            )
        error = max(float(np.abs(q.sum(axis=axis) - target).max()) for axis, target in targets)
        if error <= IPF_TOLERANCE:
            break
    observed = p > 0
    return fsum((p[observed] * np.log2(p[observed] / q[observed])).tolist())


def expected_ipf(joint: Counter) -> dict:
    interaction = ipf_interaction_bits(joint)
    t3 = transmission_bits(subset_entropies(joint, 3), (0, 1, 2))
    return {
        "n_cases": sum(joint.values()),
        "interaction_bits": interaction,
        "transmission_bits": t3,
        "redundancy_bits": interaction - t3,
    }


def _close(got: str | float, want: float) -> bool:
    try:
        value = float(got)
    except (TypeError, ValueError):
        return False
    return math.isfinite(value) and abs(value - want) <= TOLERANCE


def check_report_csv(text: str, expected_rows: list[dict]) -> int:
    """Number of expected rows missing or wrong in a results CSV; extra rows count too."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return len(expected_rows)
    header, body = rows[0], rows[1:]
    failed = abs(len(body) - len(expected_rows))
    for row, want in zip(body, expected_rows):
        got = dict(zip(header, row))
        ok = (
            len(row) == len(header)
            and got.get("label") == want["label"]
            and got.get("n_cases") == str(want["n_cases"])
            and got.get("arity") == str(want["arity"])
            and all(_close(got.get(name), v) for name, v in want["values"].items())
        )
        failed += not ok
    return min(failed, len(expected_rows))


def decomposition_units(expected: dict) -> int:
    """Rows `decompose` prints: one per group, then pooled and between."""
    return len(expected["groups"]) + 2


def check_decompose_stdout(text: str, expected: dict) -> int:
    """Number of wrong, missing or extra rows in `decompose` output."""
    lines = text.splitlines()
    want_groups = sorted(expected["groups"])
    units = decomposition_units(expected)
    if len(lines) < 2 or lines[1] != "group,n,weight,T_group,contribution,reduction":
        return units
    rows = list(csv.reader(lines[2:]))
    failed = abs(len(rows) - units)
    for row, label in zip(rows, want_groups):
        n_g, weight, t_g, contribution = expected["groups"][label]
        ok = (
            len(row) == 6
            and row[0] == label
            and row[1] == str(n_g)
            and _close(row[2], weight)
            and _close(row[3], t_g)
            and _close(row[4], contribution)
            and _close(row[5], -contribution)
        )
        failed += not ok
    tail = rows[len(want_groups):]
    pooled = ["pooled", str(expected["n"]), 1.0, expected["pooled"], "", ""]
    between = ["between", "", "", expected["between"], "", ""]
    for row, want in zip(tail, (pooled, between)):
        ok = len(row) == 6 and all(
            _close(g, w) if isinstance(w, float) else g == w for g, w in zip(row, want)
        )
        failed += not ok
    return min(failed, units)


def check_ipf_json(text: str, expected: dict) -> int:
    """1 if the `ipf --json` document is malformed or off the reference, else 0."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return 1
    ok = (
        isinstance(doc, dict)
        and doc.get("n_cases") == expected["n_cases"]
        and doc.get("converged") is True
        and all(
            _close(doc.get(key), expected[key])
            for key in ("interaction_bits", "transmission_bits", "redundancy_bits")
        )
    )
    return int(not ok)
