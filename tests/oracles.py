"""Brute-force reference implementations and data generators for tests.

Everything here recomputes quantities from raw label rows with plain
dict/loop arithmetic, independently of the library's marginal/entropy
machinery, so tests can cross-check the two paths.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from itertools import product
from math import log2

from th4.errors import EmptyDatasetError, FormatError
from th4.tables import ContingencyTable

# Display values (2 decimals) for the 4-case worked example shipped in
# tests/data/golden4.txt, in fixed schema order.
GOLDEN4_DISPLAY = {
    "H_W": 0.81, "H_X": 1.00, "H_Y": 1.50, "H_Z": 1.00,
    "H_WX": 1.50, "H_WY": 2.00, "H_WZ": 1.50, "H_XY": 1.50, "H_XZ": 2.00, "H_YZ": 2.00,
    "H_WXY": 2.00, "H_WXZ": 2.00, "H_WYZ": 2.00, "H_XYZ": 2.00, "H_WXYZ": 2.00,
    "T_WX": 0.31, "T_WY": 0.31, "T_WZ": 0.31, "T_XY": 1.00, "T_XZ": 0.00, "T_YZ": 0.50,
    "T_WXY": 0.31, "T_WXZ": -0.19, "T_WYZ": -0.19, "T_XYZ": 0.00, "T_WXYZ": -0.19,
}


# --- reference computations over raw rows (lists of label tuples) ---

def project_rows(rows, dims):
    return [tuple(row[d] for d in dims) for row in rows]


def entropy_bits(rows, dims):
    counts = Counter(project_rows(rows, dims))
    n = len(rows)
    total = 0.0
    for c in counts.values():
        p = c / n
        total -= p * log2(p)
    return total


def t2(rows, a, b):
    return entropy_bits(rows, (a,)) + entropy_bits(rows, (b,)) - entropy_bits(rows, (a, b))


def t3(rows, a, b, c):
    h = entropy_bits
    return (
        h(rows, (a,)) + h(rows, (b,)) + h(rows, (c,))
        - h(rows, (a, b)) - h(rows, (a, c)) - h(rows, (b, c))
        + h(rows, (a, b, c))
    )


def t4(rows, a, b, c, d):
    h = entropy_bits
    return (
        h(rows, (a,)) + h(rows, (b,)) + h(rows, (c,)) + h(rows, (d,))
        - h(rows, (a, b)) - h(rows, (a, c)) - h(rows, (a, d))
        - h(rows, (b, c)) - h(rows, (b, d)) - h(rows, (c, d))
        + h(rows, (a, b, c)) + h(rows, (a, b, d)) + h(rows, (a, c, d)) + h(rows, (b, c, d))
        - h(rows, (a, b, c, d))
    )


def mi_definitional(rows, a, b):
    """Mutual information as sum p(ab) log2[p(ab) / (p(a) p(b))]."""
    n = len(rows)
    joint = Counter(project_rows(rows, (a, b)))
    ma = Counter(project_rows(rows, (a,)))
    mb = Counter(project_rows(rows, (b,)))
    total = 0.0
    for (la, lb), c in joint.items():
        pab = c / n
        total += pab * log2(pab / ((ma[(la,)] / n) * (mb[(lb,)] / n)))
    return total


def conditional_t(rows, a, b, c):
    h = entropy_bits
    return h(rows, (a, c)) + h(rows, (b, c)) - h(rows, (c,)) - h(rows, (a, b, c))


def ipf_reference(triples, tolerance=1e-12, max_iterations=50000):
    """Plain dict/loop margin fit over three-label rows.

    Returns (fitted dict, interaction bits, final max margin error).
    """
    n = len(triples)
    observed = Counter(triples)
    p = {t: c / n for t, c in observed.items()}
    alphabets = [sorted({t[d] for t in observed}) for d in range(3)]
    pairs = ((0, 1), (0, 2), (1, 2))

    def margin_of(dist, dims):
        out = {}
        for t, v in dist.items():
            k = tuple(t[d] for d in dims)
            out[k] = out.get(k, 0.0) + v
        return out

    target = {dims: margin_of(p, dims) for dims in pairs}
    cells = [
        t
        for t in product(*alphabets)
        if all(target[dims].get(tuple(t[d] for d in dims), 0.0) > 0 for dims in pairs)
    ]
    q = {t: 1.0 / len(cells) for t in cells}

    def error_of(dist):
        worst = 0.0
        for dims in pairs:
            got = margin_of(dist, dims)
            for k in set(target[dims]) | set(got):
                worst = max(worst, abs(got.get(k, 0.0) - target[dims].get(k, 0.0)))
        return worst

    err = error_of(q)
    for _ in range(max_iterations):
        if err <= tolerance:
            break
        for dims in pairs:
            current = margin_of(q, dims)
            for t in q:
                k = tuple(t[d] for d in dims)
                cm = current.get(k, 0.0)
                q[t] = q[t] * target[dims][k] / cm if cm > 0 else 0.0
        err = error_of(q)
    interaction = sum(pv * log2(pv / q[t]) for t, pv in p.items())
    return q, interaction, err


# --- the dict-based table operations the codes-first tables replaced ---
#
# Each returns (list(counts.items()), alphabets, total): cells in
# first-appearance order, the order the library's tables keep.


def _alphabets_of(arity, cells):
    seen = [{} for _ in range(arity)]
    for labels in cells:
        for dim, label in enumerate(labels):
            seen[dim].setdefault(label)
    return tuple(tuple(d) for d in seen)


def from_counts_reference(arity, counts):
    kept = {labels: count for labels, count in counts.items() if count != 0}
    return list(kept.items()), _alphabets_of(arity, kept), sum(kept.values())


def marginal_reference(table, dims):
    out = {}
    for labels, count in table.counts.items():
        key = tuple(labels[d] for d in dims)
        out[key] = out.get(key, 0) + count
    return list(out.items()), tuple(table.alphabets[d] for d in dims), table.total


def merge_reference(a, b):
    counts = dict(a.counts)
    for labels, count in b.counts.items():
        counts[labels] = counts.get(labels, 0) + count
    alphabets = tuple(tuple(dict.fromkeys(pa + pb)) for pa, pb in zip(a.alphabets, b.alphabets))
    return list(counts.items()), alphabets, a.total + b.total


def partition_reference(table, group_dim):
    """[(group label, from_counts_reference of its cells)], groups in first-appearance order."""
    buckets = {}
    for labels, count in table.counts.items():
        buckets.setdefault(labels[group_dim], {})[labels] = count
    return [(label, from_counts_reference(table.arity, cells)) for label, cells in buckets.items()]


def table_parts(table):
    """A table in the shape the references above return."""
    return list(table.counts.items()), table.alphabets, table.total


# --- the record-level reader load_table replaced ---

def _clean_field(raw, line_number):
    field = raw.strip()
    if field.startswith('"'):
        if len(field) < 2 or not field.endswith('"') or '"' in field[1:-1]:
            raise FormatError(line_number, f"unbalanced quote in field {field!r}")
        return field[1:-1]
    return field


def read_rows(path, label=None, drop_empty=False):
    """A case-record file's label rows in file order, one per record.

    Parses every line into its labels, then drops the rows carrying an
    empty label when asked. The errors and their text are load_table's.
    """
    source_label = label if label is not None else os.path.basename(os.fspath(path))
    rows, first = [], None
    with open(path, "rb") as fh:
        for line_number, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(line_number, f"invalid UTF-8: {exc.reason}") from exc
            if not text.strip():
                continue
            raw_id, *raw_labels = text.split(",")
            if not 3 <= len(raw_labels) <= 4:
                raise FormatError(
                    line_number,
                    f"expected 4 or 5 comma-separated fields (id plus 3 or 4 variables), "
                    f"got {len(raw_labels) + 1}",
                )
            _clean_field(raw_id, line_number)
            labels = tuple(_clean_field(raw, line_number) for raw in raw_labels)
            if first is None:
                first = (line_number, len(labels))
            elif len(labels) != first[1]:
                raise FormatError(
                    line_number,
                    f"record has {len(labels)} variables, but line {first[0]} has {first[1]}",
                )
            rows.append(labels)
    if not rows:
        raise EmptyDatasetError(f"no case records in {source_label!r}")
    if drop_empty:
        rows = [row for row in rows if all(row)]
        if not rows:
            raise EmptyDatasetError(f"all records in {source_label!r} carry empty labels")
    return rows


def reference_table(path, label=None, drop_empty=False):
    """The table of read_rows: cells and alphabets in record order."""
    return table_from_rows(read_rows(path, label, drop_empty))


# --- data generators ---

def table_from_rows(rows):
    return ContingencyTable.from_counts(len(rows[0]), Counter(map(tuple, rows)))


def random_rows(rng: random.Random, arity, sizes, n):
    alphabets = [[f"{'wxyz'[d]}{i}" for i in range(sizes[d])] for d in range(arity)]
    return [tuple(rng.choice(alphabets[d]) for d in range(arity)) for _ in range(n)]


def random_rows_bulk(rng: random.Random, sizes, n):
    """Column-wise generation; much faster for large n."""
    columns = [
        rng.choices([f"{'wxyz'[d]}{i}" for i in range(size)], k=n)
        for d, size in enumerate(sizes)
    ]
    return list(zip(*columns))


def random_dense_rows(rng: random.Random, sizes, max_count=9):
    """Rows giving a strictly positive joint: every cell count drawn from 1..max_count.

    Strictly positive three-way tables always admit an interior
    two-way-margin fit, so iterative scaling converges geometrically;
    sampled tables with unlucky zero patterns may only converge in the
    closure and are exercised separately.
    """
    alphabets = [[f"{'wxyz'[d]}{i}" for i in range(s)] for d, s in enumerate(sizes)]
    rows = []
    for combo in product(*(range(s) for s in sizes)):
        labels = tuple(alphabets[d][i] for d, i in enumerate(combo))
        rows.extend([labels] * rng.randint(1, max_count))
    return rows


def product_rows(weights):
    """Rows whose joint counts factor exactly across dimensions.

    `weights` is one integer vector per dimension; the count of each
    label combination is the product of its labels' weights, so every
    dimension is exactly independent of every other.
    """
    alphabets = [[f"{'wxyz'[d]}{i}" for i in range(len(ws))] for d, ws in enumerate(weights)]
    rows = []
    for combo in product(*(range(len(ws)) for ws in weights)):
        count = 1
        for d, i in enumerate(combo):
            count *= weights[d][i]
        labels = tuple(alphabets[d][i] for d, i in enumerate(combo))
        rows.extend([labels] * count)
    return rows


def parity_rows(copies=1):
    """Uniform mass on the four even-parity cells of a 2x2x2 cube."""
    rows = []
    for a in "01":
        for b in "01":
            c = str(int(a) ^ int(b))
            rows.extend([(a, b, c)] * copies)
    return rows


def noisy_parity_rows(rng: random.Random, n, flip=0.1):
    """Three binary columns where the third tracks the parity of the first two."""
    rows = []
    for _ in range(n):
        a = rng.choice("01")
        b = rng.choice("01")
        c = int(a) ^ int(b)
        if rng.random() < flip:
            c ^= 1
        rows.append((a, b, str(c)))
    return rows
