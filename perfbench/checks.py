"""Correctness checks for benchmark rounds, and the statistics digest.

Every check returns a list of failure messages (empty = pass).  None of
them trusts the simulator's own bookkeeping alone: guest memory is
compared against each kernel's plain-Python reference, commit counts
against the instruction budget and commit width, and every table cell
against a recomputation from the per-simulation IPCs made here.
"""

from __future__ import annotations

import hashlib
import json

#: Relative tolerance for recomputed table cells (same formula, possibly
#: a different summation order).
REL_TOL = 1e-12


def _close(got, expected):
    return abs(got - expected) <= REL_TOL * max(abs(got), abs(expected))


def hmean(values):
    return len(values) / sum(1.0 / value for value in values)


# ---------------------------------------------------------------------------
# sim-complete: kernels run to HALT
# ---------------------------------------------------------------------------
def check_guest_image(label, built):
    """The final guest memory must match the kernel's Python reference."""
    if built.reference_check is None:
        return [f"{label}: kernel has no reference check"]
    if not built.reference_check(built.memory):
        return [f"{label}: final guest memory differs from the "
                f"plain-Python reference"]
    return []


def check_halted_pairs(results, limit):
    """Every sim halted before ``limit``; techniques agree on the count.

    ``results`` maps ``(kernel, technique) -> committed``.  Runahead only
    prefetches, so every technique must commit exactly the same dynamic
    instruction stream to HALT.
    """
    failures = []
    by_kernel = {}
    for (kernel, technique), committed in sorted(results.items()):
        if not 0 < committed < limit:
            failures.append(f"{kernel}/{technique}: committed {committed}, "
                            f"not a run to HALT below {limit}")
        by_kernel.setdefault(kernel, {})[technique] = committed
    for kernel, counts in by_kernel.items():
        if len(set(counts.values())) != 1:
            failures.append(f"{kernel}: techniques commit different "
                            f"instruction counts at HALT: {counts}")
    return failures


# ---------------------------------------------------------------------------
# Suites: fixed-budget ROIs through the spec DAG
# ---------------------------------------------------------------------------
def check_ledger(node_sets, rows):
    """The run ledger's job rows against the round's DAGs.

    ``node_sets`` holds each spec's sim node ids, in run order; ``rows``
    the ledger's job rows.  With a result cache that starts empty, every
    sim node has one row, and exactly the sims an earlier spec of the
    round already ran are cache hits.
    """
    failures = []
    total = sum(len(nodes) for nodes in node_sets)
    if len(rows) != total:
        failures.append(f"the ledger holds {len(rows)} job rows for "
                        f"{total} sim nodes")
    seen = set()
    expected = 0
    for nodes in node_sets:
        expected += len(seen & nodes)
        seen |= nodes
    hits = sum(row["cache"] == "hit" for row in rows)
    if hits != expected:
        failures.append(f"the result cache served {hits} sims; {expected} "
                        f"were run earlier in the round")
    return failures


def check_sim_metrics(label, metrics, budget, width):
    """Budget, CPI-stack and prefetch invariants of one finished sim."""
    failures = []
    if not budget <= metrics.committed < budget + width:
        failures.append(f"{label}: committed {metrics.committed}, outside "
                        f"[{budget}, {budget + width})")
    if metrics.committed:
        cpi = metrics.cycles / metrics.committed
        stack = sum(metrics.cpi_stack.values())
        if not _close(stack, cpi):
            failures.append(f"{label}: CPI stack sums to {stack!r}, "
                            f"cycles per instruction is {cpi!r}")
    for source, used in sorted(metrics.prefetch_used.items()):
        issued = metrics.prefetch_issued.get(source, 0)
        if used > issued:
            failures.append(f"{label}: {source} prefetches used {used} > "
                            f"issued {issued}")
    return failures


def expected_speedup_rows(ipc, labels, baseline, columns, rob):
    """Fig 7 table from per-sim IPCs: ratios per label, then H-mean."""
    rows = []
    per_column = {column: [] for column in columns}
    for label in labels:
        base = ipc[(label, baseline, rob)]
        row = [label]
        for column in columns:
            ratio = ipc[(label, column, rob)] / base
            per_column[column].append(ratio)
            row.append(ratio)
        rows.append(row)
    rows.append(["H-mean"] + [hmean(per_column[c]) for c in columns])
    return rows


def expected_rob_rows(ipc, labels, robs, techniques, base_rob):
    """Fig 12 table: h-mean speedups per ROB over the base-ROB OoO point,
    plus the second technique's ratio to the first."""
    first, second = techniques
    rows = []
    for rob in robs:
        a = [ipc[(label, first, rob)] / ipc[(label, first, base_rob)]
             for label in labels]
        b = [ipc[(label, second, rob)] / ipc[(label, first, base_rob)]
             for label in labels]
        rows.append([rob, hmean(a), hmean(b), hmean(b) / hmean(a)])
    return rows


def compare_rows(name, got, expected):
    """Cell-by-cell comparison of a rendered table with a recomputation."""
    if len(got) != len(expected):
        return [f"{name}: {len(got)} rows, expected {len(expected)}"]
    failures = []
    for got_row, want_row in zip(got, expected):
        if len(got_row) != len(want_row):
            failures.append(f"{name}: row {got_row!r} has the wrong width")
            continue
        for got_cell, want_cell in zip(got_row, want_row):
            if isinstance(want_cell, float):
                ok = (isinstance(got_cell, (int, float))
                      and _close(float(got_cell), want_cell))
            else:
                ok = got_cell == want_cell
            if not ok:
                failures.append(f"{name}: row {want_row[0]!r} has "
                                f"{got_cell!r}, recomputed {want_cell!r}")
    return failures


# ---------------------------------------------------------------------------
# Digest
# ---------------------------------------------------------------------------
def digest(payload):
    """sha256 of a JSON-able payload in canonical form."""
    blob = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()
