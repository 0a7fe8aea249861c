#!/usr/bin/env python3
"""Checks the benchmark gates of one table against Google Benchmark JSON.

Usage: scripts/check_gates.py GATES_TABLE BENCH_JSON...

Each non-comment line of the table is one gate, whitespace-separated:

  bench  row  base  field  kind  warn  fail

  bench  the benchmark binary (matched to a JSON file by the `executable`
         in its context);
  row    the benchmark row; ceiling_ms and equals rows take an fnmatch
         pattern and check every row it matches;
  base   the denominator row of a ratio, `-` for the other kinds;
  field  real_time, cpu_time (read in milliseconds) or a user counter;
  kind   ratio       median(row) / median(base) must not exceed the line;
         ceiling_ms  median(row) in ms must not exceed the line;
         equals      median(row) must equal the line;
  warn, fail  the two lines, both numbers.

Medians run over the repetitions a JSON file holds (one run is its own
median). Prints one verdict per checked row; exits 1 if any row fails.
"""

import fnmatch
import json
import os
import statistics
import sys

KINDS = ("ratio", "ceiling_ms", "equals")
TIME_FIELDS = ("real_time", "cpu_time")
TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


class GateError(Exception):
    pass


def load_runs(paths):
    """{binary: {benchmark row: [one entry per repetition]}}."""
    runs = {}
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
            binary = os.path.basename(doc["context"]["executable"])
            benchmarks = doc["benchmarks"]
        except (OSError, ValueError, KeyError) as e:
            raise GateError(f"cannot read {path}: {e!r}")
        rows = runs.setdefault(binary, {})
        for b in benchmarks:
            if b.get("run_type") != "aggregate":
                rows.setdefault(b.get("run_name", b["name"]), []).append(b)
    return runs


def median(entries, field):
    values = []
    for b in entries:
        if b.get("error_occurred"):
            raise GateError(f"{b['name']}: {b.get('error_message', 'error')}")
        if field not in b:
            raise GateError(f"{b['name']} reports no '{field}'")
        scale = TO_MS[b["time_unit"]] if field in TIME_FIELDS else 1.0
        values.append(b[field] * scale)
    return statistics.median(values)


def line(text):
    try:
        return float(text)
    except ValueError:
        raise GateError(f"line '{text}' is not a number")


def verdict(kind, value, warn, fail):
    if kind == "equals":
        missed = lambda target: value != target
    else:
        missed = lambda target: value > target
    if missed(fail):
        return "FAIL"
    return "WARN" if missed(warn) else "PASS"


def check(gate, runs):
    """Yields (verdict, subject, detail) for each row the gate checks."""
    bench, row, base, field, kind, warn_text, fail_text = gate
    if kind not in KINDS:
        raise GateError(f"unknown kind '{kind}'")
    if kind == "ceiling_ms" and field not in TIME_FIELDS:
        raise GateError(f"ceiling_ms reads a time field, not '{field}'")
    warn, fail = line(warn_text), line(fail_text)
    rows = runs.get(bench)
    if rows is None:
        raise GateError(f"no JSON from {bench}")
    if kind == "ratio":
        if row not in rows or base not in rows:
            raise GateError(f"{bench} has no row '{row}' or '{base}'")
        value = median(rows[row], field) / median(rows[base], field)
        subjects = [(f"{row} / {base}", value)]
    else:
        names = fnmatch.filter(rows, row)
        if not names:
            raise GateError(f"{bench} has no row matching '{row}'")
        subjects = [(name, median(rows[name], field)) for name in names]
    for subject, value in subjects:
        yield (verdict(kind, value, warn, fail),
               f"{bench} {subject} {field}",
               f"{kind} {value:.4g} (warn {warn_text}, fail {fail_text})")


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        runs = load_runs(argv[2:])
    except GateError as e:
        print(f"FAIL  {e}")
        return 1
    failed = 0
    with open(argv[1]) as f:
        for n, text in enumerate(f, 1):
            gate = text.split("#", 1)[0].split()
            if not gate:
                continue
            try:
                if len(gate) != 7:
                    raise GateError(f"expected 7 columns, got {len(gate)}")
                results = list(check(gate, runs))
            except GateError as e:
                results = [("FAIL", f"{argv[1]}:{n}", str(e))]
            for v, subject, detail in results:
                failed += v == "FAIL"
                print(f"{v}  {subject}: {detail}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
