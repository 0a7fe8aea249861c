#!/usr/bin/env python3
"""Self-test of scripts/check_gates.py on fixture JSON.

Usage: check_gates_test.py PATH/TO/check_gates.py

gates.txt beside this file names each benchmark row after the verdict the
comparator must print for it. The full table must exit 1 (it has failing
rows); the same table without them must exit 0.
"""

import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "gates.txt")
FIXTURE = os.path.join(HERE, "bench_fixture.json")


def run(comparator, table):
    proc = subprocess.run([sys.executable, comparator, table, FIXTURE],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout.splitlines()


def expect(cond, message):
    if not cond:
        sys.exit(f"check_gates_test: {message}")


def main(comparator):
    code, lines = run(comparator, TABLE)
    expect(code == 1, f"full table exited {code}, want 1")
    checked = 0
    for text in lines:
        want = re.findall(r"BM_\w+?(Pass|Warn|Fail)\b", text)
        expect(len(set(want)) == 1, f"no single expected verdict in: {text}")
        expect(text.startswith(want[0].upper() + " "), f"wrong verdict: {text}")
        checked += 1
    expect(checked == 10, f"{checked} verdict lines, want 10")

    with tempfile.NamedTemporaryFile("w", suffix=".txt") as table:
        with open(TABLE) as f:
            table.writelines(l for l in f if "Fail" not in l)
        table.flush()
        code, lines = run(comparator, table.name)
    expect(code == 0, f"table without failing rows exited {code}, want 0")
    expect(len(lines) == 5, f"{len(lines)} verdict lines, want 5")
    print(f"check_gates_test: {checked} + {len(lines)} verdicts as expected")


if __name__ == "__main__":
    main(sys.argv[1])
