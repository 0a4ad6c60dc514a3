"""Fault-injection self-tests of the benchmark's checks.

    python3 bench/selftest.py

Runs the program at small sizes, confirms that every check accepts the
real output, then adds 1 to each checked value in turn (each Kontsevich
number, node-polynomial point, cache row field, verify-line count, severi
field) and confirms that the run's judge counts the operation as failed
and the run as incorrect.  It also checks that BENCHMARK.json names
exactly the metrics run.py prints.  Exits 1 on the first miss.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

import checks
import run

SAMPLE_D_MAX, SAMPLE_DELTA_MAX = 60, 4
TABLE_D_MAX = 4


def bump(text: str, start: int, end: int) -> str:
    """text with the decimal number at [start, end) increased by one."""
    return text[:start] + str(int(text[start:end]) + 1) + text[end:]


def numbers(text: str):
    return [(m.start(), m.end()) for m in re.finditer(r"\d+", text)]


class SelfTest:
    def __init__(self, tmp: Path):
        self.bench = run.Bench(tmp, time.perf_counter() + 900)
        self.injected = 0

    def produce(self, op):
        """Run op once; its real output must pass."""
        state = op.prepare() if op.prepare else None
        child = self.bench.run(op.command(None))
        failed = self.bench.judge(op, child, state)
        if child.code != 0 or failed or self.bench.wrong:
            raise SystemExit("real output of %r rejected: %r" % (op.label, self.bench.wrong))
        return child

    def expect_caught(self, op, child, text, what, state=None):
        """The output with one corrupted value must fail op and the run."""
        self.bench.wrong.clear()
        self.bench.digests.clear()
        corrupted = run.Child(0, text, child.stderr, child.wall_s, child.rss_mb)
        failed = self.bench.judge(op, corrupted, state)
        if failed < 1 or not self.bench.wrong:
            raise SystemExit("MISSED: %s in %s" % (what, op.label))
        self.bench.wrong.clear()
        self.injected += 1

    def every_number(self, op, child):
        for start, end in numbers(child.stdout):
            self.expect_caught(op, child, bump(child.stdout, start, end),
                               "number %r" % child.stdout[start:end])


def test_kontsevich(t):
    ref = checks.KontsevichReference(SAMPLE_D_MAX)
    op = run.Op("kontsevich", ["kontsevich", "--max", str(SAMPLE_D_MAX)],
                lambda child, state: run.one(checks.check_kontsevich(child.stdout, SAMPLE_D_MAX, ref)))
    child = t.produce(op)
    lines = child.stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        start, end = numbers(line)[-1]
        text = "".join(lines[:i]) + bump(line, start, end) + "".join(lines[i + 1:])
        t.expect_caught(op, child, text, "N(%d)" % (i + 1))


def test_severi(t):
    ref = checks.SeveriReference()
    for d, delta in ((5, 6), (6, 10), (7, 4)):
        op = run.Op("severi d=%d delta=%d" % (d, delta),
                    ["severi", "--d", str(d), "--delta", str(delta), "--beta", str(d)],
                    lambda child, state, d=d, delta=delta: run.one(
                        checks.check_severi(child.stdout, d, delta, (d,), ref)))
        child = t.produce(op)
        t.every_number(op, child)


def test_node_poly(t):
    pairs = [(d, delta) for delta in range(SAMPLE_DELTA_MAX + 1)
             for d in checks.node_window(delta)]
    order = ",".join("%d:%d" % pair for pair in pairs)

    def check(child, state):
        rows = checks.parse_sweep(child.stdout)
        bad = checks.check_node_poly({(d, delta): n for d, delta, n in rows})
        return len(bad), ["bad %s" % sorted(bad)] if bad else []

    op = run.Op("node-poly", [order], check, units=len(pairs), sweep=True)
    child = t.produce(op)
    lines = child.stdout.splitlines(keepends=True)
    for i, line in enumerate(lines):
        start, end = numbers(line)[-1]
        text = "".join(lines[:i]) + bump(line, start, end) + "".join(lines[i + 1:])
        t.expect_caught(op, child, text, "point %s" % line.split()[:2])


def test_table(t):
    saved = run.TABLE_DMAX
    run.TABLE_DMAX = TABLE_D_MAX
    try:
        ops = run.table_cache(t.bench, random.Random(0))
        write, rerun = ops
        child = t.produce(write)
        path = Path(write.argv[-1])
        clean = path.read_text()
        t.every_number(write, child)
        # each cache row: degree, dim, genus
        lines = clean.splitlines(keepends=True)
        for i in range(1, len(lines)):
            for field in ("degree", "dim", "genus"):
                m = re.search(r'"%s": "?(-?\d+)' % field, lines[i])
                corrupted = lines[:i] + [bump(lines[i], m.start(1), m.end(1))] + lines[i + 1:]
                path.write_text("".join(corrupted))
                t.bench.certified.clear()
                t.expect_caught(write, child, child.stdout, "row %d %s" % (i, field))
        path.write_text(clean)
        before = rerun.prepare()
        child = t.produce(rerun)
        t.every_number(rerun, child)
        # a re-run that leaves a changed file behind
        path.write_text(clean + "\n")
        t.bench.digests.clear()
        t.expect_caught(rerun, child, child.stdout, "changed cache file", before)
    finally:
        run.TABLE_DMAX = saved


def test_verify(t):
    saved = run.KONTSEVICH_MAX
    run.KONTSEVICH_MAX = 5
    try:
        ops = run.rational_verify(t.bench, random.Random(0))
    finally:
        run.KONTSEVICH_MAX = saved
    for op in ops:
        if op.argv[0] == "verify":
            child = t.produce(op)
            t.every_number(op, child)


def test_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    layer = run.layer_metrics([], 0.0, 0.0)
    if [m["name"] for m in spec["per_layer"]] != list(layer):
        raise SystemExit("BENCHMARK.json per_layer differs from run.layer_metrics")
    if {m["name"] for m in spec["end_to_end"]} != set(run.END_TO_END):
        raise SystemExit("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.WORKLOADS")
    for m in spec["per_layer"]:
        if m["unit"] != layer[m["name"]][1]:
            raise SystemExit("unit of %s differs" % m["name"])


def main() -> int:
    test_benchmark_json()
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=run.ROOT))
    try:
        t = SelfTest(tmp)
        for test in (test_kontsevich, test_severi, test_node_poly, test_table, test_verify):
            before = t.injected
            test(t)
            print("%s: %d corruptions caught" % (test.__name__, t.injected - before))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("ok: %d corruptions caught" % t.injected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
