"""Benchmark of curvecount: exact-answer workloads, CLI wall times, per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (the program is imported from
src/ with PYTHONPATH) and needs only the standard library.  Each workload
is a fixed set of operations; the seed permutes their order, never the
set.  Rounds of all operations repeat until S seconds have passed, so
every run attempts whole rounds.  Every output is checked against the
computations in checks.py, which import nothing from curvecount.

--trace 0 prints the end-to-end metrics: setup_s, wall_ref_s, peak_rss_mb.
Times are in reference seconds: each program process times a fixed
calibration loop every 50 ms (child.py), and its time is scaled by the
host speed those samples show, so that the host's swings in CPU speed
cancel out.
--trace 1 runs one untraced and one traced round and prints the per-layer
metrics, and writes the kept spans to .bench-out/.  The last line of
stdout is the result object; the lines before it are a readable report.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0
SETUP_REPEATS = 3
SETUP_PER_ROUND = 2
DEGREE_LAYERS = range(2, 20)
END_TO_END = ("setup_s", "wall_ref_s", "peak_rss_mb")


class Child:
    """One finished program process.

    wall_s: spawn to exit, as measured.  ref_s: the same time less the
    calibration's own, in reference seconds.  speed: the host speed the
    process's calibration samples showed (1.0 = reference).
    """

    def __init__(self, code, stdout, stderr, wall_s, rss_mb, ref_s=0.0, speed=1.0):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.wall_s, self.rss_mb = wall_s, rss_mb
        self.ref_s, self.speed = ref_s, speed


class Op:
    """One program invocation and the check of its output.

    units: how many operations it counts as (the node-poly sweep counts
    each requested index).  check(child, state) returns (bad_units,
    problems); state is what prepare(), run just before, returned.
    """

    def __init__(self, label, argv, check, units=1, phase=None, sweep=False,
                 prepare=None):
        self.label, self.argv, self.check = label, argv, check
        self.units, self.phase, self.sweep, self.prepare = units, phase, sweep, prepare

    def command(self, trace_path):
        trace = [] if trace_path is None else ["--trace-out", str(trace_path)]
        return trace + ["sweep" if self.sweep else "cli"] + self.argv


def one(problems):
    return (1 if problems else 0), problems


class Bench:
    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.digests = {}
        self.certified = set()
        self.wrong = []
        self.timed_out = False

    # -- processes ---------------------------------------------------------

    def run(self, args) -> Child:
        """Run child.py ARGS to completion: wall and reference time, output, peak RSS."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            self.timed_out = True
            return Child(-signal.SIGKILL, "", "", 0.0, 0.0)
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        stats_path = self.tmp / "stats"
        if stats_path.exists():
            stats_path.unlink()
        cmd = [sys.executable, str(BENCH / "child.py"), "--stats-out", str(stats_path)] + args
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            lock = threading.Lock()
            exited = []

            def kill():
                with lock:
                    if not exited:  # not yet reaped, so the pid is still ours
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                with lock:
                    exited.append(True)
            finally:
                timer.cancel()
                timer.join()
                if not exited:
                    proc.kill()
            proc.wait()
        if proc.returncode == -signal.SIGKILL:
            self.timed_out = True
        stats = (json.loads(stats_path.read_text()) if stats_path.exists()
                 else {"peak_kb": 0, "cal_s": 0.0, "speed": 1.0})
        return Child(proc.returncode, out_path.read_bytes().decode("utf-8", "replace"),
                     err_path.read_bytes().decode("utf-8", "replace"), wall,
                     stats["peak_kb"] / 1024, (wall - stats["cal_s"]) * stats["speed"],
                     stats["speed"])

    def setup_times(self, repeats):
        """Reference times of `curvecount --version`: interpreter, imports, parser."""
        times = []
        for _ in range(repeats):
            child = self.run(["cli", "--version"])
            if child.code != 0 or not child.stdout.strip():
                raise SystemExit("curvecount --version failed: %s" % child.stderr[-500:])
            times.append(child.ref_s)
        return times

    # -- rounds ------------------------------------------------------------

    def judge(self, op, child, state) -> int:
        """Failed operations among op's units.

        A process that exits non-zero fails all its units and leaves the
        run correct.  A process that exits 0 with a wrong or unrepeatable
        output fails the units its check names and makes the run incorrect.
        """
        if child.code != 0:
            return op.units
        failed, problems = op.check(child, state)
        digest = hashlib.sha256(child.stdout.encode()).hexdigest()
        if self.digests.setdefault(op.label, digest) != digest:
            problems = problems + ["stdout differs from an earlier repeat"]
            failed = op.units
        if problems:
            self.wrong.append((op.label, problems[:3]))
            return max(failed, 1)
        return failed

    def run_round(self, ops, traced):
        """All ops once, in order; one record per op."""
        records = []
        for index, op in enumerate(ops):
            if self.timed_out:
                records.append({"op": op, "failed": op.units, "wall_s": 0.0, "ref_s": 0.0,
                                "rss_mb": 0.0, "trace": None, "stdout_bytes": 0})
                continue
            state = op.prepare() if op.prepare else None
            trace_path = self.tmp / ("trace-%d.json" % index) if traced else None
            child = self.run(op.command(trace_path))
            wall, ref = child.wall_s, child.ref_s
            if op.sweep and child.code == 0:
                wall = float(child.stderr.split("sweep_s")[-1])
                ref = wall * child.speed
            failed = self.judge(op, child, state)
            trace = None
            if trace_path is not None and trace_path.exists():
                trace = json.loads(trace_path.read_text())
                trace_path.unlink()
            records.append({"op": op, "failed": failed, "wall_s": wall, "ref_s": ref,
                            "rss_mb": child.rss_mb, "trace": trace,
                            "stdout_bytes": len(child.stdout.encode())})
        return records


# ----------------------------------------------------------------------
# Workloads


def deep_query(bench, rng):
    """Cold CLI severi queries at genus 0, alpha = (), beta = (d), d = 9..12."""
    ref = checks.SeveriReference()
    ops = []
    for d in (9, 10, 11, 12):
        delta = (d - 1) * (d - 2) // 2
        ref.degree(d, delta, (), (d,))

        def check(child, state, d=d, delta=delta):
            return one(checks.check_severi(child.stdout, d, delta, (d,), ref))

        ops.append(Op("severi d=%d delta=%d" % (d, delta),
                      ["severi", "--d", str(d), "--delta", str(delta), "--beta", str(d)],
                      check))
    rng.shuffle(ops)
    return ops


NODE_DELTA_MAX = 6


def node_poly(bench, rng):
    """One library sweep over the node-polynomial windows, one shared MemoStore."""
    pairs = [(d, delta) for delta in range(NODE_DELTA_MAX + 1)
             for d in checks.node_window(delta)]
    rng.shuffle(pairs)

    def check(child, state):
        rows = checks.parse_sweep(child.stdout)
        if [(d, delta) for d, delta, _ in rows] != pairs:
            return len(pairs), ["sweep printed other indices than requested"]
        bad = checks.check_node_poly({(d, delta): n for d, delta, n in rows})
        return len(bad), ["node polynomial fails at %s" % sorted(bad)[:5]] if bad else []

    order = ",".join("%d:%d" % pair for pair in pairs)
    return [Op("node-poly sweep", [order], check, units=len(pairs), sweep=True)]


TABLE_DMAX, TABLE_DELTAMAX = 8, 100


def table_cache(bench, rng):
    """`table` into a fresh cache, then again over the cache it just wrote."""
    path = bench.tmp / "degrees.jsonl"
    rows = checks.cache_row_count(TABLE_DMAX, TABLE_DELTAMAX)
    argv = ["table", "--dmax", str(TABLE_DMAX), "--deltamax", str(TABLE_DELTAMAX),
            "--cache", str(path)]

    def fresh():
        if path.exists():
            path.unlink()

    def check_write(child, state):
        problems = checks.check_table_stdout(child.stdout, str(path), 0, rows, rows)
        data = path.read_bytes() if path.exists() else b""
        digest = hashlib.sha256(data).hexdigest()
        if digest not in bench.certified:
            found = checks.check_cache(data.decode("utf-8"), TABLE_DMAX, TABLE_DELTAMAX)
            if not found:
                bench.certified.add(digest)
            problems += found[:3]
        return one(problems)

    def snapshot():
        return path.read_bytes() if path.exists() else None

    def check_reverify(child, before):
        problems = checks.check_table_stdout(child.stdout, str(path), rows, 0, rows)
        if before is None or not path.exists() or path.read_bytes() != before:
            problems.append("re-run changed the cache file")
        return one(problems)

    return [Op("table fresh", argv, check_write, phase="write_s", prepare=fresh),
            Op("table re-run", argv, check_reverify, phase="reverify_s", prepare=snapshot)]


KONTSEVICH_MAX = 580


def rational_verify(bench, rng):
    """`kontsevich --max 580` and the verify suites."""
    ref = checks.KontsevichReference(KONTSEVICH_MAX)
    suites = [
        (["verify", "all"],
         {"wdvv": (6, 8), "getzler": (4,), "one-node": (12,), "case-studies": ()}),
        (["verify", "getzler", "--D", "5"], {"getzler": (5,)}),
        (["verify", "wdvv", "--dmax", "8", "--x1", "40"], {"wdvv": (8, 40)}),
        (["verify", "one-node", "--dmax", "12"], {"one-node": (12,)}),
    ]
    ops = [Op("kontsevich --max %d" % KONTSEVICH_MAX,
              ["kontsevich", "--max", str(KONTSEVICH_MAX)],
              lambda child, state: one(checks.check_kontsevich(child.stdout, KONTSEVICH_MAX, ref)),
              phase="rational_s")]
    for argv, expect in suites:
        ops.append(Op(" ".join(argv), argv,
                      lambda child, state, expect=expect: one(checks.check_verify(child.stdout, expect)),
                      phase="verify_s"))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "deep-query": deep_query,
    "node-poly": node_poly,
    "table-cache": table_cache,
    "rational-verify": rational_verify,
}


# ----------------------------------------------------------------------
# Metrics


def layer_metrics(records, untraced_wall, traced_wall):
    """Per-layer metrics of one traced round: counts, self times, ratios."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    counters = defaultdict(int)
    indices = defaultdict(int)
    terms = defaultdict(int)
    memo_entries = max_digits = stdout_bytes = 0
    for record in records:
        trace = record["trace"]
        stdout_bytes += record["stdout_bytes"]
        if trace is None:
            continue
        for name, (group, n, total, own) in trace["stats"].items():
            self_s[group] += own
            calls[group] += n
            calls[name] += n
            inclusive[name] += total
        for key, value in trace["counters"].items():
            counters[key] += value
        for d, n in trace["layer_indices"].items():
            indices[int(d)] += n
        for d, n in trace["layer_terms"].items():
            terms[int(d)] += n
        memo_entries += trace["memo_entries"]
        max_digits = max(max_digits, trace["max_digits"])

    def ratio(part, whole):
        return part / whole if whole else 0.0

    hits, misses = counters["severi.memo.hits"], counters["severi.memo.misses"]
    second, candidates = counters["severi.terms.second"], counters["severi.terms.second_candidates"]
    metrics = {
        "seqs.calls": (calls["seqs"], "count"),
        "seqs.self_s": (self_s["seqs"], "s"),
        "severi.index.built": (calls["severi.SeveriIndex.__post_init__"], "count"),
        "severi.index.self_s": (self_s["severi.index"], "s"),
        "severi.terms.first": (counters["severi.terms.first"], "count"),
        "severi.terms.second": (second, "count"),
        "severi.terms.second_candidates": (candidates, "count"),
        "severi.terms.second_kept_ratio": (ratio(second, candidates), "ratio"),
        "severi.terms.self_s": (self_s["severi.terms"], "s"),
        "severi.memo.entries": (memo_entries, "count"),
        "severi.memo.hits": (hits, "count"),
        "severi.memo.misses": (misses, "count"),
        "severi.memo.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "severi.degree.self_s": (self_s["severi.degree"], "s"),
    }
    for k in DEGREE_LAYERS:
        metrics["severi.layer.d%d.indices" % k] = (indices[k], "count")
        metrics["severi.layer.d%d.terms" % k] = (terms[k], "count")
    metrics.update({
        "kontsevich.terms": (counters["kontsevich.terms"], "count"),
        "kontsevich.self_s": (self_s["kontsevich"], "s"),
        "kontsevich.operand_mb": (counters["kontsevich.operand_bits"] / 8 / 1e6, "MB"),
        "kontsevich.max_digits": (max_digits, "digits"),
        "series.self_s": (self_s["series"], "s"),
        "series.mul_pairs": (counters["series.mul_pairs"], "count"),
        "genfunc.self_s": (self_s["genfunc"], "s"),
        "genfunc.monomials": (counters["genfunc.monomials"], "count"),
        "classical.self_s": (self_s["classical"], "s"),
        "cache.read_s": (inclusive["cache.read_cache"], "s"),
        "cache.records_read": (counters["cache.records_read"], "count"),
        "cache.append_s": (inclusive["cache.append_records"], "s"),
        "cache.records_appended": (counters["cache.records_appended"], "count"),
        "cache.bytes_written": (counters["cache.bytes_written"], "bytes"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return metrics


def write_spans(records, workload, seed):
    """The kept spans of every traced process, as one JSON file under .bench-out/."""
    out_dir = ROOT / ".bench-out"
    out_dir.mkdir(exist_ok=True)
    payload = [{"op": record["op"].label, "names": record["trace"]["names"],
                "span_count": record["trace"]["span_count"],
                "spans": record["trace"]["spans"]}
               for record in records if record["trace"] is not None]
    path = out_dir / ("spans-%s-seed%d.json" % (workload, seed))
    path.write_text(json.dumps(payload))
    return path


def round_time(records, key="ref_s"):
    return sum(record[key] for record in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "curvecount" / "cli.py").is_file():
        print("error: no curvecount sources at %s" % SRC, file=sys.stderr)
        return 2

    started = time.perf_counter()
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        bench = Bench(tmp, started + DEADLINE_S)
        bench.setup_times(1)  # may write the bytecode caches; not measured
        setup = [] if args.trace else bench.setup_times(SETUP_REPEATS)
        ops = WORKLOADS[args.workload](bench, random.Random(args.seed))
        rounds = []
        if args.trace:
            rounds.append(bench.run_round(ops, traced=False))
            rounds.append(bench.run_round(ops, traced=True))
        else:
            loop_start = time.perf_counter()
            while True:
                rounds.append(bench.run_round(ops, traced=False))
                if bench.timed_out:
                    break
                # setup samples spread over the run see the machine as the rounds do
                setup += bench.setup_times(SETUP_PER_ROUND)
                elapsed = time.perf_counter() - loop_start
                per_round = elapsed / len(rounds)
                if (elapsed >= args.seconds
                        or loop_start + elapsed + per_round > bench.deadline - 10):
                    break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(record["op"].units for rnd in rounds for record in rnd)
    failed = sum(record["failed"] for rnd in rounds for record in rnd)
    print("workload %s seed %d rounds %d attempted %d failed %d"
          % (args.workload, args.seed, len(rounds), attempted, failed))
    for label, problems in bench.wrong[:10]:
        print("WRONG %s: %s" % (label, "; ".join(problems)))
    by_op = defaultdict(list)
    for rnd in rounds[:1] if args.trace else rounds:
        for record in rnd:
            by_op[record["op"].label].append(record)
    for label, records in by_op.items():
        print("op %-40s median %.4f ref s (%.4f s measured)  peak %.1f MB  failed %d/%d" % (
            label, statistics.median(r["ref_s"] for r in records),
            statistics.median(r["wall_s"] for r in records),
            max(r["rss_mb"] for r in records),
            sum(r["failed"] for r in records), sum(r["op"].units for r in records)))
    phases = defaultdict(list)
    for rnd in rounds[:1] if args.trace else rounds:
        per_round = defaultdict(float)
        for record in rnd:
            if record["op"].phase:
                per_round[record["op"].phase] += record["ref_s"]
        for phase, value in per_round.items():
            phases[phase].append(value)
    for phase, values in sorted(phases.items()):
        print("phase %s %.4f ref s" % (phase, statistics.median(values)))

    if args.trace:
        untraced, traced = round_time(rounds[0]), round_time(rounds[1])
        metrics = layer_metrics(rounds[1], untraced, traced)
        print("spans written to %s" % write_spans(rounds[1], args.workload, args.seed))
    else:
        print("round median %.4f s measured" % statistics.median(
            round_time(rnd, "wall_s") for rnd in rounds))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_ref_s": (statistics.median(round_time(rnd) for rnd in rounds), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for rnd in rounds for r in rnd), "MB"),
        }
    print(json.dumps({
        "correct": not bench.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
