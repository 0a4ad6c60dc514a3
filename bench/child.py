"""Entry of every program process the benchmark starts.

    python3 bench/child.py --stats-out FILE [--trace-out FILE] cli ARGS...
    python3 bench/child.py --stats-out FILE [--trace-out FILE] sweep D:DELTA,...

`cli` does what the installed `curvecount` script does: it runs
curvecount.cli.main(ARGS) and exits with its code.  `sweep` computes
N(d, delta; (), (d)) for each listed pair, in the order given, with one
shared MemoStore; it prints 'd delta N' per pair, and the sweep's wall
time on stderr as 'sweep_s SECONDS', without the calibration time.

Calibration: the host runs this process's CPU at speeds that differ by up
to 2x and change every 0.5-6 s, and each CPU changes on its own.  So the
process times a fixed piece of interpreter work, calibrate(), at start and
then every CAL_PERIOD_S from a SIGALRM handler, on its own thread and CPU,
between the program's bytecodes.  speed is the mean of REF_CAL_S / sample:
1.0 when the host runs at the reference speed, below 1 when it is slower.
The parent multiplies the process's time, less the calibration's own time
(cal_s), by speed, to get reference seconds.

At exit the process writes to the --stats-out file, as JSON: its own peak
resident set (VmHWM, kB), speed, cal_s and the number of samples.  The
parent cannot take the peak from wait4: on Linux a child's ru_maxrss also
counts the memory of the process that spawned it.
With --trace-out, tracer.Tracer wraps every curvecount module first and
its report is written to that file at exit.
"""

import atexit
import json
import signal
import sys
import time

CAL_PERIOD_S = 0.05
CAL_LOOPS = 3000
# calibrate()'s time, in seconds, at the reference speed: about its fastest
# on a 2.0 GHz Xeon VM with Python 3.11.7.
REF_CAL_S = 0.0008

_samples = []


def calibrate():
    """Fixed interpreter work of the program's kind: small ints, tuples, a dict."""
    table = {}
    total = 0
    for i in range(CAL_LOOPS):
        key = (i & 31, i % 7)
        total += i * i % 7
        table[key] = table.get(key, 0) + total


def _sample(*_):
    start = time.perf_counter()
    calibrate()
    _samples.append(time.perf_counter() - start)


def _start_sampling():
    _sample()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)


def _write_stats(path):
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    stats = {"peak_kb": int(peak), "cal_s": sum(_samples), "samples": len(_samples),
             "speed": sum(REF_CAL_S / s for s in _samples) / len(_samples)}
    with open(path, "w") as out:
        json.dump(stats, out)


def main(argv):
    _start_sampling()
    atexit.register(_write_stats, argv[1])
    argv = argv[2:]
    if argv[0] == "--trace-out":
        from tracer import LAYERS, Tracer

        trace_out, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install({short: __import__("curvecount." + short, fromlist=["_"])
                        for short in LAYERS})

        def dump():
            with open(trace_out, "w", encoding="utf-8") as handle:
                json.dump(tracer.report(), handle)

        atexit.register(dump)
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        from curvecount import cli

        return cli.main(rest)
    from curvecount import severi

    pairs = [tuple(int(x) for x in item.split(":")) for item in rest[0].split(",")]
    memo = severi.MemoStore()
    cal_before = sum(_samples)
    start = time.perf_counter()
    values = [severi.severi_degree(severi.validate(d, delta, (), (d,)), memo)
              for d, delta in pairs]
    elapsed = time.perf_counter() - start - (sum(_samples) - cal_before)
    for (d, delta), value in zip(pairs, values):
        print(d, delta, value)
    print("sweep_s %.9f" % elapsed, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
