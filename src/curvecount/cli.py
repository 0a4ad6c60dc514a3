"""Command-line front end.

Subcommands: severi (one degree), kontsevich (rational counts), table
(batch degrees into a cache file), verify (consistency checks), and
case-study (the two classical derivations of the 12 nodal cubics).
COMMANDS is the one grammar.  main reads argv from it, so a valid command
never loads argparse; build_parser makes argparse's parser from it for
what the table declines: help, usage errors, and spellings only argparse
takes (`--d=3`, an abbreviated or repeated flag, a value starting '-').
Exit codes: 0 computed/verified, 1 verification failure, cache
corruption, a closed stdout, or a valid run out of memory or stack (it
could not finish for a reason outside its input), 2 usage or input
error.  Output is deterministic: identical invocations produce
byte-identical stdout, and counts of any size print exactly.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__, exact_decimals

def _parse_profile(text: str, flag: str) -> tuple[int, ...]:
    """Comma-separated multiplicities, e.g. '0,1' for one order-2 contact."""
    if not text:
        return ()
    try:
        entries = tuple(int(piece) for piece in text.split(","))
        problem = "entries must be nonnegative" if any(e < 0 for e in entries) else ""
    except ValueError:
        problem = "expects comma-separated integers"
    if problem:
        import argparse
        raise argparse.ArgumentTypeError("%s %s, got %r" % (flag, problem, text))
    return entries


def _int_at_least(low: int, name: str):
    """Type of an integer bound >= low, named as the library names it."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            import argparse
            raise argparse.ArgumentTypeError("%s must be >= %d, got %d" % (name, low, value))
        return value

    return integer


def _fmt_profile(profile: tuple[int, ...]) -> str:
    return "(" + ",".join(str(e) for e in profile) + ")"


def _emit(fmt: str, text, rows, doc) -> int:
    """Print one command's output in the format fmt and return 0.

    text (lines) and rows (csv, header first) are iterables, each line
    printed as it is consumed; doc() builds the JSON document, and only
    for json.
    """
    if fmt == "json":
        import json
        print(json.dumps(doc(), sort_keys=True))
    elif fmt == "csv":
        import csv
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        for line in text:
            print(line)
    return 0


def cmd_severi(args) -> int:
    from . import severi
    index = severi.SeveriIndex(args.d, args.delta, args.alpha, args.beta)
    d, delta, alpha, beta = index
    degree, dim, g = (severi.severi_degree(index), severi.dimension(index),
                      severi.genus(index))
    return _emit(
        args.format,
        ["index d=%d delta=%d alpha=%s beta=%s"
         % (d, delta, _fmt_profile(alpha), _fmt_profile(beta)),
         "degree %d" % degree, "dim %d" % dim, "genus %d" % g],
        [("d", "delta", "alpha", "beta", "degree", "dim", "genus"),
         (d, delta, ",".join(map(str, alpha)), ",".join(map(str, beta)), degree, dim, g)],
        lambda: {"d": d, "delta": delta, "alpha": alpha, "beta": beta,
                 "degree": str(degree), "dim": dim, "genus": g},
    )


def cmd_kontsevich(args) -> int:
    from . import kontsevich
    rows = kontsevich.rational_table(args.max)
    width = len(str(max(n for _, n in rows)))  # counts are positive
    return _emit(args.format,
                 ("%2d  %*s" % (d, width, n) for d, n in rows),
                 [("d", "n"), *rows],
                 lambda: [{"d": d, "n": str(n)} for d, n in rows])


def cmd_table(args) -> int:
    """Compute the table, check the cache against it, append the rows it lacks."""
    from . import cache, severi
    table = severi.severi_table(args.dmax, args.deltamax)
    conflict, verified, records, fresh = cache.check_cache(args.cache, table)
    if conflict:
        print("cache corruption %s" % conflict, file=sys.stderr)
        return 1
    if fresh:  # a clean re-run never opens the cache to write, so it may be read-only
        cache.append_records(args.cache, fresh)
    print("cache %s" % args.cache)
    print("verified %d" % verified)
    print("appended %d" % len(fresh))
    print("records %d" % (records + len(fresh)))
    return 0


def _verify_wdvv(d_max: int, x1_bound: int) -> tuple[int, list[str]]:
    from . import series
    residual = series.wdvv_residual(d_max, x1_bound)
    window = series.wdvv_window(d_max, x1_bound)
    lines = ["wdvv d_max=%d x1_bound=%d window=%d nonzero=%d"
             % (d_max, x1_bound, len(window), len(residual))]
    for (a, b), value in residual:
        lines.append("  residual x1^%d x2^%d = %s" % (a, b, value))
    return (1 if residual else 0), lines


def _verify_getzler(D: int) -> tuple[int, list[str]]:
    from . import genfunc
    bad = genfunc.getzler_residual(D)
    lines = ["getzler D=%d violations=%d" % (D, len(bad))]
    for alpha, beta, m in bad:
        lines.append(
            "  monomial alpha=%s beta=%s z^%d"
            % (_fmt_profile(alpha), _fmt_profile(beta), m)
        )
    return (1 if bad else 0), lines


def _verify_one_node(d_max: int) -> tuple[int, list[str]]:
    from . import classical, severi
    memo = severi.MemoStore()
    bad = []
    for d in range(2, d_max + 1):
        expected = 3 * (d - 1) ** 2
        routes = {  # N(d, 1; (1), (d-1)) = N(d, 1; (), (d)), read by the recursion
            "recursion": severi.severi_degree(
                severi.SeveriIndex(d, 1, (1,), (d - 1,)), memo
            ),
            "chow": classical.chow_one_node(d),
            "euler": classical.euler_one_node(d),
        }
        if any(value != expected for value in routes.values()):
            bad.append((d, expected, routes))
    lines = ["one-node d=2..%d disagreements=%d" % (d_max, len(bad))]
    for d, expected, routes in bad:
        lines.append(
            "  d=%d expected %d got recursion=%d chow=%d euler=%d"
            % (d, expected, *routes.values())
        )
    return (1 if bad else 0), lines


def _verify_case_studies() -> tuple[int, list[str]]:
    from . import classical, kontsevich, severi
    values = {  # the recursion's N(3, 1; (), (3)) from the table, which never routes
        "cross-ratio": classical.cross_ratio_cubics().count,
        "rational-fibration": classical.fibration_cubics().count,
        "recursion": {row[:2]: row[2] for row in severi.severi_table(3, 1)[2]}[(), (3,)][1],
        "kontsevich": kontsevich.rational_table(3)[-1][1],
    }
    agree = len(set(values.values())) == 1 and values["recursion"] == 12
    lines = [
        "case-studies "
        + " ".join("%s=%d" % (name, values[name]) for name in sorted(values))
    ]
    return (0 if agree else 1), lines


# suite -> (runner, (flag attribute, default, low, high) per argument)
VERIFY_SUITES = {
    "wdvv": (_verify_wdvv, (("dmax", 6, 1, 16), ("x1", 8, 3, 64))),
    "getzler": (_verify_getzler, (("D", 4, 2, 10),)),
    "one-node": (_verify_one_node, (("dmax", 12, 2, 12),)),
    "case-studies": (_verify_case_studies, ()),
}
# every bound flag of the verify subcommand, with its help text
VERIFY_FLAGS = (("dmax", "bound"), ("x1", "x1 truncation"), ("D", "degree truncation"))


def _verify_help(attr: str, what: str) -> str:
    """Help for a verify flag from VERIFY_SUITES (shared flags: upper bounds only)."""
    uses = [(name, low, high) for name, (_, flags) in VERIFY_SUITES.items()
            for flag, _, low, high in flags if flag == attr]
    shared = len(uses) > 1
    return "%s for %s" % (what, " or ".join(
        "%s (%s)" % (name, "<= %d" % high if shared else "%d..%d" % (low, high))
        for name, low, high in uses))


def cmd_verify(args) -> int:
    """Run one suite, or every suite at its defaults for 'all'."""
    # a suite rejects a bound flag it does not read; 'all' is no suite and reads none
    reads = [attr for attr, *_ in VERIFY_SUITES.get(args.which, (None, ()))[1]]
    for attr, _ in VERIFY_FLAGS:
        if getattr(args, attr) is not None and attr not in reads:
            print("error: %s does not take --%s" % (args.which, attr),
                  file=sys.stderr)
            return 2
    checks = []
    for name in VERIFY_SUITES if args.which == "all" else [args.which]:
        runner, flags = VERIFY_SUITES[name]
        values = []
        for attr, default, low, high in flags:
            value = getattr(args, attr)
            if value is None:
                value = default
            if not low <= value <= high:
                print("error: %s supports %d <= %s <= %d" % (name, low, attr, high),
                      file=sys.stderr)
                return 2
            values.append(value)
        checks.append(runner(*values))
    status = max(code for code, _ in checks)
    for _, lines in checks:
        for line in lines:
            print(line)
    print("ok" if status == 0 else "FAIL")
    return status


def cmd_case_study(args) -> int:
    from . import classical
    reports = [classical.cross_ratio_cubics(), classical.fibration_cubics()]

    def text():
        for rep in reports:
            yield "case-study %s" % rep.method
            for name, value in rep.quantities.items():
                yield "  %s = %d" % (name, value)
            for note in rep.notes:
                yield "  note: %s" % note

    return _emit(args.format, text(),
                 [("method", "quantity", "value"),
                  *((rep.method, name, value) for rep in reports
                    for name, value in rep.quantities.items())],
                 lambda: [rep._asdict() for rep in reports])


FORMAT = ("--format", ("text", "csv", "json"), "text", False, "output format (default text)")
# subcommand -> (help, handler, flags); a flag is (name, type, default,
# required, help) in argparse's order, a tuple type lists its choices, and
# a name without "--" is a positional
COMMANDS = {
    "severi": ("one Severi degree with dimension and genus", cmd_severi, (
        FORMAT,
        ("--d", int, None, True, "curve degree"),
        ("--delta", _int_at_least(0, "delta"), None, True, "number of nodes"),
        ("--alpha", lambda s: _parse_profile(s, "--alpha"), "", False,
         "assigned contact multiplicities, e.g. 0,1"),
        ("--beta", lambda s: _parse_profile(s, "--beta"), "", False,
         "unassigned contact multiplicities, e.g. 3"))),
    "kontsevich": ("rational curve counts N(d)", cmd_kontsevich, (
        FORMAT, ("--max", _int_at_least(1, "d_max"), None, True, "largest degree"))),
    "table": ("batch Severi degrees into a cache file", cmd_table, (
        ("--dmax", _int_at_least(1, "d_max"), None, True, None),
        ("--deltamax", _int_at_least(0, "delta_max"), None, True, None),
        ("--cache", str, None, True, "degree cache file"))),
    "verify": ("run a consistency check suite", cmd_verify, (
        ("which", (*VERIFY_SUITES, "all"), None, True, None),
        *(("--" + attr, int, None, False, _verify_help(attr, what))
          for attr, what in VERIFY_FLAGS))),
    "case-study": ("both classical derivations of the 12 nodal cubics",
                   cmd_case_study, (FORMAT,)),
}


def _table_args(argv):
    """The namespace argparse builds for argv, read from COMMANDS; None
    where the table leaves argv to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, flags = COMMANDS[argv[0]]
    names = [flag[0] for flag in flags]
    free = [name for name in names if not name.startswith("-")]
    given, words = {}, iter(argv[1:])
    for word in words:
        if word.startswith("-"):
            name, text = word, next(words, "-")  # no value: declined as one
        elif free:
            name, text = free.pop(0), word
        else:
            return None
        if name not in names or name in given or text.startswith("-"):
            return None
        given[name] = text
    values = {"command": argv[0], "func": func}
    for name, kind, default, required, _ in flags:
        text = given.get(name, default)
        if required and name not in given or isinstance(kind, tuple) and text not in kind:
            return None
        if callable(kind) and text is not None:
            try:
                text = kind(text)
            except Exception:  # argparse calls the type again and reports what it raised
                return None
        values[name.lstrip("-")] = text
    return SimpleNamespace(**values)


def build_parser():
    """argparse's parser for COMMANDS."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="curvecount",
        description="Exact counts of nodal plane curves with tangency conditions.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, flags) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, kind, default, required, about in flags:
            options = {"type": kind} if callable(kind) else {"choices": kind}
            if name.startswith("-"):
                options.update(default=default, required=required)
            p.add_argument(name, help=about, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--version"]:
        print(__version__)
        return 0
    args = _table_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
    try:
        with exact_decimals():
            return args.func(args)
    # CPython 3.11 raises SystemError where it cannot allocate a frame
    except (MemoryError, RecursionError, SystemError) as exc:
        limit = type(exc).__name__  # printed below, once the frames it holds are freed
    except Exception as exc:
        from . import cache, classical, severi  # the error classes, loaded only here
        for classes, code, prefix in (
                ((severi.InvalidIndex, cache.CacheError), 2, "error"),
                (classical.ArithmeticMismatch, 1, "verification failure"),
                (cache.CacheCorruption, 1, "cache corruption")):
            if isinstance(exc, classes):
                print("%s: %s" % (prefix, exc), file=sys.stderr)
                return code
        raise
    print("out of resources: %s" % limit, file=sys.stderr)
    return 1


def entry() -> None:
    """Console entry point; a stdout closed early (`| head`) exits 1, no traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # devnull takes stdout, so the final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
