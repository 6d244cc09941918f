"""Command-line interface.

Three subcommands:

  qilc synth <file.qil>     synthesize a query for one program
  qilc bench <dir>          run every *.qil file in a directory
  qilc replay <file.qil>    re-run a program on recorded inputs

Reports go to stdout as JSON; human-readable progress, tables, and timing
go to stderr. Exit code 0 means synthesized (and, for replay, agreement),
2 means synthesis failed or a replay mismatch, 1 means a usage, parse, or
type error. Parse and type errors still produce a JSON report with
status "error" rather than a traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from contextlib import nullcontext
from itertools import repeat
from pathlib import Path

from . import difftest, emit, frontend, interp, report
from .relation import SchemaError, load_bindings, value_to_json, values_agree
from .synth import Options, Solution, synthesize
from .verify import Bounds

DEFAULT_SEED = 20260816


def _parse_domain(text: str) -> tuple:
    """Accept '0..2' (inclusive range) or '0,1,2' (explicit list of
    distinct values: a repeat would check the same instances again). The
    usage error names the cause: an empty domain, a repeated value, or a
    bound or value that is not an int."""

    def integer(part: str) -> int:
        try:
            return int(part)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an int: {part.strip()!r}") from None

    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = tuple(range(integer(lo), integer(hi) + 1))
    else:
        values = tuple(map(integer, text.split(","))) if text else ()
    if not values:
        raise argparse.ArgumentTypeError(f"empty domain: {text!r}")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"repeated value in domain: {text!r}")
    return values


def _int_at_least(lo: int):
    def integer(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n

    return integer


def _seconds(text: str) -> float:
    """A finite, non-negative number of seconds: the report echoes it as a
    JSON number, and JSON has no NaN or infinity."""
    try:
        secs = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 <= secs < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return secs


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other input error; 2 means the
    search failed."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_synth_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cost-bound", type=_int_at_least(0), default=24, metavar="N")
    sub.add_argument("--rel-bound", type=_int_at_least(0), default=3, metavar="B")
    sub.add_argument("--int-domain", type=_parse_domain, default=(0, 1, 2), metavar="D")
    sub.add_argument("--cases", type=_int_at_least(0), default=1000, metavar="N")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S")
    sub.add_argument("--timeout", type=_seconds, default=0.0, metavar="SECS")
    sub.add_argument("--jobs", type=_int_at_least(1), default=1, metavar="J")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qilc", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="synthesize a query for one program")
    synth.add_argument("file", type=Path)
    _add_synth_flags(synth)

    bench = subs.add_parser("bench", help="run every *.qil file in a directory")
    bench.add_argument("dir", type=Path)
    _add_synth_flags(bench)

    replay = subs.add_parser("replay", help="re-run a program on recorded inputs")
    replay.add_argument("file", type=Path)
    replay.add_argument("--input", type=Path, required=True, metavar="BINDINGS")
    replay.add_argument("--sql", default=None, metavar="QUERY")
    return parser


def _options(args: argparse.Namespace) -> Options:
    return Options(
        cost_bound=args.cost_bound,
        bounds=Bounds(rel_size=args.rel_bound, int_domain=args.int_domain),
        timeout=args.timeout,
    )


def _load_program(path: Path):
    source = path.read_text(encoding="utf-8")
    ast = frontend.parse(source)
    return frontend.typecheck(ast)


def _run_one(path: Path, options: Options, cases: int, seed: int) -> tuple[dict, int]:
    """Synthesize one file; returns (report, exit code)."""
    config = report.config_echo(options, cases, seed)
    name = path.stem
    try:
        tp = _load_program(path)
    except OSError as exc:
        return report.run_report(name, config, None, error=str(exc)), 1
    except UnicodeDecodeError as exc:
        return report.run_report(name, config, None, error=f"not UTF-8 text: {exc}"), 1
    except frontend.ParseError as exc:
        return report.run_report(name, config, None, error=f"parse error: {exc}"), 1
    except frontend.TypeCheckError as exc:
        return report.run_report(name, config, None, error=f"type error: {exc}"), 1
    name = tp.name
    outcome = synthesize(tp, options)
    if not isinstance(outcome, Solution):
        return report.run_report(name, config, outcome), 2
    # difftest checks the text that is shipped, not the query it was rendered from
    diff = difftest.run_cases(tp, emit.parse_sql(outcome.sql_text), seed=seed, cases=cases)
    code = 0 if diff.ok else 2
    return report.run_report(name, config, outcome, diff), code


def _cmd_synth(args: argparse.Namespace) -> int:
    started = time.monotonic()
    rep, code = _run_one(args.file, _options(args), args.cases, args.seed)
    sys.stdout.write(report.to_json(rep))
    print(f"{rep['programName']}: {rep['status']}", file=sys.stderr)
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return code


def _pool(workers: int):
    """A pool of spawn-started worker processes, or none for one worker."""
    if workers <= 1:
        return nullcontext()
    # imported here so that commands which never start a pool do not pay
    # the memory of the multiprocessing machinery
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"))


def _cmd_bench(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if not args.dir.is_dir():
        print(f"qilc: not a directory: {args.dir}", file=sys.stderr)
        return 1
    paths = sorted(args.dir.glob("*.qil"))
    run = (_run_one, paths, repeat(_options(args)), repeat(args.cases), repeat(args.seed))
    reports = []
    worst = 0
    # one worker process per program at most; results arrive in file order
    with _pool(min(args.jobs, len(paths), os.cpu_count() or 1)) as pool:
        for rep, code in (pool.map if pool else map)(*run):
            reports.append(rep)
            worst = max(worst, code)
            print(f"{rep['programName']}: {rep['status']}", file=sys.stderr)
    sys.stdout.write(report.to_json(report.benchmark_summary(reports)))
    sys.stderr.write(report.table(reports))
    print(f"elapsed: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return worst


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        tp = _load_program(args.file)
        inputs = load_bindings(args.input.read_text(encoding="utf-8"))
        program_value = interp.run(tp, inputs)
    except (OSError, ValueError, KeyError, frontend.ParseError, frontend.TypeCheckError, interp.InputError) as exc:
        print(f"qilc: {exc}", file=sys.stderr)
        return 1
    out = {
        "programName": tp.name,
        "program": value_to_json(program_value),
        "sql": None,
        "agree": None,
    }
    code = 0
    if args.sql is not None:
        try:
            query = emit.parse_sql(args.sql.strip())
            db = emit.MiniDb.from_values(inputs)
            sql_value = emit.eval_sql(query, db)
        except (
            emit.SqlSyntaxError,
            emit.UnknownTable,
            emit.UnknownColumn,
            emit.UnknownParam,
            SchemaError,  # a SELECT list whose output names repeat
        ) as exc:
            print(f"qilc: {exc}", file=sys.stderr)
            return 1
        except TypeError as exc:  # a comparison that orders an int against a text
            print(f"qilc: cannot evaluate the query: {exc}", file=sys.stderr)
            return 1
        agree = values_agree(program_value, sql_value)
        out["sql"] = value_to_json(sql_value)
        out["agree"] = agree
        code = 0 if agree else 2
    sys.stdout.write(report.to_json(out))
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "synth":
        return _cmd_synth(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
