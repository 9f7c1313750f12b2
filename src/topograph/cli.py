"""Command line interface.

Subcommands:
  mu      Markov fraction (and path, Markov number) at a coordinate
  triple  Markov triple at a tree path
  cohn    Cohn matrix, index, and trace/3 at a coordinate
  cf      word, periodization, or rational companion at a coordinate
  tree    enumerate one of the six trees to JSON, DOT, or CSV
  verify  run cross-verification suites

tree opens --out in place at the export's first write, once the walk is done.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error (an integer is ASCII digits, as rational.parse_int
reads it), an option the command does not use, an exceeded cap, or an
unwritable --out or stdout (a closed pipe too, even when the message cannot
be written), and 3 an internal error (a bug, such as an InvariantError or a
CombineError, or running out of memory), reported with its traceback.  Tree
and verify depths are capped (default 12, override with --max-depth, hard
ceiling 24); point queries at t = p/q with companion repetition m are capped
at q * m <= HARD_POINT_CAP, a triple PATH at Farey denominator q <=
HARD_TRIPLE_CAP, a Cohn parameter at |a| < HARD_A_CAP, and verify --a-values
at HARD_A_VALUES_CAP entries.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback
from contextlib import contextmanager
from dataclasses import asdict

from .cftree import (
    format_qi,
    left_companion,
    markov_cf,
    markov_irrationality,
    periodic_value,
)
from .cohn import cohn_at, cohn_index, trace_map
from .errors import CombineError, DomainError, InvariantError, TopographError
from .export import EXPORT_FORMATS, KINDS, TREE_KINDS, build_export, render
from .markov import markov_fraction, markov_triple_at
from .rational import (
    cf_eval,
    format_cf_word,
    format_fraction,
    format_mat2,
    parse_fraction,
    parse_int,
)
from .tree import HARD_DEPTH_CAP, format_path, locate, parse_path
from .verify import DEFAULT_A_VALUES, SUITES, format_report, run_suites

DEFAULT_CLI_DEPTH_CAP = 12


def _check_depth(args) -> None:
    """Refuse a --depth beyond --max-depth; the library refuses one beyond its hard cap."""
    if args.depth > args.max_depth:
        raise TopographError(f"depth {args.depth} exceeds cap {args.max_depth}")


def integer(text: str) -> int:
    """The type of every integer option: rational.parse_int's rule."""
    return parse_int(text, "integer")


def _print_payload(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ": ")))
    else:
        for key, value in payload.items():
            print(f"{key} = {value}")


# ============================================================
# subcommands
# ============================================================

def cmd_mu(args) -> int:
    t = parse_fraction(args.coordinate)
    value = markov_fraction(t)
    path = format_path(locate(t)) if 0 < t < 1 else "boundary"
    _print_payload({
        "coordinate": format_fraction(t),
        "value": format_fraction(value),
        "path": path,
        "markov_number": str(value.denominator),
    }, args.format == "json")
    return 0


def cmd_triple(args) -> int:
    path = parse_path(args.path)
    triple = markov_triple_at(path)
    _print_payload({
        "path": format_path(path),
        "triple": f"({triple.x}, {triple.y}, {triple.z})",
    }, args.format == "json")
    return 0


def cmd_cohn(args) -> int:
    t = parse_fraction(args.coordinate)
    c = cohn_at(t, args.a)
    _print_payload({
        "coordinate": format_fraction(t),
        "a": str(args.a),
        "matrix": format_mat2(c.m),
        "index": format_fraction(cohn_index(c)),
        "markov_number": str(trace_map(c)),
    }, args.format == "json")
    return 0


def cmd_cf(args) -> int:
    if args.m is not None and args.mode != "companion":
        raise TopographError("--m applies only to --mode companion")
    t = parse_fraction(args.coordinate)
    payload = {"coordinate": format_fraction(t)}
    if args.mode == "word":
        word = markov_cf(t)
        payload["word"] = format_cf_word(word)
        payload["value"] = format_fraction(cf_eval(word))
    elif args.mode == "periodic":
        word = markov_cf(t)
        payload["word"] = format_cf_word(word, periodic=True)
        payload["value"] = format_qi(periodic_value(word))
    else:
        m = 1 if args.m is None else args.m
        payload["m"] = str(m)
        payload["companion"] = format_fraction(left_companion(t, m))
        payload["limit"] = format_qi(markov_irrationality(markov_fraction(t)))
    _print_payload(payload, args.format == "json")
    return 0


def cmd_tree(args) -> int:
    _check_depth(args)
    if args.a is not None and not KINDS[args.kind].takes_a:
        raise TopographError(f"--a is a Cohn parameter; the {args.kind} tree takes none")
    export = build_export(args.kind, args.depth, args.a or 0)  # a header: nothing grown yet
    if args.out is not None:
        out = _OpenAtFirstWrite(args.out)
        try:
            render(export, args.format, out)
        finally:
            out.close()
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()  # what the text layer holds goes first
        render(export, args.format, sys.stdout.buffer)
    else:  # a text stream put in place of stdout, such as io.StringIO
        sys.stdout.write(render(export, args.format))
    return 0


class _OpenAtFirstWrite:
    """The binary file at path, opened by open(path, "wb") at the first write.

    The writers write only once their walk is done, so a failed export
    leaves path as it was.  What open would refuse for its name or mode is
    refused here, before any work: no name, a directory, or what os.access
    says cannot be written (for a new file or a dangling symlink, the
    directory that will hold it).  An error only open or write can show,
    such as a full disk, comes when the export is written.
    """

    def __init__(self, path: str):
        if not os.path.basename(path):  # "", or a name that ends in a slash
            raise TopographError(f"--out {path!r} names no file")
        if os.path.isdir(path):
            raise TopographError(f"--out {path!r} is a directory")
        if os.path.exists(path):
            writable = os.access(path, os.W_OK)
        else:
            directory = os.path.dirname(os.path.realpath(path))
            writable = os.path.isdir(directory) and os.access(directory, os.W_OK | os.X_OK)
        if not writable:
            raise TopographError(f"cannot write --out {path!r}")
        self.path, self.file = path, None

    def write(self, data: bytes) -> int:
        with self._naming_path():
            if self.file is None:
                self.file = open(self.path, "wb")
            return self.file.write(data)

    def close(self) -> None:
        if self.file is not None:
            with self._naming_path():
                self.file.close()  # flushes what the buffer holds

    @contextmanager
    def _naming_path(self):
        """Re-raise a write's OSError, which names no file, with path, as open's has."""
        try:
            yield
        except OSError as exc:
            if exc.filename is not None or exc.errno is None:
                raise
            raise OSError(exc.errno, exc.strerror, self.path) from None


def cmd_verify(args) -> int:
    _check_depth(args)
    names = list(SUITES) if args.suites == "all" else [
        s.strip() for s in args.suites.split(",") if s.strip()
    ]
    if args.a_values is None:
        a_values = DEFAULT_A_VALUES
    elif "index" not in names:
        raise TopographError("--a-values applies only to the index suite")
    else:
        try:
            a_values = tuple(parse_int(a, "--a-values entry") for a in args.a_values.split(","))
        except DomainError:
            raise TopographError(f"--a-values must be comma-separated integers, "
                                 f"got {args.a_values!r}") from None
    reports = run_suites(names, args.depth, a_values)
    if args.format == "json":
        print(json.dumps([{**asdict(r), "wall_time": round(r.wall_time, 6),
                            "failures": r.failures, "ok": r.ok} for r in reports],
                         sort_keys=True, indent=1))
    else:
        for report in reports:
            print(format_report(report))
        print("overall: " + ("PASS" if all(r.ok for r in reports) else "FAIL"))
    return 0 if all(r.ok for r in reports) else 1


# ============================================================
# parser
# ============================================================

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that lets an OSError from printing help or usage
    propagate, where argparse drops it, so main exits 2 on a closed stream."""

    def _print_message(self, message, file=None):
        if message:
            (file or sys.stderr).write(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="topograph",
        description="Exact arithmetic on the Conway topograph: Farey and Markov "
                    "fractions, Markov triples, Cohn matrices, and continued "
                    "fraction words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default=choices[0])

    p_mu = sub.add_parser("mu", help="Markov fraction at a coordinate in [0, 1]")
    p_mu.add_argument("coordinate", help="fraction like 1/2")
    add_format(p_mu)
    p_mu.set_defaults(func=cmd_mu)

    p_triple = sub.add_parser("triple", help="Markov triple at a tree path")
    p_triple.add_argument("path", help="word over L/R, or - for the root")
    add_format(p_triple)
    p_triple.set_defaults(func=cmd_triple)

    p_cohn = sub.add_parser("cohn", help="Cohn matrix at a coordinate")
    p_cohn.add_argument("coordinate", help="fraction like 1/2")
    p_cohn.add_argument("--a", type=integer, default=0, help="matrix family parameter")
    add_format(p_cohn)
    p_cohn.set_defaults(func=cmd_cohn)

    p_cf = sub.add_parser("cf", help="continued fraction word at a coordinate")
    p_cf.add_argument("coordinate", help="fraction like 1/2")
    p_cf.add_argument("--mode", choices=("word", "periodic", "companion"),
                      default="word")
    p_cf.add_argument("--m", type=integer,
                      help="repetition count for --mode companion (default 1)")
    add_format(p_cf)
    p_cf.set_defaults(func=cmd_cf)

    p_tree = sub.add_parser("tree", help="enumerate a tree and serialize it")
    p_tree.add_argument("--kind", choices=TREE_KINDS, required=True)
    p_tree.add_argument("--depth", type=integer, required=True)
    p_tree.add_argument("--a", type=integer, help="Cohn parameter, for --kind cohn (default 0)")
    add_format(p_tree, choices=tuple(EXPORT_FORMATS))
    p_tree.add_argument("--out", help="write to this file instead of stdout")
    p_tree.add_argument("--max-depth", type=integer, default=DEFAULT_CLI_DEPTH_CAP,
                        help=f"raise the depth cap (hard ceiling {HARD_DEPTH_CAP})")
    p_tree.set_defaults(func=cmd_tree)

    p_verify = sub.add_parser("verify", help="run cross-verification suites")
    p_verify.add_argument("--suites", default="all",
                          help="comma-separated suite names, or 'all'; "
                               f"available: {', '.join(SUITES)}")
    p_verify.add_argument("--depth", type=integer, default=8)
    p_verify.add_argument("--a-values",
                          help="comma-separated Cohn parameters for the index suite "
                               f"(default {','.join(map(str, DEFAULT_A_VALUES))})")
    add_format(p_verify)
    p_verify.add_argument("--max-depth", type=integer, default=DEFAULT_CLI_DEPTH_CAP,
                          help=f"raise the depth cap (hard ceiling {HARD_DEPTH_CAP})")
    # argparse reads "-2,0" as an option, since it is no plain negative
    # number; no option of verify starts with '-' and a digit.
    p_verify._negative_number_matcher = re.compile(r"-\d")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@contextmanager
def _any_int_digits():
    """Lift the interpreter's int-to-decimal digit limit (Python >= 3.10.7).

    Answers within the depth and point caps run to about 10^5 digits, and the
    caps, not this guard, are what bound the work.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _report_error(text: str) -> None:
    """Print text to stderr, even when stdout or stderr is a closed pipe.

    A stream that cannot be flushed is pointed at devnull (the Python docs'
    SIGPIPE note), so neither this message nor the interpreter's own flush at
    exit raises, and the exit code stays the one main returns.
    """
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is sys.stderr:
                print(text, file=stream)
            stream.flush()
        except OSError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stream.fileno())
            os.close(devnull)


def _internal_error(exc: Exception) -> int:
    """Report a bug with its traceback: exit 3, never 1 (a counterexample)."""
    _report_error(f"{traceback.format_exc()}error: internal error: "
                  f"{type(exc).__name__}: {exc}")
    return 3


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # --help or a usage error, which argparse has printed
            sys.stdout.flush()
            raise
        with _any_int_digits():
            code = args.func(args)
        sys.stdout.flush()  # so an unwritable stdout is an output error, exit 2
        return code
    except (InvariantError, CombineError) as exc:  # every input is checked before a walk
        return _internal_error(exc)
    except (TopographError, ValueError, OSError) as exc:
        _report_error(f"error: {exc}")
        return 2
    except Exception as exc:
        return _internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
