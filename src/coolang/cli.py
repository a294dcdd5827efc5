"""coolc: compile, preexecute, and run programs from the command line."""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from typing import Optional

from . import build
from .errors import CoolError, UndecodableInput
from .preexec import preexecute
from .runtime import Interpreter
from .search import SearchOptions
from .serialize import _MAGIC, deserialize, serialize, write_file


def _load_input(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise UndecodableInput(
            f"{path}: not UTF-8 text (bad byte at offset {exc.start})"
        ) from None
    if text.startswith(_MAGIC):
        return deserialize(text)
    return build(text)


def _options(args) -> SearchOptions:
    return SearchOptions(
        silo_size=args.silo_size,
        max_rounds=args.max_rounds,
        max_tree_nodes=args.max_tree_nodes,
    )


def _tracer(args):
    sink = None
    if args.trace_silo:
        sink = open(args.trace_silo, "w", encoding="utf-8")
    elif os.environ.get("COOLC_TRACE") == "1":
        sink = sys.stderr

    if sink is None:
        return None, lambda: None

    def observer(rnd, weight, segment):
        digest = hashlib.sha1(repr(segment.digest()).encode()).hexdigest()[:12]
        print(f"round {rnd} weight {weight} {digest}", file=sink)

    def close():
        if sink is not sys.stderr:
            sink.close()

    return observer, close


def _count(text: str) -> int:
    """argparse type for the search limits: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _out_path(args, suffix: str) -> str:
    if args.output:
        return args.output
    stem, _ = os.path.splitext(args.input)
    return stem + suffix


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="coolc", description="constraint and object oriented language toolchain"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SearchOptions()
    for name, help_ in (
        ("compile", "translate source into a code table file"),
        ("preexec", "bind expressions to declarations ahead of running"),
        ("run", "preexecute if needed, then execute"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input")
        p.add_argument("-o", "--output", default=None)
        p.add_argument("--silo-size", type=_count, default=defaults.silo_size)
        p.add_argument("--max-rounds", type=_count, default=defaults.max_rounds)
        p.add_argument("--max-tree-nodes", type=_count, default=defaults.max_tree_nodes)
        p.add_argument("--trace-silo", default=None, metavar="PATH")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 4 if exc.code not in (0, None) else 0

    close_trace = None
    try:
        observer, close_trace = _tracer(args)
        tables = _load_input(args.input)
        if args.command == "compile":
            write_file(tables, _out_path(args, ".ccode"))
            return 0
        if not tables.preexecuted:
            preexecute(tables, options=_options(args), observer=observer)
        if args.command == "preexec":
            write_file(tables, _out_path(args, ".ccode"))
            return 0
        interp = Interpreter(tables)
        interp.run()
        for line in interp.output:
            print(line)
        return 0
    except OSError as exc:
        print(f"coolc: {exc}", file=sys.stderr)
        return 4
    except CoolError as exc:
        print(f"coolc: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if close_trace is not None:
            close_trace()


if __name__ == "__main__":
    sys.exit(main())
