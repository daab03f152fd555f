"""The ``rkdual`` command line front end.

    rkdual <command> <input-file> [--ring Z|Q|Z/p] [--seed N] [--count N]
           [--format text|json] [--out PATH]

Commands: validate, subdivide, ball-complex, dualize, homology, verify,
random, emit-cells.  Exit codes: 0 success, 1 check failure, 2 input error.
The ``random`` command ignores the input file and runs a seeded sweep of
property checks on generated K-spaces.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .checks import run_command
from .simplicial import InputError

COMMANDS = ("validate", "subdivide", "ball-complex", "dualize", "homology",
            "verify", "random", "emit-cells")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rkdual",
        description="Exact verification of blocked chain duality over a "
                    "simplicial control map.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", nargs="?",
                        help="JSON document (not needed for 'random')")
    parser.add_argument("--ring", default=None,
                        help="coefficient ring: Z, Q or Z/p (overrides the document)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--out", default=None,
                        help="write the report (or cell file) here instead of stdout")
    return parser


def _table(pairs) -> dict:
    """A JSON object; a key it repeats is an input error."""
    table = {}
    for key, value in pairs:
        if key in table:
            raise InputError(f"repeated key {key!r} in a JSON object")
        table[key] = value
    return table


def _load(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: "
                         f"{exc.strerror or exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"input file is not UTF-8: byte "
                         f"{raw[exc.start:exc.start + 1]!r} at offset {exc.start}")
    try:
        return json.loads(text, object_pairs_hook=_table)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise InputError("input nests too deeply") from None


def _emit(text: str, out_path):
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file {out_path}: "
                         f"{exc.strerror or exc}") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    payload = None
    document_name = None
    try:
        if args.command != "random":
            if not args.input:
                raise InputError(f"command {args.command!r} needs an input file")
            payload = _load(args.input)
            document_name = os.path.basename(args.input)
        report = run_command(args.command, payload, ring_override=args.ring,
                             seed=args.seed, count=args.count,
                             document_name=document_name)
        if args.command == "emit-cells":
            lines = [line for key in sorted(report.tables)
                     if key.startswith("cells/") for line in report.tables[key]]
            _emit("\n".join(lines) + "\n", args.out)
        elif args.format == "json":
            _emit(report.to_json(), args.out)
        else:
            _emit(report.to_text(elapsed=time.monotonic() - started),
                  args.out)
    except InputError as exc:
        sys.stderr.write(f"rkdual: error: {exc}\n")
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
