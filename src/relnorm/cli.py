"""Command-line front end.

Subcommands:

    normalize <file> --nf {2,3} [--ddl | --json] [--verify]
    verify <file>
    bench [--reps N] [--csv PATH]
    corpus list

Exit codes: 0 success, 1 input error (usage errors included), 2
verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import NoReturn, Sequence, TextIO

from . import corpus as corpus_mod
from .baseline import bench
from .ddl import emit_ddl
from .errors import NormalizationError
from .normalizer import PipelineState, TableStructure, decompose_2nf, decompose_3nf, prepare
from .schema_file import parse_schema_file
from .verifier import is_lossless, preserves_dependencies, scan_violations


# normal form -> its synthesis; the scan mode is f"{nf}nf"
_DECOMPOSE = {2: decompose_2nf, 3: decompose_3nf}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, an input error, rather
    than argparse's 2, which here means a failed verification."""

    def error(self, message: str) -> NoReturn:
        try:
            super().error(message)
        except SystemExit:
            raise SystemExit(1) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relnorm",
        description="Normalize a relation to second or third normal form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("normalize", help="decompose one schema file")
    p_norm.add_argument("file", help="schema file to normalize")
    p_norm.add_argument("--nf", type=int, choices=tuple(_DECOMPOSE), default=3, help="target normal form")
    output = p_norm.add_mutually_exclusive_group()
    output.add_argument("--ddl", action="store_true", help="also print CREATE TABLE statements")
    output.add_argument("--json", action="store_true", help="emit the tables as JSON")
    p_norm.add_argument("--verify", action="store_true", help="run the decomposition oracles")

    p_verify = sub.add_parser("verify", help="run the oracles at both normal forms")
    p_verify.add_argument("file", help="schema file to verify")

    p_bench = sub.add_parser("bench", help="compare representations over the bundled corpus")
    p_bench.add_argument("--reps", type=int, default=5, help="timing repetitions (>= 1)")
    p_bench.add_argument("--csv", help="also write the report as CSV to this path")

    p_corpus = sub.add_parser("corpus", help="inspect the bundled corpus")
    p_corpus.add_argument("action", choices=("list",))
    return parser


def _load(path: str) -> PipelineState:
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the codec drops a leading byte-order mark from exc.object
        offset = len(data) - len(exc.object) + exc.start
        raise NormalizationError(
            f"{path}: not valid UTF-8 (byte {data[offset]:#04x} at offset {offset})"
        ) from None
    return prepare(parse_schema_file(text))


def _payload(state: PipelineState, nf: int, tables: list[TableStructure]) -> dict:
    return {
        "relation": state.flat.relation_name,
        "nf": nf,
        "tables": [
            {
                "name": t.name,
                "attributes": list(t.attributes),
                "primary_key": list(t.primary_key),
                "foreign_keys": [
                    {"columns": list(fk.columns), "references": fk.references}
                    for fk in t.foreign_keys
                ],
            }
            for t in tables
        ],
    }


def _print_tables(out: TextIO, state: PipelineState, nf: int, tables: list[TableStructure]) -> None:
    print(f"relation: {state.flat.relation_name}", file=out)
    print(f"normal form: {nf}NF", file=out)
    print(f"tables: {len(tables)}", file=out)
    for t in tables:
        print("", file=out)
        print(f"table {t.name}", file=out)
        print(f"  columns: {', '.join(t.attributes)}", file=out)
        print(f"  primary key: {', '.join(t.primary_key)}", file=out)
        for fk in t.foreign_keys:
            print(f"  foreign key: ({', '.join(fk.columns)}) references {fk.references}", file=out)


def _run_checks(state: PipelineState, nf: int, tables: list[TableStructure]) -> tuple[bool, bool, int]:
    universe = state.flat.attribute_names()
    lossless = is_lossless(universe, state.cover, tables)
    preserved = preserves_dependencies(state.cover, tables)
    violations = sum(len(scan_violations(t, state.cover, f"{nf}nf")) for t in tables)
    return lossless, preserved, violations


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _cmd_normalize(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    state = _load(args.file)
    tables = _DECOMPOSE[args.nf](state.classification)
    if args.json:
        print(json.dumps(_payload(state, args.nf, tables), indent=2), file=out)
    else:
        _print_tables(out, state, args.nf, tables)
        if args.ddl:
            print("", file=out)
            print(emit_ddl(tables).text, file=out, end="")
    code = 0
    if args.verify:
        lossless, preserved, violations = _run_checks(state, args.nf, tables)
        target = err if args.json else out
        if not args.json:
            print("", file=out)
        print(f"lossless: {_bool(lossless)}, dependencies preserved: {_bool(preserved)}", file=target)
        print(f"violations: {violations}", file=target)
        if not lossless or not preserved or violations:
            code = 2
    return code


def _cmd_verify(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    state = _load(args.file)
    print(f"relation: {state.flat.relation_name}", file=out)
    failed = False
    for nf, decompose in _DECOMPOSE.items():
        tables = decompose(state.classification)
        lossless, preserved, violations = _run_checks(state, nf, tables)
        print(
            f"{nf}NF: lossless: {_bool(lossless)}, dependencies preserved: "
            f"{_bool(preserved)}, violations: {violations}",
            file=out,
        )
        if not lossless or not preserved or violations:
            failed = True
    return 2 if failed else 0


def _cmd_bench(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if args.reps < 1:
        print("error: --reps must be at least 1", file=err)
        return 1
    report = bench(corpus_mod.load_all(), repetitions=args.reps)
    print(report.to_text(), file=out, end="")
    if args.csv:
        Path(args.csv).write_text(report.to_csv(), encoding="utf-8")
        print(f"csv written to {args.csv}", file=out)
    return 0


def _cmd_corpus(args: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    for name in corpus_mod.corpus_names():
        print(name, file=out)
    return 0


def run(argv: Sequence[str] | None = None, *, stdout: TextIO | None = None, stderr: TextIO | None = None) -> int:
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "normalize": _cmd_normalize,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "corpus": _cmd_corpus,
    }
    try:
        return handlers[args.command](args, out, err)
    except BrokenPipeError:
        # the reader of our output went away; that is no input error to report
        return 1
    except (NormalizationError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main() -> None:
    try:
        sys.exit(run())
    finally:
        try:
            sys.stdout.flush()
        except BrokenPipeError:
            # point stdout at the null device, so the flush at exit is quiet too
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)
