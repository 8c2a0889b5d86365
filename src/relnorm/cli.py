"""Command-line front end.

Subcommands:

    normalize <file> --nf {2,3} [--ddl | --json] [--verify]
    verify <file>
    bench [--reps N] [--csv PATH]
    corpus list

Exit codes: 0 success, 1 input error (usage errors included), 2
verification failure.

Each command handler builds its whole output and returns it as ``(exit
code, stdout text, stderr text)``; ``run`` is the only writer, and writes
only once the handler has returned.  So an input error found at any stage
leaves standard output empty and standard error one ``error:`` line.
argparse's usage and help text are the one exception: they are written
while parsing, before a handler runs.

A ``normalize`` or ``verify`` run loads the pipeline modules and nothing
else from the package.  ``bench`` imports ``relnorm.baseline`` (with
``statistics``) and ``corpus list`` imports ``relnorm.corpus`` inside
their handlers, and ``--json`` imports ``json`` in its branch, so each
command pays at start-up only for the modules it runs.  The benchmark
times ``import relnorm.cli`` in a fresh process as ``cli.import_ms``,
apart from the bare interpreter's ``cli.interpreter_ms``; where no
bytecode is cached, the import includes compiling each module it loads.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from io import TextIOBase

from .ddl import emit_ddl
from .errors import NormalizationError
from .normalizer import PipelineState, TableStructure, decompose_2nf, decompose_3nf, prepare
from .schema_file import parse_schema_file
from .verifier import is_lossless, preserves_dependencies, scan_violations


# normal form -> its synthesis; the scan mode is f"{nf}nf"
_DECOMPOSE = {2: decompose_2nf, 3: decompose_3nf}


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter, handed the width it would read itself.

    Given no width, ``HelpFormatter`` imports ``shutil`` (and the seven
    modules it brings) for ``shutil.get_terminal_size``, and argparse
    builds a formatter for every argument it adds.  This reads the same
    width the same way: ``COLUMNS`` if it is a positive integer, else the
    width of the terminal on standard output, else 80; less 2.
    """

    def __init__(self, prog: str, **kwargs) -> None:
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):
                columns = 0
        super().__init__(prog, width=(columns or 80) - 2, **kwargs)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, an input error, rather
    than argparse's 2, which here means a failed verification, and whose
    help is laid out by :class:`_Formatter`, as is every subcommand's."""

    def __init__(self, **kwargs) -> None:
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message: str):
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
    with open(path, "rb") as f:
        data = f.read()
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


def _tables_text(state: PipelineState, nf: int, tables: list[TableStructure]) -> str:
    lines = [f"relation: {state.flat.relation_name}", f"normal form: {nf}NF", f"tables: {len(tables)}"]
    for t in tables:
        lines += ["", f"table {t.name}", f"  columns: {', '.join(t.attributes)}"]
        lines.append(f"  primary key: {', '.join(t.primary_key)}")
        lines += [f"  foreign key: ({', '.join(fk.columns)}) references {fk.references}" for fk in t.foreign_keys]
    return "\n".join(lines) + "\n"


def _checks(state: PipelineState, nf: int, tables: list[TableStructure]) -> tuple[bool, str, str]:
    """Run the three oracles: whether all passed, the lossless and
    preservation verdict, and the violation count."""
    lossless = is_lossless(state.flat.attribute_names(), state.cover, tables)
    preserved = preserves_dependencies(state.cover, tables)
    violations = sum(len(scan_violations(t, state.cover, f"{nf}nf")) for t in tables)
    verdict = f"lossless: {str(lossless).lower()}, dependencies preserved: {str(preserved).lower()}"
    return lossless and preserved and not violations, verdict, f"violations: {violations}"


def _cmd_normalize(args: argparse.Namespace) -> tuple[int, str, str]:
    state = _load(args.file)
    tables = _DECOMPOSE[args.nf](state.classification)
    if args.json:
        import json

        out = json.dumps(_payload(state, args.nf, tables), indent=2) + "\n"
    else:
        out = _tables_text(state, args.nf, tables)
        if args.ddl:
            out += "\n" + emit_ddl(tables).text
    if not args.verify:
        return 0, out, ""
    passed, verdict, violations = _checks(state, args.nf, tables)
    code = 0 if passed else 2
    verdict = f"{verdict}\n{violations}\n"
    # under --json stdout holds only the JSON document, so the verdict goes to stderr
    return (code, out, verdict) if args.json else (code, f"{out}\n{verdict}", "")


def _cmd_verify(args: argparse.Namespace) -> tuple[int, str, str]:
    state = _load(args.file)
    out, code = f"relation: {state.flat.relation_name}\n", 0
    for nf, decompose in _DECOMPOSE.items():
        passed, verdict, violations = _checks(state, nf, decompose(state.classification))
        out += f"{nf}NF: {verdict}, {violations}\n"
        if not passed:
            code = 2
    return code, out, ""


def _cmd_bench(args: argparse.Namespace) -> tuple[int, str, str]:
    if args.reps < 1:
        return 1, "", "error: --reps must be at least 1\n"
    from .baseline import bench
    from .corpus import load_all

    report = bench(load_all(), repetitions=args.reps)
    out = report.to_text()
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(report.to_csv())
        out += f"csv written to {args.csv}\n"
    return 0, out, ""


def _cmd_corpus(args: argparse.Namespace) -> tuple[int, str, str]:
    from .corpus import corpus_names

    return 0, "".join(f"{name}\n" for name in corpus_names()), ""


def run(argv: Sequence[str] | None = None, *, stdout: TextIOBase | None = None, stderr: TextIOBase | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "normalize": _cmd_normalize,
        "verify": _cmd_verify,
        "bench": _cmd_bench,
        "corpus": _cmd_corpus,
    }
    try:
        code, out, err = handlers[args.command](args)
    except (NormalizationError, OSError) as exc:
        code, out, err = 1, "", f"error: {exc}\n"
    try:
        for stream, text in ((stdout or sys.stdout, out), (stderr or sys.stderr, err)):
            if text:  # an empty write to a closed stdout would drop the error line
                stream.write(text)
    except BrokenPipeError:
        # the reader of our output went away; that is no input error to report
        return 1
    return code


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
