"""Byte-level goldens for the command-line output on the bundled schema files.

Each case runs one command line over one bundled ``.schema`` file and
compares stdout, stderr and the exit code with ``cli_goldens.json``
byte for byte.  Regenerate the goldens deliberately, from a tree whose
output is known to be right, with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
from pathlib import Path

import pytest

from relnorm import corpus
from relnorm.cli import run

GOLDENS = Path(__file__).with_name("cli_goldens.json")
CORPUS_DIR = Path(corpus.__file__).parent
COMMANDS = (
    ("normalize", "--nf", "2"),
    ("normalize", "--nf", "3", "--ddl", "--verify"),
    ("normalize", "--nf", "2", "--json", "--verify"),
    ("verify",),
)


def cases():
    for path in sorted(CORPUS_DIR.glob("*.schema")):
        for command in COMMANDS:
            yield f"{path.name}: {' '.join(command)}", [command[0], str(path), *command[1:]]


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}


def test_every_bundled_file_is_covered():
    recorded = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert sorted(recorded) == sorted(case for case, _ in cases())
    assert len(recorded) == 12 * len(COMMANDS)


@pytest.mark.parametrize("case,argv", list(cases()), ids=[case for case, _ in cases()])
def test_output_matches_golden(case, argv):
    expected = json.loads(GOLDENS.read_text(encoding="utf-8"))[case]
    assert capture(argv) == expected


if __name__ == "__main__":
    recorded = {case: capture(argv) for case, argv in cases()}
    GOLDENS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} cases to {GOLDENS}")
