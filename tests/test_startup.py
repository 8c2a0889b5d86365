"""What a fresh interpreter loads: a command imports only the modules it
runs, and the top-level exports load nothing beyond the pipeline.

Each test starts its own ``python -S`` process, since the test process has
long since imported ``relnorm.baseline`` and ``relnorm.corpus``.  ``-S``
keeps site-packages (and any ``.pth`` imports they bring) out of the count.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relnorm
from relnorm import corpus

# runs `python -m relnorm <argv>` and prints its exit code and sys.modules
# as the last line of its output
RUN_AND_LIST_MODULES = """
import runpy, sys
try:
    runpy.run_module("relnorm", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print()
print(repr((code, sorted(sys.modules))))
"""

PIPELINE_MODULES = {
    "relnorm",
    "relnorm.cli",
    "relnorm.ddl",
    "relnorm.errors",
    "relnorm.fd_engine",
    "relnorm.normalizer",
    "relnorm.schema_file",
    "relnorm.schema_model",
    "relnorm.verifier",
}

# `dataclasses` and four of the modules it brings: no module of the package
# imports it, so no command loads them through the package's own code
NEVER_LOADED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

ONLY_ON_USE = NEVER_LOADED | {
    "statistics",
    "json",
    "pathlib",
    "typing",
    "importlib.resources",
    "relnorm.baseline",
    "relnorm.corpus",
}


def _fresh(code: str, *argv: str) -> str:
    """Stdout of ``code`` run in a new ``python -S`` process."""
    env = {**os.environ, "PYTHONPATH": str(Path(relnorm.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "command, flags", [("normalize", ["--nf", "3", "--ddl", "--verify"]), ("verify", [])], ids=["normalize", "verify"]
)
def test_command_loads_only_the_pipeline(command, flags):
    path = str(corpus.corpus_path("GH_Relation"))
    code, modules = ast.literal_eval(_fresh(RUN_AND_LIST_MODULES, command, path, *flags).splitlines()[-1])
    assert code == 0
    assert {m for m in modules if m.split(".")[0] == "relnorm"} == PIPELINE_MODULES
    assert ONLY_ON_USE.isdisjoint(modules)
    # argparse's help formatter imports shutil when it is given no width
    assert "shutil" not in modules


def _loaded_on_use(*argv: str) -> set[str]:
    """The modules of ``ONLY_ON_USE`` that a fresh ``relnorm <argv>`` loads."""
    code, modules = ast.literal_eval(_fresh(RUN_AND_LIST_MODULES, *argv).splitlines()[-1])
    assert code == 0
    return ONLY_ON_USE & set(modules)


def test_bench_loads_no_dataclasses():
    # nor importlib.resources, pathlib or typing: the corpus is read by path
    assert _loaded_on_use("bench", "--reps", "1") == {"statistics", "relnorm.baseline", "relnorm.corpus"}


def test_corpus_list_loads_only_the_corpus():
    assert _loaded_on_use("corpus", "list") == {"relnorm.corpus"}


def test_import_leaves_baseline_unloaded():
    assert _fresh("import sys, relnorm; print('relnorm.baseline' in sys.modules)") == "False\n"


@pytest.mark.parametrize(
    "access",
    [
        "value = relnorm.memory_cells_single\n"
        "print(value is relnorm.schema_model.memory_cells_single)",
        "from relnorm import memory_cells_double\n"
        "print(memory_cells_double is relnorm.schema_model.memory_cells_double)",
        "from relnorm import *\n"
        "print(memory_cells_single is relnorm.schema_model.memory_cells_single"
        " and memory_cells_double is relnorm.schema_model.memory_cells_double)",
    ],
    ids=["attribute", "from-import", "star-import"],
)
def test_export_is_the_schema_model_function(access):
    # the exports are schema_model's own functions, and reading them loads
    # no baseline; the baseline then re-exports those same objects
    code = (
        f"import sys, relnorm\n{access}\n"
        "print('relnorm.baseline' in sys.modules)\n"
        "import relnorm.baseline\n"
        "print(all(getattr(relnorm.baseline, name) is getattr(relnorm.schema_model, name)"
        " for name in ('memory_cells_single', 'memory_cells_double')))"
    )
    assert _fresh(code) == "True\nFalse\nTrue\n"


def test_unknown_name_raises_attribute_error():
    code = "import relnorm\ntry:\n    relnorm.no_such_name\nexcept AttributeError as exc:\n    print(exc)"
    assert _fresh(code) == "module 'relnorm' has no attribute 'no_such_name'\n"


def test_dir_lists_every_export():
    code = (
        "import sys, relnorm\n"
        "print(sorted(set(relnorm.__all__) - set(dir(relnorm))), 'relnorm.baseline' in sys.modules)"
    )
    assert _fresh(code) == "[] False\n"
