"""Smoke tests: every example script runs to completion.

Examples are executed in-process (imported as modules and ``main()``
called) so failures produce real tracebacks and coverage counts them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = [
    "quickstart",
    "out_of_core_join",
    "coprocessing_scaleup",
    "tpch_q6",
    "transfer_methods",
    "performance_debugging",
]


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} printed nothing"


def test_all_example_files_covered():
    on_disk = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXAMPLES)
