"""Every hash-table build and probe outside the tables runs through
``repro.exec``.

``execute_build``/``execute_probe`` are the one place that decides how
a build or a probe is split across workers, and the equivalence tests
pin them bit-identical to one serial call.  A module that calls a
table's batch methods directly would be a second functional path that
those tests do not see.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: the directories that may call a hash table's batch methods: the
#: tables themselves and the morsel drivers.
ALLOWED = (SRC / "core" / "hashtable", SRC / "exec")

#: a hash table's build and probe entry points.
TABLE_CALLS = ("insert_batch", "lookup_batch", "lookup_into")


def _table_calls(tree):
    """(line, method) for each call of a hash table's batch method."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TABLE_CALLS
        ):
            yield node.lineno, node.func.attr


def test_only_exec_builds_or_probes_hash_tables():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: .{method}("
        for path in sorted(SRC.rglob("*.py"))
        if not any(directory in path.parents for directory in ALLOWED)
        for line, method in _table_calls(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_table_call_check_sees_each_call():
    source = (
        "table.insert_batch(keys, values)\n"
        "found, values = self.table.lookup_batch(keys[alive])\n"
        "view.lookup_into(keys, found, values)\n"
        "execute_probe(table, keys)\n"
        "insert_batch(keys, values)\n"
    )
    assert [method for _line, method in sorted(_table_calls(ast.parse(source)))] == [
        "insert_batch",
        "lookup_batch",
        "lookup_into",
    ]
