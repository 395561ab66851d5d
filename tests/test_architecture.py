"""Layering rules: which parts of ``src/repro`` may make which calls.

Each rule names the calls that cross one of the system's boundaries and
the files or directories allowed to make them; its comment says why the
boundary exists.  Every module is parsed once and walked once, and a
matching use outside the rule's allow-list is an offender.  A rule's
allow-list and scope are paths relative to the ``repro`` package, and
each must exist, so an exemption cannot outlive the code it exempts.
"""

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Tuple

import pytest

import repro

SRC = Path(repro.__file__).parent


def _called(node: ast.AST):
    """The name a call calls: ``f`` for ``f(...)`` and for ``x.f(...)``."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
    return None


def calls(*names: str) -> Callable[[ast.AST], Iterator[str]]:
    def match(node: ast.AST) -> Iterator[str]:
        name = _called(node)
        if name in names:
            yield f"{name}("

    return match


#: the errors of a configuration that cannot run.
CANNOT_RUN = ("OutOfMemoryError", "UnsupportedTransferError")


def input_placement(node: ast.AST) -> Iterator[str]:
    """Reading a method's Table-1 kind, placing an input, or catching a
    :data:`CANNOT_RUN` error."""
    if isinstance(node, ast.Attribute) and node.attr == "required_kind":
        yield "required_kind"
    elif _called(node) == "placed":
        yield "placed("
    elif isinstance(node, ast.ExceptHandler) and node.type is not None:
        for name in ast.walk(node.type):
            caught = getattr(name, "id", getattr(name, "attr", None))
            if caught in CANNOT_RUN:
                yield f"except {caught}"


def _under(path: Path, root: Path) -> bool:
    return path == root or root in path.parents


@dataclass(frozen=True)
class Rule:
    name: str
    match: Callable[[ast.AST], Iterator[str]]
    allowed: Tuple[Path, ...]
    #: the part of the package the rule covers.
    within: Path = Path(".")

    def covers(self, path: Path) -> bool:
        return _under(path, self.within) and not any(
            _under(path, allowed) for allowed in self.allowed
        )


RULES = (
    # The plan executor owns overlap arithmetic, the concurrency solver
    # and exactly-once span/metric emission; a phase priced anywhere
    # else skips all three.
    Rule(
        "pricing",
        calls("phase_cost", "phases_cost", "occupancy_per_unit"),
        allowed=(Path("plan"), Path("costmodel/model.py")),
    ),
    # Plans are compiler output: a hand-built plan escapes the
    # optimizer's enumeration of physical alternatives.
    Rule("plan-construction", calls("Plan"), allowed=(Path("logical"), Path("plan"))),
    # Queries that share hardware share one virtual clock, and deadline,
    # retry and completion events are accounted by the serving scheduler.
    Rule(
        "event-loop",
        calls("Simulator", "schedule_at", "cancel_event"),
        allowed=(Path("sim"), Path("plan"), Path("serve/scheduler.py")),
    ),
    # ``execute_build``/``execute_probe`` decide how a build or probe is
    # split across workers, and the equivalence tests pin them to one
    # serial call; a direct batch call is a path those tests do not see.
    Rule(
        "hash-table-batches",
        calls("insert_batch", "lookup_batch", "lookup_into"),
        allowed=(Path("core/hashtable"), Path("exec")),
    ),
    # Every figure prices through ``price_series``, which does the
    # Table 1 placement and drops configurations that cannot run.
    Rule(
        "input-placement",
        input_placement,
        allowed=(Path("bench/common.py"),),
        within=Path("bench"),
    ),
    # ``effective_ingest_bandwidth`` is where DegradeLink faults apply;
    # a raw ``ingest_bandwidth`` call bypasses it.
    Rule("raw-ingest", calls("ingest_bandwidth"), allowed=(Path("transfer"),)),
)

RULE_IDS = [rule.name for rule in RULES]


def violations(path: Path, tree: ast.AST) -> Iterator[Tuple[str, int, str]]:
    """(rule, line, use) for each use in ``tree`` that ``path`` may not make."""
    active = [rule for rule in RULES if rule.covers(path)]
    for node in ast.walk(tree):
        for rule in active:
            for use in rule.match(node):
                yield rule.name, node.lineno, use


@pytest.fixture(scope="module")
def offenders():
    found = {name: [] for name in RULE_IDS}
    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC)
        for rule, line, use in violations(path, ast.parse(file.read_text())):
            found[rule].append(f"{path}:{line}: {use}")
    return found


@pytest.mark.parametrize("rule", RULE_IDS)
def test_src_keeps_the_rule(offenders, rule):
    assert offenders[rule] == [], "\n".join(offenders[rule])


#: per rule, a module that breaks it and the uses the check must report.
VIOLATIONS = {
    "pricing": (
        "def price(model, profile):\n"
        "    model.phases_cost([profile])\n"
        "    model.occupancy_per_unit(profile)\n"
        "    return model.phase_cost(profile)\n",
        ["phases_cost(", "occupancy_per_unit(", "phase_cost("],
    ),
    "plan-construction": (
        "def compile_it(specs):\n"
        "    FaultPlan(seed=7)\n"  # an unrelated *Plan class is no plan
        "    return Plan(specs, label='x')\n",
        ["Plan("],
    ),
    "event-loop": (
        "def drive(event):\n"
        "    sim = Simulator()\n"
        "    sim.cancel_event(event)\n"
        "    sim.schedule_at(1.0, lambda s: None)\n"
        "    return sim.run()\n",
        ["Simulator(", "cancel_event(", "schedule_at("],
    ),
    "hash-table-batches": (
        "table.insert_batch(keys, values)\n"
        "found, values = self.table.lookup_batch(keys[alive])\n"
        "view.lookup_into(keys, found, values)\n"
        "execute_probe(table, keys)\n"
        "insert_batch(keys, values)\n",
        ["insert_batch(", "lookup_batch(", "lookup_into(", "insert_batch("],
    ),
    "input-placement": (
        "kind = get_method(m).required_kind\n"
        "wl = wl.placed('cpu0-mem', kind)\n"
        "try:\n    pass\nexcept (errors.OutOfMemoryError, ValueError):\n    pass\n"
        "try:\n    pass\nexcept UnsupportedTransferError:\n    pass\n",
        ["required_kind", "placed(", "except OutOfMemoryError", "except UnsupportedTransferError"],
    ),
    "raw-ingest": (
        "fast = method.effective_ingest_bandwidth(cost_model, gpu, memory)\n"
        "raw = method.ingest_bandwidth(cost_model, gpu, memory)\n",
        ["ingest_bandwidth("],
    ),
}


def _uses(rule, path, source):
    return sorted(
        use for name, _line, use in violations(path, ast.parse(source)) if name == rule.name
    )


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_rule_fires_on_its_violation(rule):
    source, expected = VIOLATIONS[rule.name]
    assert _uses(rule, rule.within / "violation.py", source) == sorted(expected)


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_rule_exempts_its_allow_list(rule):
    source, _expected = VIOLATIONS[rule.name]
    for allowed in rule.allowed:
        path = allowed / "x.py" if (SRC / allowed).is_dir() else allowed
        assert _uses(rule, path, source) == []


def test_event_loop_rule_flags_driving_a_handed_in_simulator():
    # A service module next to the scheduler must not drive the shared
    # clock it was handed, even without building a simulator of its own.
    (rule,) = [rule for rule in RULES if rule.name == "event-loop"]
    source = (
        "def hijack(sim, event):\n"
        "    sim.cancel_event(event)\n"
        "    return sim.schedule_at(1.0, lambda s: None)\n"
    )
    assert _uses(rule, Path("serve/service.py"), source) == [
        "cancel_event(",
        "schedule_at(",
    ]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_allow_listed_paths_exist(rule):
    missing = [str(p) for p in (rule.within, *rule.allowed) if not (SRC / p).exists()]
    assert missing == []
