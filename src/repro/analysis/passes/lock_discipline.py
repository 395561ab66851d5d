"""Lock-discipline pass: RacerD-style guard-set consistency + deadlocks.

PRs 4-5 made the codebase genuinely concurrent: a morsel-parallel
thread pool (``repro.exec``), lock-hardened observability and memory
allocation, and fault hooks visited from worker threads.  The
correctness argument everywhere is *lock discipline*: each class picks
a lock and touches its shared attributes only while holding it.  This
pass checks that discipline holds across module boundaries:

* **guard-set inference** — for every class owning a ``threading``
  lock, the attributes *written or mutated* while the lock is held
  (outside ``__init__``) form the class's guard set;
* **inconsistent access** — any read, write or mutate of a guarded
  attribute with no lock held is a finding (writers race; readers see
  torn or stale state, e.g. a multi-field snapshot);
* **module-global discipline** — the same rule for module globals
  guarded by a module-level lock (the ``repro.faults.runtime``
  pattern);
* **lock-order cycles** — acquiring lock B while holding lock A adds
  the edge A→B (directly nested ``with`` blocks, or calls made while
  holding A into functions that may acquire B, propagated to a
  fixpoint over the call graph, ``threading.Thread(target=...)``
  edges included); any cycle in that graph is a deadlock candidate.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.analysis.base import ProjectPass
from repro.analysis.finding import Finding
from repro.analysis.project import (
    AttrAccess,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectContext,
)


class LockDisciplinePass(ProjectPass):
    name = "lock-discipline"
    description = (
        "attributes guarded by a class (or module) lock must be accessed "
        "holding it, and lock acquisition order must be cycle-free"
    )
    scope = (
        "exec/",
        "obs/",
        "memory/",
        "faults/",
        "core/scheduler/",
        "transfer/",
    )

    def check_project(self, project: ProjectContext) -> Sequence[Finding]:  # type: ignore[override]
        assert isinstance(project, ProjectContext)
        findings: List[Finding] = []
        for info in project.modules.values():
            if not self.in_scope(info.path):
                continue
            for cls in info.classes.values():
                findings.extend(self._check_class(info, cls))
            findings.extend(self._check_module_globals(info))
        findings.extend(self._check_lock_order(project))
        return findings

    # -- guard-set consistency -------------------------------------------
    def _check_class(self, info: ModuleInfo, cls: ClassInfo) -> Iterator[Finding]:
        if not cls.lock_attrs:
            return
        accesses = list(cls.accesses())
        guard_set = _guard_set(accesses)
        if not guard_set:
            return
        for access in accesses:
            if access.attr not in guard_set or access.in_init or access.locks:
                continue
            yield self._flag(info, cls.name, access)

    def _check_module_globals(self, info: ModuleInfo) -> Iterator[Finding]:
        if not info.global_locks:
            return
        accesses = [a for fn in info.functions.values() for a in fn.accesses]
        guard_set = _guard_set(accesses)
        for access in accesses:
            if access.attr not in guard_set or access.locks:
                continue
            yield self._flag(info, "<module>", access)

    def _flag(self, info: ModuleInfo, owner: str, access: AttrAccess) -> Finding:
        if access.kind == "read":
            detail = "a concurrent writer can interleave (torn/stale read)"
        else:
            detail = "concurrent writers race on it"
        attr = (
            f"self.{access.attr}" if owner != "<module>" else access.attr
        )
        return self.finding_at(
            path=info.path,
            line=access.lineno,
            column=access.col + 1,
            message=(
                f"`{attr}` is guarded by {owner}'s lock elsewhere but "
                f"this {access.kind} in `{_short(access.function)}` holds "
                f"no lock — {detail}"
            ),
            context=info.ctx.line_text(access.lineno),
        )

    # -- lock-order cycles -------------------------------------------------
    def _check_lock_order(
        self, project: ProjectContext
    ) -> Iterator[Finding]:
        may_acquire = _may_acquire(project)
        edges: Dict[Tuple[str, str], Tuple[str, int]] = {}

        def add_edge(held: str, acquired: str, path: str, line: int) -> None:
            if held != acquired:
                edges.setdefault((held, acquired), (path, line))

        for fn in project.functions.values():
            info = project.by_path.get(_fn_path(project, fn))
            if info is None or not self.in_scope(info.path):
                continue
            for acquire in fn.acquires:
                for held in acquire.held:
                    add_edge(held, acquire.lock, info.path, acquire.lineno)
            for call in fn.calls:
                if not call.locks:
                    continue
                acquired: Set[str] = set()
                for target in call.targets:
                    acquired.update(may_acquire.get(target, frozenset()))
                for held in call.locks:
                    for lock in acquired:
                        add_edge(held, lock, info.path, call.lineno)
        for cycle in _find_cycles(edges):
            first_edge = (cycle[0], cycle[1 % len(cycle)])
            path, line = edges.get(first_edge, ("", 1))
            if not path:
                continue
            info = project.by_path.get(path)
            chain = " -> ".join(cycle + (cycle[0],))
            yield self.finding_at(
                path=path,
                line=line,
                column=1,
                message=(
                    f"lock-acquisition-order cycle (deadlock candidate): "
                    f"{chain}; pick one global order for these locks"
                ),
                context=info.ctx.line_text(line) if info else "",
            )


# -- helpers ------------------------------------------------------------


def _guard_set(accesses: Sequence[AttrAccess]) -> Set[str]:
    """Attributes written/mutated at least once while holding a lock."""
    return {
        a.attr
        for a in accesses
        if a.kind in ("write", "mutate") and a.locks and not a.in_init
    }


def _short(qualname: str) -> str:
    return qualname.split(":", 1)[-1]


def _fn_path(project: ProjectContext, fn: FunctionInfo) -> str:
    info = project.modules.get(fn.module)
    return info.path if info is not None else ""


def _may_acquire(project: ProjectContext) -> Dict[str, FrozenSet[str]]:
    """Fixpoint: locks each function may acquire, directly or via calls.

    A caller defined before its callee learns the callee's locks one
    round later, so a deep call chain needs as many rounds as it has
    levels.  The sets only grow, over a finite set of locks, so
    iterating until nothing changes terminates.
    """
    direct: Dict[str, Set[str]] = {}
    for qualname, fn in project.functions.items():
        direct[qualname] = {acquire.lock for acquire in fn.acquires}
    result: Dict[str, Set[str]] = {q: set(locks) for q, locks in direct.items()}
    changed = True
    while changed:
        changed = False
        for qualname, fn in project.functions.items():
            current = result[qualname]
            before = len(current)
            for call in fn.calls:
                for target in call.targets:
                    current.update(result.get(target, set()))
            if len(current) != before:
                changed = True
    return {q: frozenset(locks) for q, locks in result.items()}


def _find_cycles(
    edges: Dict[Tuple[str, str], Tuple[str, int]]
) -> List[Tuple[str, ...]]:
    """Elementary cycles in the lock-order graph, canonicalized."""
    graph: Dict[str, Set[str]] = {}
    for held, acquired in edges:
        graph.setdefault(held, set()).add(acquired)
        graph.setdefault(acquired, set())
    cycles: Set[Tuple[str, ...]] = set()

    def dfs(start: str, node: str, path: List[str], seen: Set[str]) -> None:
        for succ in sorted(graph.get(node, ())):
            if succ == start:
                cycles.add(_canonical(tuple(path)))
            elif succ not in seen and len(path) < 8:
                seen.add(succ)
                path.append(succ)
                dfs(start, succ, path, seen)
                path.pop()
                seen.remove(succ)

    for node in sorted(graph):
        dfs(node, node, [node], {node})
    return sorted(cycles)


def _canonical(cycle: Tuple[str, ...]) -> Tuple[str, ...]:
    """Rotate a cycle so its smallest element comes first (dedup key)."""
    pivot = cycle.index(min(cycle))
    return cycle[pivot:] + cycle[:pivot]
