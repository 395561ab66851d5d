"""Whole-project context: symbols, imports, calls, and attribute accesses.

:class:`ProjectContext` is the interprocedural counterpart of
:class:`~repro.analysis.base.ModuleContext`.  It parses every module of
one analysis run together and derives the structures cross-module
passes need:

* a **module table** keyed by dotted name, with suffix-tolerant import
  resolution (``repro.exec.pool`` and ``exec.pool`` both resolve when
  the scan root is ``src/`` or ``src/repro/``);
* a **symbol table**: classes, methods, module functions, module-level
  constants, plus per-class attribute *types* inferred from
  ``__init__`` assignments and parameter annotations;
* a **call graph** over best-effort resolved callees (module functions,
  ``self.method()``, constructor calls, attribute chains stepped
  through inferred types, ``threading.Thread(target=...)`` edges);
* an **attribute-access graph**: every ``self.attr`` (and guarded
  module-global) read/write/mutate, annotated with the set of locks
  held at the access — the input of the lock-discipline pass.

Everything here is best-effort static analysis: precision is tuned for
the idioms this codebase actually uses (``threading`` locks held via
``with``, types established in ``__init__``), and the passes built on
top are expected to carry their own exemption lists for the rest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.base import ModuleContext

#: threading primitives that *are* locks (acquiring via ``with``).
LOCK_TYPES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: threading primitives that are internally synchronized — accesses to
#: attributes of these types are never lock-discipline findings.
SYNCHRONIZED_TYPES = {
    "Event",
    "Barrier",
    "Queue",
    "SimpleQueue",
    "LifoQueue",
    "PriorityQueue",
    "local",
}

#: method names that mutate their receiver (container/primitive API).
MUTATOR_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "reverse",
    "rotate",
    "setdefault",
    "sort",
    "update",
}

#: function names whose bodies are construction-time (no concurrency).
INIT_METHODS = {"__init__", "__post_init__", "__new__", "__set_name__"}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def _annotation_class_name(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name out of an annotation expression.

    Unwraps ``Optional[T]``/``List[T]``-style subscripts and string
    annotations; returns the dotted name of the innermost type.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        outer = _dotted(node.value)
        inner = node.slice
        if isinstance(inner, ast.Tuple):
            # Optional[T] is Union[T, None]: take the first non-None elt.
            for elt in inner.elts:
                if not (isinstance(elt, ast.Constant) and elt.value is None):
                    return _annotation_class_name(elt)
            return None
        if outer in ("Optional", "typing.Optional", "List", "typing.List",
                     "Sequence", "typing.Sequence", "Union", "typing.Union"):
            return _annotation_class_name(inner)
        return outer
    return _dotted(node)


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.attr`` (or guarded-global) access inside a function."""

    attr: str
    kind: str  # "read" | "write" | "mutate"
    function: str  # qualname of the enclosing function
    lineno: int
    col: int
    locks: FrozenSet[str]  # lock ids held at the access
    in_init: bool


@dataclass(frozen=True)
class CallSite:
    """One resolved call expression inside a function."""

    targets: Tuple[str, ...]  # resolved callee qualnames
    lineno: int
    locks: FrozenSet[str]


@dataclass(frozen=True)
class LockAcquire:
    """One ``with <lock>:`` acquisition event."""

    lock: str
    lineno: int
    held: FrozenSet[str]  # locks already held when acquiring


@dataclass
class FunctionInfo:
    """One function or method with its call/access/lock records."""

    qualname: str  # "mod.sub:Class.method" or "mod.sub:func"
    name: str
    module: str
    class_name: Optional[str]
    node: ast.AST
    calls: List[CallSite] = field(default_factory=list)
    accesses: List[AttrAccess] = field(default_factory=list)
    acquires: List[LockAcquire] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class: methods, lock attributes, inferred attribute types."""

    name: str
    module: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    lock_attrs: Set[str] = field(default_factory=set)
    #: attr -> dotted class name as written at the assignment site.
    attr_types: Dict[str, str] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.module}:{self.name}"

    def accesses(self) -> Iterator[AttrAccess]:
        for method in self.methods.values():
            yield from method.accesses


@dataclass
class ModuleInfo:
    """One parsed module plus its project-level symbol information."""

    name: str
    ctx: ModuleContext
    imports: Dict[str, str] = field(default_factory=dict)  # local -> dotted
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: names assigned at module level (``NAME = ...``).
    global_names: Set[str] = field(default_factory=set)
    global_locks: Set[str] = field(default_factory=set)

    @property
    def path(self) -> str:
        return self.ctx.posix_path


class ProjectContext:
    """All modules of one analysis run, cross-linked."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.by_path: Dict[str, ModuleInfo] = {
            info.path: info for info in modules.values()
        }
        self.functions: Dict[str, FunctionInfo] = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        contexts: Sequence[ModuleContext],
        roots: Sequence[str] = (),
    ) -> "ProjectContext":
        """Build from parsed modules; ``roots`` are scan-root posix paths."""
        modules: Dict[str, ModuleInfo] = {}
        for ctx in contexts:
            name = module_name_for(ctx.posix_path, roots)
            modules[name] = ModuleInfo(name=name, ctx=ctx)
        project = cls(modules)
        for info in modules.values():
            _ModuleCollector(project, info).collect()
        # Second phase needs every class's lock/type tables populated:
        for info in modules.values():
            for fn_info, owner in _iter_functions(info):
                project.functions[fn_info.qualname] = fn_info
                _FunctionWalker(project, info, owner, fn_info).walk()
        return project

    # -- import/name resolution ----------------------------------------
    def resolve_module(self, dotted: str) -> Optional[ModuleInfo]:
        """Find a scanned module by dotted name, prefix-insensitively."""
        parts = dotted.split(".")
        for start in range(len(parts)):
            candidate = ".".join(parts[start:])
            if candidate in self.modules:
                return self.modules[candidate]
        return None

    def resolve_symbol(
        self, module: ModuleInfo, name: str
    ) -> Optional[Tuple[ModuleInfo, str]]:
        """Resolve a (possibly imported) local name to (module, symbol)."""
        if name in module.classes or name in module.functions:
            return module, name
        target = module.imports.get(name)
        if target is None:
            return None
        target_module = self.resolve_module(target)
        if target_module is not None:
            # ``import a.b [as c]`` — the local name is the module itself.
            return target_module, ""
        if "." in target:
            mod_part, _, symbol = target.rpartition(".")
            target_module = self.resolve_module(mod_part)
            if target_module is not None:
                return target_module, symbol
        return None

    def resolve_class(
        self, module: ModuleInfo, dotted: str
    ) -> Optional[ClassInfo]:
        """Resolve a dotted class reference written inside ``module``."""
        head, _, rest = dotted.partition(".")
        resolved = self.resolve_symbol(module, head)
        if resolved is None:
            return None
        target_module, symbol = resolved
        name = symbol or head
        if rest:
            if symbol:  # Class.attr chains are not classes
                inner = target_module.classes.get(symbol)
                return inner if inner is not None and not rest else None
            # module alias: rest is "Class" (or deeper module path)
            sub = target_module
            parts = rest.split(".")
            while len(parts) > 1:
                nested = self.resolve_module(f"{sub.name}.{parts[0]}")
                if nested is None:
                    break
                sub = nested
                parts = parts[1:]
            return sub.classes.get(parts[-1]) if len(parts) == 1 else None
        return target_module.classes.get(name)


def module_name_for(posix_path: str, roots: Sequence[str] = ()) -> str:
    """Dotted module name for a file path, relative to a scan root."""
    path = posix_path
    for root in roots:
        root = root.rstrip("/")
        if root and path.startswith(root + "/"):
            path = path[len(root) + 1:]
            break
    if path.endswith(".py"):
        path = path[: -len(".py")]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.replace("/", ".")


def _iter_functions(
    info: ModuleInfo,
) -> Iterator[Tuple[FunctionInfo, Optional[ClassInfo]]]:
    for fn in info.functions.values():
        yield fn, None
    for cls in info.classes.values():
        for method in cls.methods.values():
            yield method, cls


class _ModuleCollector:
    """Phase 1: imports, symbols, lock attributes, attribute types."""

    def __init__(self, project: ProjectContext, info: ModuleInfo) -> None:
        self.project = project
        self.info = info

    def collect(self) -> None:
        tree = self.info.ctx.tree
        for node in tree.body:
            self._top_level(node)

    def _top_level(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                self.info.imports[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = self._import_base(node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.info.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.info.functions[node.name] = FunctionInfo(
                qualname=f"{self.info.name}:{node.name}",
                name=node.name,
                module=self.info.name,
                class_name=None,
                node=node,
            )
        elif isinstance(node, ast.ClassDef):
            self._collect_class(node)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self.info.global_names.add(target.id)
                if _is_lock_construction(node.value):
                    self.info.global_locks.add(target.id)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                self.info.global_names.add(node.target.id)
                if _is_lock_construction(node.value):
                    self.info.global_locks.add(node.target.id)
        elif isinstance(node, (ast.If, ast.Try)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._top_level(child)

    def _import_base(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        parts = self.info.name.split(".")
        # level 1 = current package (module name minus the leaf).
        keep = len(parts) - node.level
        base = ".".join(parts[:keep]) if keep > 0 else ""
        if node.module:
            base = f"{base}.{node.module}" if base else node.module
        return base

    def _collect_class(self, node: ast.ClassDef) -> None:
        cls = ClassInfo(
            name=node.name,
            module=self.info.name,
            node=node,
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[stmt.name] = FunctionInfo(
                    qualname=f"{self.info.name}:{node.name}.{stmt.name}",
                    name=stmt.name,
                    module=self.info.name,
                    class_name=node.name,
                    node=stmt,
                )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                # Dataclass-style field: the annotation is the type.
                annotated = _annotation_class_name(stmt.annotation)
                if annotated:
                    leaf = annotated.split(".")[-1]
                    if leaf in LOCK_TYPES or (
                        stmt.value is not None
                        and _is_lock_construction(stmt.value)
                    ):
                        cls.lock_attrs.add(stmt.target.id)
                    else:
                        cls.attr_types[stmt.target.id] = annotated
        # __init__-time attribute types and lock attributes:
        for method in cls.methods.values():
            self._collect_attr_types(cls, method)
        self.info.classes[node.name] = cls

    def _collect_attr_types(self, cls: ClassInfo, method: FunctionInfo) -> None:
        node = method.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        param_types: Dict[str, Optional[str]] = {}
        for arg in list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        ):
            param_types[arg.arg] = _annotation_class_name(arg.annotation)
        for stmt in ast.walk(node):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = list(stmt.targets), stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets, value = [stmt.target], stmt.value
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        annotated = _annotation_class_name(stmt.annotation)
                        if annotated:
                            cls.attr_types.setdefault(target.attr, annotated)
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if value is not None and _is_lock_construction(value):
                    cls.lock_attrs.add(attr)
                    continue
                inferred = _infer_value_type(value, param_types)
                if inferred:
                    cls.attr_types.setdefault(attr, inferred)


def _is_lock_construction(value: ast.AST) -> bool:
    """True for ``threading.Lock()``-style lock constructions.

    Also matches ``field(default_factory=threading.Lock)`` dataclass
    fields and bare ``Lock()`` calls of an imported name.
    """
    if isinstance(value, ast.Call):
        name = _dotted(value.func)
        if name:
            leaf = name.split(".")[-1]
            if leaf in LOCK_TYPES:
                return True
            if leaf == "field":
                for kw in value.keywords:
                    if kw.arg == "default_factory":
                        factory = _dotted(kw.value)
                        if factory and factory.split(".")[-1] in LOCK_TYPES:
                            return True
    return False


def _infer_value_type(
    value: Optional[ast.AST], param_types: Dict[str, Optional[str]]
) -> Optional[str]:
    """Dotted class name of an assigned value, best-effort."""
    if value is None:
        return None
    if isinstance(value, ast.Call):
        name = _dotted(value.func)
        if name and name.split(".")[-1][:1].isupper():
            return name
        return None
    if isinstance(value, ast.Name):
        return param_types.get(value.id)
    if isinstance(value, ast.IfExp):
        return _infer_value_type(value.body, param_types) or _infer_value_type(
            value.orelse, param_types
        )
    return None


class _FunctionWalker(ast.NodeVisitor):
    """Phase 2: walk one function body recording calls/accesses/locks."""

    def __init__(
        self,
        project: ProjectContext,
        info: ModuleInfo,
        owner: Optional[ClassInfo],
        fn: FunctionInfo,
    ) -> None:
        self.project = project
        self.info = info
        self.owner = owner
        self.fn = fn
        self.lock_stack: List[str] = []
        self.in_nested = False
        self.in_init = owner is not None and fn.name in INIT_METHODS
        self.local_types: Dict[str, str] = {}
        node = fn.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        ):
            annotated = _annotation_class_name(arg.annotation)
            if annotated:
                self.local_types[arg.arg] = annotated

    # -- driver ---------------------------------------------------------
    def walk(self) -> None:
        node = self.fn.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for stmt in node.body:
            self.visit(stmt)

    def _held(self) -> FrozenSet[str]:
        return frozenset(self.lock_stack)

    # -- nested definitions: descend for *calls only* -------------------
    # A nested def is usually a local helper closure invoked inline
    # (``take`` in allocate_hybrid), so its calls belong to the
    # enclosing function's call-graph edges.  But it
    # may also run later, on another thread, outside the current lock
    # scope — so the lock stack is cleared (no false lock-order edges)
    # and attribute accesses are not recorded (no false discipline
    # findings either way).
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested_def(node)

    def _nested_def(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        saved_locks, self.lock_stack = self.lock_stack, []
        saved_nested, self.in_nested = self.in_nested, True
        try:
            for stmt in node.body:
                self.visit(stmt)
        finally:
            self.lock_stack = saved_locks
            self.in_nested = saved_nested

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    # -- locks ----------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        self._with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._with(node)

    def _with(self, node: "ast.With | ast.AsyncWith") -> None:
        acquired: List[str] = []
        for item in node.items:
            lock_id = self._lock_id(item.context_expr)
            if lock_id is not None:
                self.fn.acquires.append(
                    LockAcquire(
                        lock=lock_id, lineno=node.lineno, held=self._held()
                    )
                )
                self.lock_stack.append(lock_id)
                acquired.append(lock_id)
            else:
                self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.lock_stack.pop()

    def _lock_id(self, expr: ast.AST) -> Optional[str]:
        """Stable id of a lock expression, or None if not a known lock."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.owner is not None
            and expr.attr in self.owner.lock_attrs
        ):
            return f"{self.owner.qualname}.{expr.attr}"
        if isinstance(expr, ast.Name) and expr.id in self.info.global_locks:
            return f"{self.info.name}:{expr.id}"
        return None

    # -- local type environment -----------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            inferred = _infer_value_type(node.value, {})
            if inferred:
                self.local_types[node.targets[0].id] = inferred
        self.generic_visit(node)

    # -- calls ------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        targets = self._resolve_call(node)
        if targets:
            self.fn.calls.append(
                CallSite(
                    targets=tuple(sorted(targets)),
                    lineno=node.lineno,
                    locks=self._held(),
                )
            )
        self._thread_target_edges(node)
        self.generic_visit(node)

    def _thread_target_edges(self, node: ast.Call) -> None:
        """``Thread(target=self._worker_loop)`` creates a call edge."""
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name != "Thread":
            return
        for kw in node.keywords:
            if kw.arg != "target":
                continue
            target_fn = self._function_reference(kw.value)
            if target_fn is not None:
                self.fn.calls.append(
                    CallSite(
                        targets=(target_fn.qualname,),
                        lineno=node.lineno,
                        locks=self._held(),
                    )
                )

    def _function_reference(self, expr: ast.AST) -> Optional[FunctionInfo]:
        """Resolve a bare function reference (not a call) to its info."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.owner is not None
        ):
            return self.owner.methods.get(expr.attr)
        if isinstance(expr, ast.Name):
            return self.info.functions.get(expr.id)
        return None

    def _resolve_call(self, node: ast.Call) -> List[str]:
        func = node.func
        if isinstance(func, ast.Name):
            return self._resolve_plain_name(func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute_call(func)
        return []

    def _resolve_plain_name(self, name: str) -> List[str]:
        resolved = self.project.resolve_symbol(self.info, name)
        if resolved is None:
            return []
        module, symbol = resolved
        symbol = symbol or name
        if symbol in module.functions:
            return [module.functions[symbol].qualname]
        if symbol in module.classes:
            cls = module.classes[symbol]
            init = cls.methods.get("__init__")
            return [init.qualname] if init else [cls.qualname + ".__init__"]
        return []

    def _resolve_attribute_call(self, func: ast.Attribute) -> List[str]:
        chain = _attribute_chain(func)
        if chain is None:
            return []
        base, attrs = chain  # base name + attribute path incl. method name
        if base == "self" and self.owner is not None:
            return self._resolve_self_chain(attrs)
        # local variable with an inferred constructor type
        local_type = self.local_types.get(base)
        if local_type is not None:
            cls = self.project.resolve_class(self.info, local_type)
            if cls is not None:
                return self._step_chain(cls, attrs)
        # imported module or class
        resolved = self.project.resolve_symbol(self.info, base)
        if resolved is not None:
            module, symbol = resolved
            if symbol and symbol in module.classes:
                return self._step_chain(module.classes[symbol], attrs)
            if not symbol:
                sub = module
                while len(attrs) > 1:
                    nested = self.project.resolve_module(
                        f"{sub.name}.{attrs[0]}"
                    )
                    if nested is None:
                        break
                    sub = nested
                    attrs = attrs[1:]
                if len(attrs) == 1:
                    if attrs[0] in sub.functions:
                        return [sub.functions[attrs[0]].qualname]
                    if attrs[0] in sub.classes:
                        init = sub.classes[attrs[0]].methods.get("__init__")
                        return [init.qualname] if init else []
                elif len(attrs) == 2 and attrs[0] in sub.classes:
                    return self._step_chain(sub.classes[attrs[0]], attrs[1:])
        return []

    def _resolve_self_chain(self, attrs: List[str]) -> List[str]:
        assert self.owner is not None
        if len(attrs) == 1:
            method = self.owner.methods.get(attrs[0])
            return [method.qualname] if method else []
        declared = self.owner.attr_types.get(attrs[0])
        if declared is None:
            return []
        cls = self.project.resolve_class(
            self.project.modules[self.info.name], declared
        )
        if cls is None:
            return []
        return self._step_chain(cls, attrs[1:])

    def _step_chain(self, cls: ClassInfo, attrs: List[str]) -> List[str]:
        """Step ``a.b.m()`` through inferred attribute types to a method."""
        current: Optional[ClassInfo] = cls
        for index, attr in enumerate(attrs):
            if current is None:
                return []
            if index == len(attrs) - 1:
                method = current.methods.get(attr)
                return [method.qualname] if method else []
            declared = current.attr_types.get(attr)
            if declared is None:
                return []
            owner_module = self.project.modules.get(current.module)
            if owner_module is None:
                return []
            current = self.project.resolve_class(owner_module, declared)
        return []

    # -- attribute accesses ------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            self._record_self_access(node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if (
            self.owner is None
            and not self.in_nested
            and self.info.global_locks
            and node.id in self.info.global_names
            and node.id not in self.info.global_locks
        ):
            kind = (
                "write"
                if isinstance(node.ctx, (ast.Store, ast.Del))
                else "read"
            )
            self.fn.accesses.append(
                AttrAccess(
                    attr=node.id,
                    kind=kind,
                    function=self.fn.qualname,
                    lineno=node.lineno,
                    col=node.col_offset,
                    locks=self._held(),
                    in_init=False,
                )
            )

    def visit_Global(self, node: ast.Global) -> None:
        # ``global X`` inside a function makes later plain-name writes
        # module-global writes; the Name visitor above records them
        # because the names already appear in ``global_names``.
        pass

    def _record_self_access(self, node: ast.Attribute) -> None:
        if self.owner is None or self.in_nested:
            return
        attr = node.attr
        if attr in self.owner.lock_attrs or attr in self.owner.methods:
            return
        declared = self.owner.attr_types.get(attr, "")
        if declared.split(".")[-1] in SYNCHRONIZED_TYPES:
            return
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            kind = "write"
        else:
            kind = "read"
            parent = self.info.ctx.parent(node)
            if (
                isinstance(parent, ast.Attribute)
                and parent.attr in MUTATOR_METHODS
            ):
                grand = self.info.ctx.parent(parent)
                if isinstance(grand, ast.Call) and grand.func is parent:
                    kind = "mutate"
            elif isinstance(parent, ast.Subscript):
                grand = self.info.ctx.parent(parent)
                if isinstance(grand, (ast.Assign, ast.AugAssign)) and (
                    parent
                    in (
                        grand.targets
                        if isinstance(grand, ast.Assign)
                        else [grand.target]
                    )
                ):
                    kind = "mutate"
        self.fn.accesses.append(
            AttrAccess(
                attr=attr,
                kind=kind,
                function=self.fn.qualname,
                lineno=node.lineno,
                col=node.col_offset,
                locks=self._held(),
                in_init=self.in_init,
            )
        )


def _attribute_chain(func: ast.Attribute) -> Optional[Tuple[str, List[str]]]:
    """``self.a.b.m`` -> ("self", ["a", "b", "m"]); None if not a chain."""
    attrs: List[str] = []
    current: ast.AST = func
    while isinstance(current, ast.Attribute):
        attrs.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    return current.id, list(reversed(attrs))
