"""Lock-discipline rules for the concurrency core.

Scope: ``engine/``, ``service/``, ``storage/`` and ``graphseries/`` —
the job queue, caches, backends and the daemon, where one warm process
serves many clients and a missed lock is a data race on shared sweep
state, the storage backends whose lazily-cached columns are shared
across service threads, and the per-process series store — plus
``tests/``, so the lock-owning test doubles
(fake backends, counting evaluators, service fixtures) honour the
same discipline instead of rotting into bad examples of it.

Two contracts:

* a class that owns a lock must take it before writing its private
  state (``unlocked-attribute-write``), and
* the process-wide lock *acquisition order* must be acyclic
  (``lock-order-cycle``) — the checker builds an order graph from
  lexical ``with`` nesting plus one level of call resolution and flags
  cycles as deadlock potential.
"""

from __future__ import annotations

import ast
from typing import NamedTuple

from repro.lint.base import (
    ModuleContext,
    Rule,
    class_lock_attrs,
    dotted_name,
    iter_methods,
    register_rule,
    self_attribute_target,
)
from repro.lint.findings import Finding

_SCOPE = ("engine", "service", "tests", "storage", "graphseries")

#: Methods assumed to run with the instance lock already held (convention)
#: or before the instance is shared.
_EXEMPT_METHODS = ("__init__",)
_EXEMPT_SUFFIX = "_locked"


def _with_lock_attr(stmt: ast.With, lock_attrs: set[str]) -> str | None:
    """Lock attribute name when ``stmt`` is ``with self.<lock>:``."""

    for item in stmt.items:
        attr = self_attribute_target(item.context_expr)
        if attr is not None and attr in lock_attrs:
            return attr
    return None


def _write_targets(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target]
    if isinstance(stmt, ast.Delete):
        return list(stmt.targets)
    return []


def _self_private_attr(target: ast.expr) -> str | None:
    """Private attribute written through ``self``, seeing through stores.

    Handles ``self._x = ...``, ``self._x += ...``, ``self._x[k] = ...``
    and ``del self._x[k]``.
    """

    node = target
    while isinstance(node, ast.Subscript):
        node = node.value
    attr = self_attribute_target(node)
    if attr is not None and attr.startswith("_"):
        return attr
    return None


@register_rule
class UnlockedAttributeWriteRule(Rule):
    """Private-state writes in lock-owning classes must hold the lock."""

    id = "unlocked-attribute-write"
    summary = "write to private state outside the instance lock"
    hint = (
        "wrap the write in `with self.<lock>:` (or move it to __init__ "
        "before the object is shared; helpers called with the lock held "
        "should be named *_locked)"
    )

    def applies(self, module: ModuleContext) -> bool:
        return module.has_component(*_SCOPE)

    def check(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            lock_attrs = class_lock_attrs(node)
            if not lock_attrs:
                continue
            for method in iter_methods(node):
                if method.name in _EXEMPT_METHODS or method.name.endswith(
                    _EXEMPT_SUFFIX
                ):
                    continue
                findings.extend(
                    self._check_method(module, node, method, lock_attrs)
                )
        return findings

    def _check_method(
        self,
        module: ModuleContext,
        class_node: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        lock_attrs: set[str],
    ) -> list[Finding]:
        findings: list[Finding] = []

        def visit(body: list[ast.stmt], held: bool) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # runs later, under its own discipline
                for target in _write_targets(stmt):
                    attr = _self_private_attr(target)
                    if attr is None or attr in lock_attrs:
                        continue
                    if not held:
                        findings.append(
                            self.finding(
                                module,
                                stmt,
                                f"{class_node.name}.{method.name} writes "
                                f"self.{attr} without holding "
                                f"self.{sorted(lock_attrs)[0]}",
                            )
                        )
                if isinstance(stmt, ast.With):
                    now_held = held or _with_lock_attr(stmt, lock_attrs) is not None
                    visit(stmt.body, now_held)
                    continue
                for field in ("body", "orelse", "finalbody"):
                    value = getattr(stmt, field, None)
                    if value and isinstance(value[0], ast.stmt):
                        visit(value, held)
                for handler in getattr(stmt, "handlers", []) or []:
                    visit(handler.body, held)

        visit(method.body, held=False)
        return findings


class _LockSite(NamedTuple):
    node: str  # "ClassName.attr"
    display: str
    line: int


@register_rule
class LockOrderCycleRule(Rule):
    """The cross-module lock acquisition order must be acyclic."""

    id = "lock-order-cycle"
    summary = "cyclic lock acquisition order (deadlock potential)"
    hint = (
        "two code paths acquire these locks in opposite orders; pick one "
        "global order (document it where the locks are created) and "
        "restructure one path — e.g. release the first lock before "
        "calling into the other class"
    )

    def __init__(self) -> None:
        # node -> {successor: (display, line)} accumulated across modules.
        self._edges: dict[str, dict[str, tuple[str, int]]] = {}
        # method name -> {class name}; used for one-level call resolution.
        self._method_owners: dict[str, set[str]] = {}
        # class name -> its lock attrs
        self._class_locks: dict[str, set[str]] = {}
        # method acquisitions: (class, method) -> set of lock attrs taken
        self._method_acquires: dict[tuple[str, str], set[str]] = {}
        # pending call edges: (holder_node, callee_method_name, display, line)
        self._pending_calls: list[tuple[str, str, str, int]] = []

    def applies(self, module: ModuleContext) -> bool:
        return module.has_component(*_SCOPE)

    def check(self, module: ModuleContext) -> list[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            lock_attrs = class_lock_attrs(node)
            for method in iter_methods(node):
                self._method_owners.setdefault(method.name, set()).add(node.name)
            if not lock_attrs:
                continue
            self._class_locks[node.name] = lock_attrs
            for method in iter_methods(node):
                self._scan_method(module, node.name, method, lock_attrs)
        return []

    def _scan_method(
        self,
        module: ModuleContext,
        class_name: str,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        lock_attrs: set[str],
    ) -> None:
        acquired: set[str] = set()

        def visit(body: list[ast.stmt], held: list[str]) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if held:
                    holder = f"{class_name}.{held[-1]}"
                    for child in ast.walk(stmt):
                        if isinstance(child, ast.Call):
                            callee = dotted_name(child.func)
                            if callee is None or "." not in callee:
                                continue
                            self._pending_calls.append(
                                (
                                    holder,
                                    callee.split(".")[-1],
                                    module.display,
                                    child.lineno,
                                )
                            )
                if isinstance(stmt, ast.With):
                    attr = _with_lock_attr(stmt, lock_attrs)
                    if attr is not None:
                        acquired.add(attr)
                        if held:
                            self._add_edge(
                                f"{class_name}.{held[-1]}",
                                f"{class_name}.{attr}",
                                module.display,
                                stmt.lineno,
                            )
                        visit(stmt.body, held + [attr])
                    else:
                        visit(stmt.body, held)
                    continue
                for field in ("body", "orelse", "finalbody"):
                    value = getattr(stmt, field, None)
                    if value and isinstance(value[0], ast.stmt):
                        visit(value, held)
                for handler in getattr(stmt, "handlers", []) or []:
                    visit(handler.body, held)

        visit(method.body, held=[])
        if acquired:
            self._method_acquires[(class_name, method.name)] = acquired

    def _add_edge(self, src: str, dst: str, display: str, line: int) -> None:
        if src == dst:
            return
        self._edges.setdefault(src, {}).setdefault(dst, (display, line))

    def finish(self) -> list[Finding]:
        # Resolve call edges: a call made while holding a lock points at
        # every lock that callee takes — but only when the method name
        # resolves to exactly one analyzed lock-acquiring class, so
        # common names (get, put, run) never produce speculative edges.
        for holder, callee, display, line in self._pending_calls:
            owners = [
                owner
                for owner in self._method_owners.get(callee, ())
                if (owner, callee) in self._method_acquires
            ]
            if len(owners) != 1:
                continue
            owner = owners[0]
            for attr in sorted(self._method_acquires[(owner, callee)]):
                self._add_edge(holder, f"{owner}.{attr}", display, line)

        findings: list[Finding] = []
        for cycle in self._find_cycles():
            display, line = self._edges[cycle[0]][cycle[1]]
            chain = " -> ".join(cycle + (cycle[0],))
            from repro.lint.findings import Finding as _F

            findings.append(
                _F(
                    path=display,
                    line=line,
                    col=1,
                    rule=self.id,
                    message=f"lock acquisition cycle: {chain}",
                    hint=self.hint,
                )
            )
        return findings

    def _find_cycles(self) -> list[tuple[str, ...]]:
        cycles: list[tuple[str, ...]] = []
        seen_cycles: set[frozenset[str]] = set()
        visiting: list[str] = []
        on_path: set[str] = set()
        done: set[str] = set()

        def dfs(node: str) -> None:
            visiting.append(node)
            on_path.add(node)
            for successor in sorted(self._edges.get(node, ())):
                if successor in on_path:
                    start = visiting.index(successor)
                    cycle = tuple(visiting[start:])
                    key = frozenset(cycle)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        cycles.append(cycle)
                elif successor not in done:
                    dfs(successor)
            visiting.pop()
            on_path.discard(node)
            done.add(node)

        for node in sorted(self._edges):
            if node not in done:
                dfs(node)
        return cycles
