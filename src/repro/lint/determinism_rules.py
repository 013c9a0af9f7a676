"""Determinism rules for the evaluation paths.

Scope: modules under ``engine/``, ``temporal/``, ``graphseries/``,
``core/`` and ``storage/`` — everything a Δ evaluation's result can
flow through, including the stream-storage backends whose column loads
and fingerprints feed every cache key.  The contract is that results
are pure functions of the stream and the parameters: same input, same
bits, on every backend, cache state and splice of cached spans.
"""

from __future__ import annotations

import ast

from repro.lint.base import (
    ContextVisitor,
    ModuleContext,
    Rule,
    dotted_name,
    iter_methods,
    register_rule,
)
from repro.lint.findings import Finding

_SCOPE = ("engine", "temporal", "graphseries", "core", "storage")


class _DeterminismRule(Rule):
    def applies(self, module: ModuleContext) -> bool:
        return module.has_component(*_SCOPE)


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(annotation, ast.Subscript):
        return _is_set_annotation(annotation.value)
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in ("Set", "FrozenSet")
    return False


def _is_dict_of_set_annotation(annotation: ast.expr) -> bool:
    if not isinstance(annotation, ast.Subscript):
        return False
    base = annotation.value
    base_name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
    if base_name not in ("dict", "Dict", "defaultdict", "DefaultDict"):
        return False
    if isinstance(annotation.slice, ast.Tuple) and len(annotation.slice.elts) == 2:
        return _is_set_annotation(annotation.slice.elts[1])
    return False


def _is_set_constructor(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


def _scope_nodes(owner: ast.AST):
    """Yield nodes lexically in ``owner``'s scope, skipping nested defs."""

    body = owner.body if hasattr(owner, "body") else []
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class _ScopeSets:
    """Per-function (or module) tracking of which names hold sets."""

    def __init__(self) -> None:
        self.set_vars: set[str] = set()
        self.dict_of_set_vars: set[str] = set()

    def observe(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if _is_set_annotation(stmt.annotation):
                self.set_vars.add(stmt.target.id)
            elif _is_dict_of_set_annotation(stmt.annotation):
                self.dict_of_set_vars.add(stmt.target.id)
        elif isinstance(stmt, ast.Assign):
            if _is_set_constructor(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.set_vars.add(target.id)

    def observe_args(self, args: ast.arguments) -> None:
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is None:
                continue
            if _is_set_annotation(arg.annotation):
                self.set_vars.add(arg.arg)
            elif _is_dict_of_set_annotation(arg.annotation):
                self.dict_of_set_vars.add(arg.arg)

    def is_set_expr(self, node: ast.expr) -> bool:
        if _is_set_constructor(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            return node.value.id in self.dict_of_set_vars
        return False


@register_rule
class UnsortedSetIterationRule(_DeterminismRule):
    """Iterating a set without sorted() leaks hash order into results."""

    id = "unsorted-set-iteration"
    summary = "iteration over a set without sorted()"
    hint = (
        "wrap the iterable in sorted(...) — set order varies across "
        "processes (PYTHONHASHSEED), so anything folded from it in order "
        "stops being bit-identical across backends"
    )

    def check(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        owners: list[ast.AST] = [module.tree] + [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for owner in owners:
            scope = _ScopeSets()
            if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.observe_args(owner.args)
            nodes = list(_scope_nodes(owner))
            for node in nodes:
                if isinstance(node, ast.stmt):
                    scope.observe(node)
            candidates: list[ast.expr] = []
            for node in nodes:
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    candidates.append(node.iter)
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    candidates.extend(comp.iter for comp in node.generators)
            for candidate in candidates:
                if scope.is_set_expr(candidate):
                    findings.append(
                        self.finding(
                            module,
                            candidate,
                            "iterating a set — order is hash-dependent "
                            "and varies across processes",
                        )
                    )
        return findings


#: Call targets that inject process-local or wall-clock state.
_BANNED_DOTTED = frozenset({"time.time"})
_BANNED_BARE = frozenset({"id", "hash"})
_BANNED_PREFIXES = ("random.", "np.random.", "numpy.random.")


@register_rule
class NondeterministicCallRule(_DeterminismRule):
    """random/time.time/id/hash in evaluation paths."""

    id = "nondeterministic-call"
    summary = "nondeterministic call in an evaluation path"
    hint = (
        "route randomness through repro.utils.rng (seeded generators), "
        "clocks through time.monotonic/perf_counter on explicit "
        "instrumentation paths, and never fold id()/hash() into results "
        "or keys — both vary per process"
    )

    def check(self, module: ModuleContext) -> list[Finding]:
        visitor = _NondetVisitor(module, self)
        visitor.visit(module.tree)
        return visitor.findings


class _NondetVisitor(ContextVisitor):
    def __init__(self, module: ModuleContext, rule: Rule) -> None:
        super().__init__(module)
        self.rule = rule
        self.findings: list[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and self._banned(name):
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    f"call to {name}() is nondeterministic in an "
                    "evaluation path",
                )
            )
        self.generic_visit(node)

    def _banned(self, name: str) -> bool:
        if name in _BANNED_DOTTED:
            return True
        if any(name.startswith(prefix) for prefix in _BANNED_PREFIXES):
            return True
        if name in _BANNED_BARE:
            func = self.current_function
            # hash() inside __hash__ is the one sanctioned use.
            if func is not None and func.name == "__hash__" and name == "hash":
                return False
            return True
        return False


@register_rule
class FloatAccumulationRule(_DeterminismRule):
    """Float accumulation inside integer-exact collectors."""

    id = "float-accumulation"
    summary = "float accumulation inside an integer-exact collector"
    hint = (
        "collector merges must be integer-exact (float += is "
        "order-dependent, so span merges stop being bit-identical); "
        "accumulate integer numerators and divide once in finalize"
    )

    _HOT_METHODS = frozenset(
        {
            "record",
            "record_batch",
            "merge",
            "observe_row",
            "observe_rows",
            "close_run",
        }
    )

    def check(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            method_names = {m.name for m in iter_methods(node)}
            # A collector is anything mergeable that ingests trips — via
            # the per-source record() or the batched record_batch() feed.
            if "merge" not in method_names:
                continue
            if not ({"record", "record_batch"} & method_names):
                continue
            for method in iter_methods(node):
                if method.name not in self._HOT_METHODS:
                    continue
                for child in ast.walk(method):
                    if not isinstance(child, ast.AugAssign):
                        continue
                    if not isinstance(child.op, (ast.Add, ast.Sub)):
                        continue
                    if self._has_float_arithmetic(child.value):
                        findings.append(
                            self.finding(
                                module,
                                child,
                                f"{node.name}.{method.name} accumulates a "
                                "float expression; span merges will not "
                                "be bit-identical",
                            )
                        )
        return findings

    @staticmethod
    def _has_float_arithmetic(expr: ast.expr) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                return True
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                return True
        return False
