"""Collector-contract rules.

Anything with a ``record`` (or batched ``record_batch``) method feeds
the backward scan, whose window spans the incremental splice folds back
into a resumed scan's collectors.  That only reassembles bit-identically
when every collector also implements in-place ``merge`` and exposes
``empty`` so zero-trip spans can be recognized.
"""

from __future__ import annotations

import ast

from repro.lint.base import (
    ModuleContext,
    Rule,
    dotted_name,
    iter_methods,
    register_rule,
)
from repro.lint.findings import Finding


def _is_protocol(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = dotted_name(base)
        if name is not None and name.split(".")[-1] == "Protocol":
            return True
    return False


def _collector_classes(tree: ast.Module) -> list[ast.ClassDef]:
    classes = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_protocol(node):
            continue
        if any(
            method.name in ("record", "record_batch")
            for method in iter_methods(node)
        ):
            classes.append(node)
    return classes


@register_rule
class CollectorContractRule(Rule):
    """record implies merge + the empty property."""

    id = "collector-contract"
    summary = "collector defines record without merge/empty"
    hint = (
        "a class with record() feeds the scan, whose window spans the "
        "incremental splice merges back: add an in-place merge(other) "
        "and an `empty` property so spans reassemble and zero-trip "
        "spans are recognizable"
    )

    def check(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in _collector_classes(module.tree):
            methods = {method.name: method for method in iter_methods(node)}
            feed = "record" if "record" in methods else "record_batch"
            if "merge" not in methods:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{node.name} defines {feed}() but no merge(); "
                        "spliced scans cannot reassemble it",
                    )
                )
            if "empty" not in methods:
                findings.append(
                    self.finding(
                        module,
                        node,
                        f"{node.name} defines {feed}() but no `empty` "
                        "property; zero-trip spans are undetectable",
                    )
                )
            else:
                empty = methods["empty"]
                decorated_property = any(
                    isinstance(dec, ast.Name) and dec.id == "property"
                    for dec in empty.decorator_list
                )
                if not decorated_property:
                    findings.append(
                        self.finding(
                            module,
                            empty,
                            f"{node.name}.empty must be a @property (the "
                            "merge layer reads it as an attribute)",
                        )
                    )
        return findings


@register_rule
class MergeInPlaceRule(Rule):
    """merge must fold into self, not build a new collector."""

    id = "collector-merge-inplace"
    summary = "collector merge() returns a new object"
    hint = (
        "merge(other) must mutate self in place and return self or None "
        "— the span fold keeps references to the collectors it "
        "merges into, so a returned fresh object is silently dropped"
    )

    def check(self, module: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in _collector_classes(module.tree):
            for method in iter_methods(node):
                if method.name != "merge":
                    continue
                for child in ast.walk(method):
                    if not isinstance(child, ast.Return):
                        continue
                    value = child.value
                    if value is None:
                        continue
                    if isinstance(value, ast.Constant) and value.value is None:
                        continue
                    if isinstance(value, ast.Name) and value.id == "self":
                        continue
                    findings.append(
                        self.finding(
                            module,
                            child,
                            f"{node.name}.merge returns something other "
                            "than self/None; in-place contract violated",
                        )
                    )
        return findings
