"""Project-invariant static analysis: ``repro lint``.

The paper's method rests on exact, reproducible quantities —
integer-exact occupancy evidence, bit-identical Δ evaluations whatever
the backend or cache state — and the engine re-proves those properties
in every test run.  This package turns the conventions those tests rely
on into machine-checked **contracts**: an AST-based checker that walks
``src/repro`` (or any path) and flags code that would silently break
determinism, poison the sweep cache, or deadlock the daemon.

Enforced contracts (rule families)
----------------------------------
**Cache-key completeness** (``cache-key-unhashed-field``,
``cache-key-scoring-fields``, ``cache-key-version``).  A measure's
dataclass fields *are* its cache identity: ``MeasureSpec.token()``
derives from them automatically, so a parameter that is not an
annotated field silently drops out of the cache key — exactly the
``include_isolated``-style cache-key collision PR 4 fixed by hand.
The rules flag plain (unannotated) class-level assignments on
``MeasureSpec`` subclasses, ``scoring_fields`` entries that name no
dataclass field, hand-rolled ``token``/``collector_token`` overrides
that skip fields, and key-builder functions (``cache_key`` /
``measure_key``) that do not fold a ``*_VERSION`` constant into the
key payload.

**Determinism** (``unsorted-set-iteration``, ``nondeterministic-call``,
``float-accumulation``).  In the evaluation paths (``engine/``,
``temporal/``, ``graphseries/``, ``core/``) results must be pure
functions of the stream and the parameters.  The rules flag iteration
over ``set`` values without ``sorted(...)`` (set order varies across
processes), calls to ``random.*`` / ``time.time()`` / ``id()`` /
``hash()`` (randomness must route through :mod:`repro.utils.rng`;
clocks must be explicit and monotonic; ``hash``/``id`` vary per
process), and float accumulation inside collectors whose merge
contract is integer-exact (float sums are order-dependent, so span
merges would stop being bit-identical).

**Collector contract** (``collector-contract``,
``collector-merge-inplace``).  Any class defining ``record`` feeds the
backward scan and must survive being merged back from window spans (the
incremental splice of cached spans): it must also define an in-place
``merge`` (returning ``self`` or ``None``, never a fresh object) and
the ``empty`` property.

**Lock discipline** (``unlocked-attribute-write``,
``lock-order-cycle``).  In the concurrency core (``engine/``,
``service/``, ``storage/`` and ``graphseries/``, home of the series
store), a class that owns a ``threading.Lock`` / ``RLock`` /
``Condition`` must write its private ``self._*`` attributes inside a
``with self.<lock>:`` block (or in ``__init__``, before the object is
shared; helper methods named ``*_locked`` are assumed called with the
lock held).  Across those modules the checker also builds a
lock-acquisition-order graph — an edge for every lock acquired while
another is held, lexically or through a method call — and flags cycles
as deadlock potential.

Suppressions
------------
A finding is silenced by a trailing comment on the flagged line::

    for node in reachable:  # repro: ignore[unsorted-set-iteration] -- order-free fold

Several ids separate with commas (``ignore[rule-a,rule-b]``); every
suppression should carry a short justification after the bracket.
Suppressed findings still count in the reports (``N suppressed``), so
exemptions stay visible.

Writing a new rule
------------------
Subclass :class:`~repro.lint.base.Rule`, give it a kebab-case ``id``,
a one-line ``summary``, and a ``hint`` (the fix suggestion attached to
every finding), implement ``check(module)`` — usually by running an
:class:`ast.NodeVisitor` (see :class:`~repro.lint.base.ContextVisitor`,
which tracks the class/function nesting for you) over
``module.tree`` — and register it with
:func:`~repro.lint.base.register_rule`::

    from repro.lint.base import ContextVisitor, Rule, register_rule

    @register_rule
    class NoPrintRule(Rule):
        id = "no-print"
        summary = "print() in library code"
        hint = "log through the reporting layer instead"

        def check(self, module):
            visitor = _PrintVisitor(module, self)
            visitor.visit(module.tree)
            return visitor.findings

Rules that need whole-run state (like the lock-order graph) accumulate
it across ``check`` calls and emit from ``finish()``.  Scope a rule to
part of the tree by overriding ``applies(module)`` — see
:func:`~repro.lint.base.has_component`.

Running
-------
CLI: ``repro lint [paths ...] [--format text|json] [--rule ID ...]``;
exit code 0 when clean, 1 with findings, 2 on usage errors.  API:
:func:`lint_paths` returns a :class:`~repro.lint.runner.LintResult`.
"""

from __future__ import annotations

from repro.lint.base import RULE_REGISTRY, Rule, all_rules, register_rule
from repro.lint.findings import Finding
from repro.lint.reporters import render_json, render_text
from repro.lint.runner import LintResult, lint_paths

# Importing the rule modules registers the production rules.
from repro.lint import cache_rules as _cache_rules  # noqa: F401
from repro.lint import collector_rules as _collector_rules  # noqa: F401
from repro.lint import determinism_rules as _determinism_rules  # noqa: F401
from repro.lint import lock_rules as _lock_rules  # noqa: F401

__all__ = [
    "Finding",
    "LintResult",
    "RULE_REGISTRY",
    "Rule",
    "all_rules",
    "lint_paths",
    "register_rule",
    "render_json",
    "render_text",
]
