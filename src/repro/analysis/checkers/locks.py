"""Lock-discipline checkers for lock-owning classes (fleet service tier).

Classes that create a ``threading`` lock (``FleetScheduler``,
``FleetService``) promise two things the service e2e tests depend on:
shared mutable state is only written under the lock, and the lock is never
held across engine evaluation (a slow ``run_batch`` under the scheduler
lock would stall every concurrent service request — the bounded-lock-hold
behaviour pinned by ``tests/test_fleet_service.py``).  ROADMAP item 2
(shared-nothing service shards) multiplies this surface, so both rules are
machine-enforced here.
"""

from __future__ import annotations

import ast
import re
from typing import Optional, Set

from repro.analysis.checkers._common import dotted_name
from repro.analysis.framework import Checker, DEFAULT_REGISTRY, Rule
from repro.analysis.findings import Severity

__all__ = ["LockDisciplineChecker"]

#: threading constructors whose assignment marks a lock attribute.
_LOCK_CONSTRUCTORS = ("Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore")

#: A dotted alias counts as a lock when its final segment *is* a lock name
#: ("scheduler.lock", "parent._pool_lock") — NOT when "lock" is merely a
#: substring ("self.lock_strength" of the injection-locked oscillator).
_LOCK_ALIAS_RE = re.compile(r"(^|_)(lock|rlock|mutex)$")

#: Methods that mutate their receiver in place (writes for LCK001).
_MUTATORS = {
    "append", "extend", "insert", "add", "update", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse", "appendleft",
}

#: Callee names that run engine evaluation; calling them while holding a
#: lock violates the bounded-lock-hold contract (LCK002).
#: ``_evaluate_round`` is the fleet round's fan-out: its run_batch calls sit
#: in worker functions, out of this rule's lexical reach.
_EVAL_CALLEES = {
    "run_batch", "evaluate_matrix", "evaluate_batch", "evaluate_sequence",
    "evaluate_source", "run_campaign", "_evaluate_round",
}

#: Methods whose writes are exempt: construction happens-before any
#: concurrent access.
_EXEMPT_METHODS = {"__init__", "__new__", "__init_subclass__"}


def _self_attribute(node: ast.AST) -> Optional[str]:
    """``X`` for an ``self.X`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _MethodWalker(ast.NodeVisitor):
    """Walk one method tracking ``with self.<lock>`` nesting depth."""

    def __init__(self, checker: "LockDisciplineChecker", method: ast.FunctionDef,
                 lock_attrs: Set[str]):
        self.checker = checker
        self.method = method
        self.lock_attrs = lock_attrs
        self.depth = 0
        self.exempt = method.name in _EXEMPT_METHODS

    # ----------------------------------------------------------- with locks
    def visit_With(self, node: ast.With) -> None:
        holds = 0
        for item in node.items:
            attr = _self_attribute(item.context_expr)
            if attr is not None and attr in self.lock_attrs:
                holds += 1
        self.depth += holds
        self.generic_visit(node)
        self.depth -= holds

    # ---------------------------------------------------------- write sites
    def _record_write(self, attr: Optional[str], node: ast.AST) -> None:
        if attr is None or attr in self.lock_attrs or self.exempt:
            return
        if self.depth == 0:
            self.checker.report(
                "LCK001",
                node,
                f"self.{attr} written outside 'with self.<lock>' in "
                f"lock-owning class {self.checker.current_class}.{self.method.name}(); "
                f"shared state must only mutate under the lock",
            )

    def _target_writes(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target_writes(element, node)
        elif isinstance(target, ast.Starred):
            self._target_writes(target.value, node)
        elif isinstance(target, ast.Subscript):
            self._record_write(_self_attribute(target.value), node)
        else:
            self._record_write(_self_attribute(target), node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._target_writes(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._target_writes(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._target_writes(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._target_writes(target, node)
        self.generic_visit(node)

    # ----------------------------------------------------------- call sites
    def visit_Call(self, node: ast.Call) -> None:
        # Mutating method call on a self attribute counts as a write.
        if isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
            self._record_write(_self_attribute(node.func.value), node)
        # Engine evaluation while holding a lock.
        if self.depth > 0:
            callee = dotted_name(node.func) or ""
            if callee.split(".")[-1] in _EVAL_CALLEES:
                self.checker.report(
                    "LCK002",
                    node,
                    f"{callee}() called while holding a lock in "
                    f"{self.checker.current_class}.{self.method.name}(); engine "
                    f"evaluation must run outside lock holds (bounded-lock "
                    f"contract of the fleet service)",
                )
        self.generic_visit(node)

    # Nested function/class definitions get their own discipline scope; do
    # not attribute their writes to the enclosing method's lock state.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.method:
            return
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return


@DEFAULT_REGISTRY.register
class LockDisciplineChecker(Checker):
    rules = (
        Rule(
            id="LCK001",
            family="lock-discipline",
            severity=Severity.ERROR,
            summary="attribute of a lock-owning class written outside the lock",
            invariant="in a class that creates a threading lock, every attribute "
                      "write outside __init__ must sit inside a 'with self.<lock>' "
                      "block (service threads race the scheduler otherwise)",
        ),
        Rule(
            id="LCK002",
            family="lock-discipline",
            severity=Severity.ERROR,
            summary="engine evaluation called while holding a lock",
            invariant="run_batch/evaluate_* must not run under a held lock: lock "
                      "holds stay bounded so slow evaluations never stall "
                      "concurrent service requests (fleet service e2e contract)",
        ),
    )

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.current_class = ""

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        lock_attrs = self._lock_attributes(node)
        if lock_attrs:
            previous = self.current_class
            self.current_class = node.name
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _MethodWalker(self, item, lock_attrs).visit(item)
            self.current_class = previous
        # Nested classes get their own scan either way.
        for item in node.body:
            if isinstance(item, ast.ClassDef):
                self.visit_ClassDef(item)

    @staticmethod
    def _lock_attributes(node: ast.ClassDef) -> Set[str]:
        """Attributes holding locks.

        A ``self.X = ...`` assignment marks ``X`` as a lock when the value
        is a ``threading`` lock constructor call, or a dotted expression
        whose final segment is itself a lock name (sharing another
        object's lock, e.g. ``self._lock = scheduler.lock``).  Name-based
        guessing on ``X`` alone is deliberately avoided: this TRNG domain
        has *injection-locked* oscillators whose ``lock_strength`` /
        ``locked`` attributes are physics, not threading.
        """
        lock_attrs: Set[str] = set()
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            is_lock_value = False
            if isinstance(sub.value, ast.Call):
                callee = dotted_name(sub.value.func) or ""
                is_lock_value = callee.split(".")[-1] in _LOCK_CONSTRUCTORS
            elif isinstance(sub.value, ast.Attribute):
                is_lock_value = bool(_LOCK_ALIAS_RE.search(sub.value.attr.lower()))
            if not is_lock_value:
                continue
            for target in sub.targets:
                attr = _self_attribute(target)
                if attr is not None:
                    lock_attrs.add(attr)
        return lock_attrs
