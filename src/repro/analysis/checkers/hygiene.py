"""API-hygiene checkers: annotations and CLI help drift.

These guard the seams other tooling relies on: the mypy configuration is
only as strong as the annotations it sees (API001 keeps the engine/fleet/
analysis surfaces fully typed), and ``--help`` text is the CLI's contract
with its users (API002 keeps literal choice lists and help in sync).
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis.checkers._common import dotted_name
from repro.analysis.framework import Checker, DEFAULT_REGISTRY, Rule
from repro.analysis.findings import Severity

__all__ = ["ApiHygieneChecker"]

@DEFAULT_REGISTRY.register
class ApiHygieneChecker(Checker):
    rules = (
        Rule(
            id="API001",
            family="api-hygiene",
            severity=Severity.ERROR,
            summary="public function missing type annotations",
            invariant="the engine/fleet/analysis surfaces stay fully annotated so "
                      "the strict mypy gate actually checks them",
            scopes=("engine", "fleet", "analysis"),
        ),
        Rule(
            id="API002",
            family="api-hygiene",
            severity=Severity.ERROR,
            summary="CLI help text drifts from the registered choices",
            invariant="every literal choices= value must be named in the flag's "
                      "help string — --help is the CLI contract",
        ),
    )

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._class_stack: List[ast.ClassDef] = []
        self._function_depth = 0

    # ------------------------------------------------------------ API001
    def _check_annotations(self, node: ast.FunctionDef) -> None:
        if node.name.startswith("_"):
            return  # private helpers and dunders are mypy's problem, not ours
        if self._function_depth:
            return  # nested functions are implementation detail
        if any(cls.name.startswith("_") for cls in self._class_stack):
            return  # private class: not part of the typed surface
        for decorator in node.decorator_list:
            if (dotted_name(decorator) or "").split(".")[-1] == "overload":
                return
        missing: List[str] = []
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if self._class_stack and positional and positional[0].arg in ("self", "cls"):
            positional = positional[1:]
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
        unannotated_return = node.returns is None
        if missing or unannotated_return:
            parts = []
            if missing:
                parts.append("parameter(s) " + ", ".join(missing))
            if unannotated_return:
                parts.append("the return type")
            self.report(
                "API001",
                node,
                f"public function {node.name}() is missing annotations for "
                f"{' and '.join(parts)}; the strict mypy gate skips what is "
                f"not annotated",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_annotations(node)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node)
        self.generic_visit(node)
        self._class_stack.pop()

    # ------------------------------------------------------------ API002
    @staticmethod
    def _literal_strings(node: ast.AST) -> List[str]:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            values = []
            for element in node.elts:
                if isinstance(element, ast.Constant) and isinstance(element.value, str):
                    values.append(element.value)
                else:
                    return []
            return values
        return []

    def _check_help_drift(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"):
            return
        choices: List[str] = []
        help_text = None
        for keyword in node.keywords:
            if keyword.arg == "choices":
                choices = self._literal_strings(keyword.value)
            elif keyword.arg == "help" and isinstance(keyword.value, ast.Constant) \
                    and isinstance(keyword.value.value, str):
                help_text = keyword.value.value
        if not choices or help_text is None:
            return
        absent = [choice for choice in choices if choice not in help_text]
        if absent:
            self.report(
                "API002",
                node,
                f"help text never mentions registered choice(s) "
                f"{', '.join(repr(c) for c in absent)}; --help has drifted from "
                f"the accepted values",
            )

    def visit_Call(self, node: ast.Call) -> None:
        self._check_help_drift(node)
        self.generic_visit(node)
