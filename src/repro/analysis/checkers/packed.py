"""Packed-kernel contract checkers (the uint64 word conventions of PR 5/6).

The packed kernels' correctness hangs on three conventions documented in
:mod:`repro.engine.packed`: shift/mask amounts on uint64 word arrays are
wrapped in ``np.uint64`` (a raw Python int promotes uint64 operands to
float64 on the numpy versions CI spans), kernels account for the
zero-padded tail bits of the last word, and all uint8<->packed conversions
flow through the two sanctioned packing homes so there is exactly one bit
order in the repository.
"""

from __future__ import annotations

import ast
from typing import Optional, Set

from repro.analysis.checkers._common import dotted_name, is_int_literal
from repro.analysis.framework import Checker, DEFAULT_REGISTRY, Rule
from repro.analysis.findings import Severity

__all__ = ["PackedKernelChecker"]

#: Identifier fragments that mark an expression as a packed word array.
#: "ring" covers packed word rings, such as the version-1 streaming rings
#: that fleet restore decodes; names containing "string" are excluded below
#: — "ring" is a substring of "string", and e.g. a bit-string formatter is
#: not a word array.
_WORDY = ("word", "packed", "ring")

#: Fragments that veto a _WORDY match for the whole identifier.
_WORDY_EXCLUDE = ("string",)

#: Modules allowed to call np.packbits/np.unpackbits directly: the packing
#: convention's home (engine.packed), the byte-level codec it re-exports
#: (nist.common) and the heavy-test kernels that build bit-plane slabs
#: in-register (engine.heavy).
_SANCTIONED_PACKING = (
    "repro/engine/packed.py",
    "repro/engine/heavy.py",
    "repro/nist/common.py",
)

_BIT_OPS = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitOr, ast.BitXor)


def _mentions_words(node: ast.AST) -> bool:
    """True when the expression tree references a word-array identifier."""
    for sub in ast.walk(node):
        name: Optional[str] = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name is not None:
            lowered = name.lower()
            if any(fragment in lowered for fragment in _WORDY_EXCLUDE):
                continue
            if any(fragment in lowered for fragment in _WORDY):
                return True
    return False


@DEFAULT_REGISTRY.register
class PackedKernelChecker(Checker):
    rules = (
        Rule(
            id="PKD001",
            family="packed-kernel",
            severity=Severity.ERROR,
            summary="raw Python int in a uint64 word-array shift/mask",
            invariant="shift amounts and masks on packed word arrays must be "
                      "np.uint64(...)-wrapped; a bare int promotes uint64 operands "
                      "to float64 and silently corrupts the kernel",
        ),
        Rule(
            id="PKD002",
            family="packed-kernel",
            severity=Severity.WARNING,
            summary="packed kernel never consults the row bit length",
            invariant="kernels over PackedMatrix words must account for the "
                      "zero-padded tail bits of the last word (read .n / mask the "
                      "tail) or document why the zero-pad invariant suffices",
            scopes=("library",),
        ),
        Rule(
            id="PKD003",
            family="packed-kernel",
            severity=Severity.ERROR,
            summary="uint8<->packed conversion outside the packing homes",
            invariant="np.packbits/np.unpackbits live in repro.engine.packed / "
                      "repro.nist.common (one bit order repo-wide); call "
                      "pack_matrix/unpack_matrix/pack_bits/unpack_bits instead",
        ),
    )

    # ------------------------------------------------------------ PKD001
    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, _BIT_OPS):
            if isinstance(node.op, (ast.LShift, ast.RShift)):
                wordy = _mentions_words(node.left)
                raw = is_int_literal(node.right)
            else:
                wordy = _mentions_words(node.left) or _mentions_words(node.right)
                raw = is_int_literal(node.right) or is_int_literal(node.left)
            if wordy and raw:
                op_text = {
                    ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&",
                    ast.BitOr: "|", ast.BitXor: "^",
                }[type(node.op)]
                self.report(
                    "PKD001",
                    node,
                    f"raw Python int with '{op_text}' on a uint64 word array; wrap "
                    f"the scalar in np.uint64(...) to keep the dtype exact",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------ PKD002
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_kernel_tail(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _packed_params(self, node: ast.FunctionDef) -> Set[str]:
        """Parameter names that carry a PackedMatrix (by annotation or name)."""
        params: Set[str] = set()
        for arg in list(node.args.posonlyargs) + list(node.args.args) + list(node.args.kwonlyargs):
            annotation = ""
            if arg.annotation is not None:
                annotation = ast.dump(arg.annotation)
            if arg.arg == "packed" or "PackedMatrix" in annotation:
                params.add(arg.arg)
        return params

    def _check_kernel_tail(self, node: ast.FunctionDef) -> None:
        params = self._packed_params(node)
        if not params:
            return
        reads_words = False
        consults_length = False
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                if sub.value.id in params:
                    if sub.attr == "words":
                        reads_words = True
                    elif sub.attr in ("n", "num_rows", "unpack"):
                        if sub.attr == "n":
                            consults_length = True
            if isinstance(sub, ast.Call):
                callee = dotted_name(sub.func) or ""
                tail = callee.split(".")[-1]
                # Delegating to another kernel/helper hands off the tail
                # handling; supports_* guards and unpack helpers count too.
                if tail.startswith("supports_") or tail in ("unpack", "unpack_rows", "unpack_matrix"):
                    consults_length = True
        if reads_words and not consults_length:
            self.report(
                "PKD002",
                node,
                f"kernel {node.name}() reads packed words but never consults the "
                f"bit length (.n); tail bits of the last word need masking (or a "
                f"comment + suppression citing the zero-pad invariant)",
            )

    # ------------------------------------------------------------ PKD003
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func) or ""
        tail = name.split(".")[-1]
        if tail in ("packbits", "unpackbits") and name.split(".")[0] in ("np", "numpy"):
            if not self.ctx.path.endswith(_SANCTIONED_PACKING):
                self.report(
                    "PKD003",
                    node,
                    f"np.{tail} called outside the packing homes "
                    f"(repro.engine.packed / repro.nist.common); use "
                    f"pack_matrix/unpack_matrix or pack_bits/unpack_bits so the "
                    f"repository keeps one bit order",
                )
        self.generic_visit(node)
