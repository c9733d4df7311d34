"""FFI001: native code enters the process in one reviewed place.

The compiled count kernel (``repro/joins/native.c``) is loaded through
``ctypes`` by one module, :mod:`repro.joins.native`, which builds it into
the package's own cache, checks every array it hands over (dtype,
contiguity, alignment, index ranges) and falls back to numpy otherwise.
A second ``ctypes`` user would be a second, unreviewed way for native
code -- and for raw pointers into numpy buffers -- to enter the process:
a wrong ``argtypes`` or a stale pointer is a crash or silent memory
corruption, not an exception.  So every foreign-function interface is
banned outside that module: importing ``ctypes`` (or ``_ctypes``) or
``cffi``, and ``numpy.ctypeslib`` (whose ``load_library`` is
``ctypes.CDLL`` by another name).  The same pattern as the planned
``SER001`` for ``pickle``: one audited entry point, enforced statically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, SourceContext, Violation

__all__ = ["NativeCodeRule"]

#: Modules whose import brings foreign-function calls into a file.
_FFI_MODULES = ("ctypes", "_ctypes", "cffi", "numpy.ctypeslib")


def _is_ffi(module: str) -> bool:
    return any(module == name or module.startswith(name + ".") for name in _FFI_MODULES)


class NativeCodeRule(Rule):
    """FFI001: ``ctypes`` / ``cffi`` / ``numpy.ctypeslib`` only in ``repro.joins.native``."""

    rule_id = "FFI001"
    name = "native code outside the kernel loader"
    description = (
        "ctypes, cffi and numpy.ctypeslib load and call native code; only "
        "repro.joins.native, the count kernel's loader, may use them"
    )
    target_node_types = (ast.Import, ast.ImportFrom, ast.Attribute)
    #: The one module native code may enter through.
    exclude = ("repro/joins/native.py",)

    def check(self, node: ast.AST, context: SourceContext) -> Iterator[Violation]:
        """Flag FFI imports, and ``numpy.ctypeslib`` reached through ``numpy``."""
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(context.enclosing(ast.Attribute), ast.Attribute):
            return  # only the full chain is resolved, not its prefixes
        else:
            # ``ctypes.CDLL`` is flagged at its import; ``numpy`` is no FFI
            # import, so what it reaches is flagged where it is read.
            chain = context.resolve(node) or ""
            modules = [chain] if chain.startswith("numpy.ctypeslib") else []
        for module in modules:
            if _is_ffi(module):
                yield Violation(
                    node,
                    f"{module} loads or calls native code; only "
                    "repro.joins.native, the count kernel's loader, may",
                )
                return
