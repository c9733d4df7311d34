"""FFI001: native code enters the process in one reviewed place.

The compiled kernel (``repro/joins/native.c``) is a CPython extension
module: one module, :mod:`repro.joins.native`, builds it into the
package's own cache and loads it through
``importlib.machinery.ExtensionFileLoader``, and the module itself checks
every array it is handed (dtype, contiguity, alignment, sizes, index
ranges) with numpy's C API before a loop reads a pointer.  A second way
in would be a second, unreviewed way for native code -- and for raw
pointers into numpy buffers -- to enter the process: a wrong ``argtypes``
or a stale pointer is a crash or silent memory corruption, not an
exception.  So every foreign-function interface is banned in every
module, the loader included, which needs none: importing ``ctypes`` (or
``_ctypes``) or ``cffi``, and ``numpy.ctypeslib`` (whose
``load_library`` is ``ctypes.CDLL`` by another name).  And
``ExtensionFileLoader``, which loads a compiled module from any path, is
allowed in ``repro/joins/native.py`` only.  The same pattern as the
planned ``SER001`` for ``pickle``: one audited entry point, enforced
statically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Rule, SourceContext, Violation

__all__ = ["NativeCodeRule"]

#: Modules whose import brings foreign-function calls into a file.
_FFI_MODULES = ("ctypes", "_ctypes", "cffi", "numpy.ctypeslib")
#: What loads a compiled extension module from a path.
_LOADER = "importlib.machinery.ExtensionFileLoader"
#: The one module that may use it.
_KERNEL_LOADER = "repro/joins/native.py"


def _within(module: str, names: "tuple[str, ...]") -> bool:
    return any(module == name or module.startswith(name + ".") for name in names)


class NativeCodeRule(Rule):
    """FFI001: no ``ctypes`` / ``cffi``; ``ExtensionFileLoader`` only in the kernel's loader."""

    rule_id = "FFI001"
    name = "native code outside the kernel loader"
    description = (
        "ctypes, cffi and numpy.ctypeslib load and call native code, and no "
        "module may use them; only repro.joins.native, the kernel's loader, "
        "may load an extension module (ExtensionFileLoader)"
    )
    target_node_types = (ast.Import, ast.ImportFrom, ast.Attribute)

    def check(self, node: ast.AST, context: SourceContext) -> Iterator[Violation]:
        """Flag FFI imports, ``numpy.ctypeslib`` reached through ``numpy``, and the loader."""
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(context.enclosing(ast.Attribute), ast.Attribute):
            return  # only the full chain is resolved, not its prefixes
        else:
            # ``ctypes.CDLL`` is flagged at its import; ``numpy`` and
            # ``importlib`` are no FFI imports, so what they reach is
            # flagged where it is read.
            chain = context.resolve(node) or ""
            modules = [chain] if _within(chain, ("numpy.ctypeslib", _LOADER)) else []
        for module in modules:
            if _within(module, _FFI_MODULES):
                yield Violation(
                    node,
                    f"{module} loads or calls native code; none enters the process "
                    "but the kernel's extension module, which repro.joins.native loads",
                )
                return
            if _within(module, (_LOADER,)) and not context.path.endswith(_KERNEL_LOADER):
                yield Violation(
                    node,
                    f"{module} loads a compiled extension module; only "
                    "repro.joins.native, the kernel's loader, may",
                )
                return
