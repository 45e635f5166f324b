"""Rule: optional heavy dependencies never import at module top level.

The package promises a numpy/scipy-only core: ``ase`` (the calculator
bridge) is *optional*, probed with ``importlib.util.find_spec`` or a
``try/except ImportError`` at the point of use, and the same holds for
any future use of the ``numba`` / ``cupy`` accelerators (no module uses
them today).  One top-level
``import ase`` in a core module makes ``import repro`` itself fail on a
lean install — the bug only surfaces on machines that don't have the
dev environment, which is why it needs a static check.

Allowed placements for ``import ase|numba|cupy``:

* inside a function or method (lazy import after a guard),
* inside a ``try:`` whose handlers catch ``ImportError`` /
  ``ModuleNotFoundError``,
* inside an ``if TYPE_CHECKING:`` block (no runtime import).

Everything else under ``src/repro/`` is flagged.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.engine import Finding, ModuleContext, Rule

OPTIONAL_DEPS = frozenset({"ase", "numba", "cupy"})


def _root_pkg(name: str) -> str:
    return name.split(".")[0]


def _is_type_checking_if(node: ast.If) -> bool:
    t = node.test
    return (isinstance(t, ast.Name) and t.id == "TYPE_CHECKING") or (
        isinstance(t, ast.Attribute) and t.attr == "TYPE_CHECKING")


def _try_catches_import_error(node: ast.Try) -> bool:
    for h in node.handlers:
        types = []
        if h.type is None:
            return True
        if isinstance(h.type, ast.Tuple):
            types = list(h.type.elts)
        else:
            types = [h.type]
        for t in types:
            name = t.id if isinstance(t, ast.Name) else getattr(t, "attr", "")
            if name in ("ImportError", "ModuleNotFoundError"):
                return True
    return False


class ImportGuardRule(Rule):
    id = "import-guard"
    hint = ("move the import behind importlib.util.find_spec / "
            "try-except ImportError, into the using function, or under "
            "if TYPE_CHECKING")
    description = ("optional deps (ase, numba, cupy) must not import at "
                   "module top level of core modules")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_dir("src/repro"):
            return
        yield from self._scan(ctx, ctx.tree.body, guarded=False)

    def _scan(self, ctx: ModuleContext, body: list[ast.stmt],
              guarded: bool) -> Iterator[Finding]:
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                mod = (node.module or "" if isinstance(node, ast.ImportFrom)
                       else "")
                names = ([mod] if mod else
                         [a.name for a in node.names])
                hit = sorted({_root_pkg(n) for n in names}
                             & OPTIONAL_DEPS)
                if hit and not guarded:
                    yield self.finding(
                        ctx, node,
                        f"optional dependency import of {', '.join(hit)} at "
                        f"module top level — breaks numpy/scipy-only "
                        f"installs at import time")
            elif isinstance(node, ast.Try):
                ok = guarded or _try_catches_import_error(node)
                yield from self._scan(ctx, node.body, guarded=ok)
                for h in node.handlers:
                    yield from self._scan(ctx, h.body, guarded)
                yield from self._scan(ctx, node.orelse, guarded)
                yield from self._scan(ctx, node.finalbody, guarded)
            elif isinstance(node, ast.If):
                ok = guarded or _is_type_checking_if(node)
                yield from self._scan(ctx, node.body, guarded=ok)
                yield from self._scan(ctx, node.orelse, guarded)
            elif isinstance(node, (ast.With, ast.For, ast.While)):
                # still module level — no guard implied
                yield from self._scan(ctx, node.body, guarded)
            # function/class bodies are not scanned: imports there are lazy
