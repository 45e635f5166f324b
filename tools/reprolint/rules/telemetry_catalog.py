"""Rule: telemetry names are literals, on-catalog, and well-formed.

``tools/check_metrics.py`` gates CI on metric *names* (fused-path hit
rate, pattern-cache rate, trajectory size ratio), and ``tools/trace_report.py``
aggregates spans by name.  Both go quietly blind when a call site
renames an instrument or builds its name at runtime.  So, for every
call into ``repro.obs`` (``counter_inc`` / ``gauge_set`` / ``observe``
/ ``span``) outside ``src/repro/obs/`` itself:

* an f-string / ``%`` / ``.format`` / concatenated name is flagged
  outright — dynamic names make an unbounded, ungateable namespace
  (map the variants to a fixed set of literals instead);
* a literal name must match the ``area.noun[_qualifier]`` convention
  (2–4 lowercase dotted segments) **and** appear in the catalog in
  ``docs/observability.md`` — documenting the instrument is part of
  adding it;
* a plain variable is let through: the fixed-literal check happens
  wherever the variable was assigned.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.reprolint.catalog import matches_convention, parse_catalog
from tools.reprolint.engine import Finding, ModuleContext, Rule

#: repro.obs entry points whose first argument is an instrument name
OBS_NAME_APIS = frozenset({"counter_inc", "gauge_set", "observe", "span"})


def _obs_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(module aliases, directly-imported helper names) for repro.obs."""
    mod_aliases: set[str] = set()
    func_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in ("repro.obs", "repro.obs.metrics",
                              "repro.obs.spans"):
                    mod_aliases.add((a.asname or a.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro":
                for a in node.names:
                    if a.name == "obs":
                        mod_aliases.add(a.asname or a.name)
            elif node.module in ("repro.obs", "repro.obs.metrics",
                                 "repro.obs.spans"):
                for a in node.names:
                    if a.name in ("metrics", "spans"):
                        mod_aliases.add(a.asname or a.name)
                    elif a.name in OBS_NAME_APIS:
                        func_aliases.add(a.asname or a.name)
    return mod_aliases, func_aliases


class TelemetryCatalogRule(Rule):
    id = "telemetry-catalog"
    hint = ("use a fixed literal name following area.noun[_qualifier] and "
            "add it to the catalog table in docs/observability.md")
    description = ("metric/span names passed to repro.obs must be literal, "
                   "convention-shaped, and listed in docs/observability.md")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_dir("src") or ctx.in_dir("src/repro/obs"):
            return
        mod_aliases, func_aliases = _obs_aliases(ctx.tree)
        if not mod_aliases and not func_aliases:
            return
        catalog = ctx.config.catalog_names
        if catalog is None:
            catalog = parse_catalog(ctx.config.root)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            api = self._obs_api(node.func, mod_aliases, func_aliases)
            if api is None:
                continue
            yield from self._check_name_arg(ctx, api, node.args[0], catalog)

    @staticmethod
    def _obs_api(func: ast.expr, mod_aliases: set[str],
                 func_aliases: set[str]) -> str | None:
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in mod_aliases
                and func.attr in OBS_NAME_APIS):
            return func.attr
        if isinstance(func, ast.Name) and func.id in func_aliases:
            return func.id
        return None

    def _check_name_arg(self, ctx: ModuleContext, api: str, arg: ast.expr,
                        catalog: frozenset[str]) -> Iterator[Finding]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
            if not matches_convention(name):
                yield self.finding(
                    ctx, arg,
                    f"obs.{api}({name!r}): name does not follow the "
                    f"area.noun[_qualifier] convention")
            elif catalog and name not in catalog:
                yield self.finding(
                    ctx, arg,
                    f"obs.{api}({name!r}): name is not in the "
                    f"docs/observability.md catalog")
        elif isinstance(arg, ast.JoinedStr) or (
                isinstance(arg, ast.BinOp)
                and isinstance(arg.op, (ast.Add, ast.Mod))) or (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Attribute)
                and arg.func.attr == "format"):
            yield self.finding(
                ctx, arg,
                f"obs.{api}(...): dynamic metric/span name — the gates in "
                f"tools/check_metrics.py can only key on fixed literals",
                hint="map the run-time variants to a fixed dict of literal "
                     "names, all listed in docs/observability.md")
        # bare Name / attribute args: checked where the literal is assigned
