"""DRA5xx: interprocedural determinism & concurrency rules.

Where DRA1xx--DRA4xx judge one file at a time, these five families run
over the whole-project :class:`~repro.lint.flow.callgraph.CallGraph`
and the dataflow summaries of :mod:`repro.lint.flow.dataflow`:

* **DRA501** RNG provenance -- generators must derive from the run's
  ``SeedSequence.spawn`` chain: no hard-coded seeds in library code, no
  module-level generators, no generator captured by a closure that
  crosses a process-pool boundary;
* **DRA502** worker race surface -- module-level mutable state written
  by any function reachable from a pool worker entry diverges per
  process, so results depend on the ``--jobs`` fan-out;
* **DRA503** unordered iteration -- dict/set iteration order reaching
  parallel dispatch or seed spawns, written at the sink or flowing in
  through locals, parameters and project-function returns, in any
  scanned module (module-level code included);
* **DRA504** trace/metric names -- emit kinds and metric names must
  constant-fold (through literals, locals, module constants and thin
  wrappers, judged at their callers in any scanned module) to a
  :mod:`repro.obs.schema` registration, or be f-strings opening with a
  registered family;
* **DRA505** hot-path purity -- wall-clock, filesystem and network
  calls reachable from frames the simulation engine schedules
  (``Engine.run`` fires them; nondeterminism there corrupts results
  instead of crashing).

Every rule receives the shared :class:`ProjectAnalysis` and yields
plain :class:`~repro.lint.findings.Finding` records anchored at the
**sink** line -- which is also where the suppression policy applies
(``docs/static-analysis.md``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.lint.findings import Finding
from repro.lint.flow import dataflow as _df
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.modules import FunctionInfo, ModuleInfo, ProjectIndex
from repro.lint.rules import _EPOCH_READS, _MONOTONIC_READS, _dotted
from repro.obs import schema as _schema

__all__ = ["FLOW_RULES", "FlowRule", "ProjectAnalysis", "flow_rule"]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class ProjectAnalysis:
    """Everything the flow rules share for one run."""

    index: ProjectIndex
    graph: CallGraph
    #: function qname -> why its return value is hash-ordered
    unordered: dict[str, str]
    #: function qname -> worker entry that reaches it
    worker_reach: dict[str, str]
    #: function qname -> scheduled frame that reaches it
    sched_reach: dict[str, str]

    def library_modules(self) -> Iterator[ModuleInfo]:
        """Modules under ``repro/<pkg>/`` that are not tests/examples."""
        for mod in self.index.modules.values():
            ctx = mod.ctx
            if ctx.is_test_code or ctx.is_example:
                continue
            if ctx.subpackage is None:
                continue
            yield mod


@dataclass(frozen=True)
class FlowRule:
    """A registered whole-project check."""

    code: str
    name: str
    summary: str
    check: Callable[[ProjectAnalysis], Iterable[Finding]]


#: Registry of interprocedural rules, keyed by code.
FLOW_RULES: dict[str, FlowRule] = {}


def flow_rule(code: str, name: str, summary: str):
    """Decorator registering an interprocedural rule under ``code``."""

    def register(check: Callable[[ProjectAnalysis], Iterable[Finding]]):
        if code in FLOW_RULES:
            raise ValueError(f"duplicate flow rule code {code}")
        FLOW_RULES[code] = FlowRule(
            code=code, name=name, summary=summary, check=check
        )
        return check

    return register


def _finding(mod: ModuleInfo, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=mod.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
    )


def _enclosing_function(
    mod: ModuleInfo, node: ast.AST
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    parents = mod.ctx.parents
    cur = parents.get(node)
    while cur is not None:
        if isinstance(cur, _FUNC_NODES):
            return cur
        cur = parents.get(cur)
    return None


def _qname_of_node(mod: ModuleInfo, func_node) -> str | None:
    for fi in mod.all_functions():
        if fi.node is func_node:
            return fi.qname
    return None


# ---------------------------------------------------------------------------
# DRA501 -- RNG provenance
# ---------------------------------------------------------------------------

_GEN_FACTORIES = frozenset({"default_rng", "stream"})


def _is_default_rng_call(node: ast.Call) -> bool:
    dotted = _dotted(node.func)
    return dotted is not None and dotted[-1] == "default_rng"


def _generator_locals(func: ast.AST) -> set[str]:
    """Locals bound to a fresh Generator (``default_rng``/``.stream``)."""
    out: set[str] = set()
    for node in ast.walk(func):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        dotted = _dotted(node.value.func)
        if dotted is None or dotted[-1] not in _GEN_FACTORIES:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _free_names(func: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names a closure reads from its enclosing scope."""
    args = func.args
    bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    body = func.body if isinstance(func, ast.Lambda) else func
    loaded: set[str] = set()
    nodes = ast.walk(body) if isinstance(body, ast.AST) else (
        n for stmt in body for n in ast.walk(stmt)
    )
    for node in nodes:
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
    return loaded - bound


@flow_rule(
    "DRA501",
    "flow.rng-provenance",
    "generators derive from the run's SeedSequence.spawn chain",
)
def check_rng_provenance(p: ProjectAnalysis) -> Iterator[Finding]:
    for mod in p.library_modules():
        if mod.ctx.endswith("sim", "rng.py"):  # the sanctioned factory
            continue
        local_envs: dict[ast.AST, dict[str, object]] = {}
        for node in mod.ctx.nodes:
            if not (isinstance(node, ast.Call) and _is_default_rng_call(node)):
                continue
            func = _enclosing_function(mod, node)
            if func is None:
                yield _finding(
                    mod, node, "DRA501",
                    "module-level Generator is process-wide shared state: "
                    "every importer draws from one stream in load order; "
                    "derive per-run streams from the root SeedSequence "
                    "instead (see repro.sim.rng)",
                )
                continue
            if not node.args:
                continue  # unseeded: DRA101's finding
            if func not in local_envs:
                local_envs[func] = _df.local_const_env(func)
            seed = _df.fold_const(
                node.args[0], index=p.index, mod=mod, local_env=local_envs[func]
            )
            if seed is _df.MISSING or not isinstance(seed, int):
                continue
            qname = _qname_of_node(mod, func)
            entry = p.worker_reach.get(qname) if qname else None
            if entry is not None:
                yield _finding(
                    mod, node, "DRA501",
                    f"default_rng({seed}) inside pool-dispatched code "
                    f"(reachable from worker entry {entry}): every chunk "
                    "draws the identical stream; derive the generator from "
                    "the task's SeedSequence.spawn chain in the payload",
                )
            else:
                yield _finding(
                    mod, node, "DRA501",
                    f"hard-coded seed {seed} severs the SeedSequence.spawn "
                    "provenance chain; accept an rng (or SeedSequence) "
                    "parameter derived from the run's root seed",
                )
    # closures capturing a Generator across the pool boundary
    for site in p.graph.pool_sites:
        mod = p.index.module_of(site.caller)
        if mod.ctx.is_test_code or mod.ctx.is_example:
            continue
        fn_expr = site.fn_expr
        closure = None
        if isinstance(fn_expr, ast.Lambda):
            closure = fn_expr
        elif isinstance(fn_expr, ast.Name):
            for sub in ast.walk(site.caller.node):
                if isinstance(sub, _FUNC_NODES) and sub.name == fn_expr.id:
                    closure = sub
                    break
        if closure is None:
            continue
        captured = _free_names(closure) & _generator_locals(site.caller.node)
        for name in sorted(captured):
            yield _finding(
                mod, site.node, "DRA501",
                f"closure worker captures Generator {name!r} across the "
                "process-pool boundary: each worker gets a pickled copy "
                "(or fork snapshot) of the same stream state, so draws "
                "collide across chunks; spawn one SeedSequence child per "
                "task instead",
            )


# ---------------------------------------------------------------------------
# DRA502 -- worker race surface
# ---------------------------------------------------------------------------

_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem", "clear",
        "add", "discard", "update", "setdefault", "appendleft",
    }
)

#: Modules housing the sanctioned process-global hooks: registries are
#: collected per worker and merged in submission order (the snapshot
#: discipline of ``metered_parallel_map``), so their globals are the
#: mechanism that *makes* pooled metrics deterministic.
_HOOK_MODULES = (("obs", "metrics.py"), ("obs", "trace.py"))


def _local_names(func: ast.AST) -> set[str]:
    names: set[str] = set()
    args = func.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        names.add(a.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, _FUNC_NODES) and node is not func:
            names.add(node.name)
    # names declared global are writes *to the module*, not locals
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            names -= set(node.names)
    return names


def _module_target(
    index: ProjectIndex, mod: ModuleInfo, expr: ast.expr, locals_: set[str]
) -> tuple[ModuleInfo, str] | None:
    """The (module, name) a store/mutation expression ultimately hits."""
    if isinstance(expr, ast.Name):
        if expr.id in locals_:
            return None
        target = index.resolve(mod, (expr.id,))
        if isinstance(target, tuple) and target[0] == "mutable":
            return target[1], target[2]
        if expr.id in mod.globals_defined:
            return mod, expr.id
        return None
    if isinstance(expr, ast.Attribute):
        dotted = _dotted(expr)
        if dotted is None or dotted[0] in locals_ or dotted[0] == "self":
            return None
        target = index.resolve(mod, dotted)
        if isinstance(target, tuple) and target[0] == "mutable":
            return target[1], target[2]
    return None


def _race_writes(
    index: ProjectIndex, mod: ModuleInfo, fi: FunctionInfo
) -> list[tuple[ast.AST, ModuleInfo, str, str]]:
    """(node, target module, target name, verb) for each global write."""
    locals_ = _local_names(fi.node)
    globals_decl: set[str] = set()
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Global):
            globals_decl |= set(node.names)
    out: list[tuple[ast.AST, ModuleInfo, str, str]] = []
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Assign | ast.AugAssign):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for t in targets:
                if isinstance(t, ast.Name) and t.id in globals_decl:
                    out.append((node, mod, t.id, "rebinds"))
                elif isinstance(t, ast.Subscript):
                    mt = _module_target(index, mod, t.value, locals_)
                    if mt is not None:
                        out.append((node, mt[0], mt[1], "writes into"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            mt = _module_target(index, mod, node.func.value, locals_)
            if mt is not None:
                out.append((node, mt[0], mt[1], f"mutates ({node.func.attr})"))
    return out


@flow_rule(
    "DRA502",
    "flow.worker-race",
    "no module-level mutable state written from pool-worker frames",
)
def check_worker_race(p: ProjectAnalysis) -> Iterator[Finding]:
    seen: set[tuple[str, int, int]] = set()
    for qname in sorted(p.worker_reach):
        fi = p.index.functions[qname]
        mod = p.index.module_of(fi)
        ctx = mod.ctx
        if ctx.is_test_code or ctx.is_example:
            continue
        if any(ctx.endswith(*suffix) for suffix in _HOOK_MODULES):
            continue  # the sanctioned snapshot-merged hook machinery
        entry = p.worker_reach[qname]
        for node, tmod, name, verb in _race_writes(p.index, mod, fi):
            key = (fi.path, node.lineno, node.col_offset)
            if key in seen:
                continue
            seen.add(key)
            yield _finding(
                mod, node, "DRA502",
                f"{verb} module-level mutable {tmod.name}.{name} inside "
                f"{fi.qname}, reachable from worker entry {entry}: each "
                "pool process mutates its own copy, so results depend on "
                "the --jobs fan-out; carry state in task payloads/returns "
                "and merge in submission order",
            )


# ---------------------------------------------------------------------------
# DRA503 -- unordered-iteration escape
# ---------------------------------------------------------------------------

#: Call targets that fan work out or derive RNG streams: anything
#: feeding them must iterate in a deterministic (sorted) order.
_DISPATCH_FUNCS = frozenset({"parallel_map", "metered_parallel_map", "spawn"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _dispatch_name(node: ast.AST) -> str | None:
    if not isinstance(node, ast.Call):
        return None
    fn = node.func
    name = fn.id if isinstance(fn, ast.Name) else (
        fn.attr if isinstance(fn, ast.Attribute) else None
    )
    return name if name in _DISPATCH_FUNCS else None


def _tainted_params(p: ProjectAnalysis, fi: FunctionInfo) -> dict[str, str]:
    """Params of ``fi`` receiving an unordered value at some call site."""
    out: dict[str, str] = {}
    params = fi.params
    for site in p.graph.sites_calling(fi.qname):
        if site.kind != "call":
            continue
        caller = p.index.functions.get(site.caller)
        if caller is None:
            continue
        cmod = p.index.module_of(caller)
        cenv = _df.local_unordered_env(
            caller, index=p.index, mod=cmod, summaries=p.unordered
        )
        offset = 1 if fi.class_qname is not None else 0
        for i, arg in enumerate(site.node.args):
            pidx = i + offset
            if pidx >= len(params):
                break
            why = _df.unordered_expr(
                arg, index=p.index, mod=cmod, local_env=cenv,
                summaries=p.unordered,
            )
            if why is not None and params[pidx] not in out:
                out[params[pidx]] = (
                    f"{why} passed by {caller.qname}() at "
                    f"{cmod.path}:{site.lineno}"
                )
    return out


def _taint_env(
    p: ProjectAnalysis, mod: ModuleInfo, fi: FunctionInfo | None
) -> dict[str, str]:
    """Tainted locals and parameters of ``fi`` (none at module level)."""
    if fi is None:
        return {}
    env = _df.local_unordered_env(
        fi, index=p.index, mod=mod, summaries=p.unordered
    )
    env.update(_tainted_params(p, fi))
    return env


@flow_rule(
    "DRA503",
    "flow.unordered-escape",
    "dict/set order never flows into parallel dispatch or seed spawns",
)
def check_unordered_escape(p: ProjectAnalysis) -> Iterator[Finding]:
    for mod in p.index.modules.values():
        dispatches = [node for node in mod.ctx.nodes if _dispatch_name(node)]
        if not dispatches:
            continue
        # qname of a dispatching function (None: module-level code)
        # -> its taint environment
        envs: dict[str | None, dict[str, str]] = {}
        for node in dispatches:
            fi = mod.owner(node)
            scope = fi.qname if fi else None
            if scope not in envs:
                envs[scope] = _taint_env(p, mod, fi)
        seen: set[tuple[int, int]] = set()
        for node in mod.ctx.nodes:
            name = _dispatch_name(node)
            if name is not None:
                exprs, anchor = node.args, node
            elif isinstance(node, ast.For):
                exprs, anchor = [node.iter], None
            elif isinstance(node, _COMPREHENSIONS):
                exprs, anchor = [gen.iter for gen in node.generators], None
            else:
                continue
            fi = mod.owner(node)
            env = envs.get(fi.qname if fi else None)
            if env is None:
                continue
            for expr in exprs:
                why = _df.unordered_expr(
                    expr, index=p.index, mod=mod, local_env=env,
                    summaries=p.unordered,
                )
                if why is None:
                    continue
                at = anchor or expr
                key = (at.lineno, at.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                if anchor is not None:
                    message = (
                        f"unordered value ({why}) feeds {name}(): hash "
                        "order varies per process, so dispatch/spawn "
                        "order breaks the any---jobs bit-identity; sort "
                        "at the source or wrap this argument in sorted()"
                    )
                else:
                    message = (
                        f"iteration over an unordered value ({why}) in "
                        "code that dispatches work: the resulting order "
                        "reaches parallel_map/spawn, breaking the "
                        "any---jobs bit-identity; wrap the source in "
                        "sorted()"
                    )
                yield _finding(mod, at, "DRA503", message)


# ---------------------------------------------------------------------------
# DRA504 -- trace/metric name flow
# ---------------------------------------------------------------------------

_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})

#: sink kind -> (what the argument names, the registry it must be in)
_NAME_SINKS = {
    "trace": ("trace-event kind", "repro.obs.schema.TRACE_EVENT_KINDS"),
    "metric": ("metric name", "repro.obs.schema.METRIC_NAMES/METRIC_FAMILIES"),
}


def _sink_kind(node: ast.AST) -> str | None:
    """``trace`` / ``metric`` when ``node`` is an emit/metric call."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    if node.func.attr == "emit":
        return "trace"
    if node.func.attr in _METRIC_METHODS:
        return "metric"
    return None


def _name_problem(
    kind: str,
    arg: ast.expr,
    index: ProjectIndex,
    mod: ModuleInfo,
    env: dict[str, object],
) -> str | None:
    """Why ``arg`` is not a registered ``kind`` name, or None when it is."""
    value = _df.fold_const(arg, index=index, mod=mod, local_env=env)
    if isinstance(value, str):
        registered = (
            _schema.is_trace_kind(value)
            if kind == "trace"
            else _schema.is_metric_name(value)
        )
        if registered:
            return None
        return (
            f"{value!r} is not registered in {_NAME_SINKS[kind][1]}; add "
            "it there and to the docs/observability.md catalogue"
        )
    if kind == "metric" and isinstance(arg, ast.JoinedStr):
        # not foldable, so it has a part: the first must be a literal
        head = arg.values[0]
        if (
            isinstance(head, ast.Constant)
            and _schema.metric_family(head.value) is not None
        ):
            return None
        return (
            "a dynamic name must open with a literal prefix registered in "
            "repro.obs.schema.METRIC_FAMILIES"
        )
    return (
        "the argument does not constant-fold to a string, so the schema "
        "registry cannot be checked statically; pass a registered literal"
    )


@flow_rule(
    "DRA504",
    "flow.literal-flow",
    "emit kinds / metric names constant-fold to schema registrations",
)
def check_literal_flow(p: ProjectAnalysis) -> Iterator[Finding]:
    # (wrapper qname, parameter index, sink kind) already judged at its
    # call sites: a wrapper that passes one parameter to several sinks
    # still yields one finding per caller
    judged: set[tuple[str, int, str]] = set()
    for mod in p.library_modules():
        if mod.ctx.subpackage == "obs":
            continue  # the registry/merge machinery itself
        envs: dict[str | None, dict[str, object]] = {}
        for node in mod.ctx.nodes:
            kind = _sink_kind(node)
            if kind is None:
                continue
            if not node.args:
                if kind == "trace":
                    yield _finding(
                        mod, node, "DRA504",
                        "emit() without a positional kind; pass the "
                        "registered event kind as the first argument",
                    )
                continue
            arg = node.args[0]
            fi = mod.owner(node)
            # a wrapper parameter: judge every call site instead
            if fi is not None and isinstance(arg, ast.Name) and arg.id in fi.params:
                wrapped = (fi.qname, fi.params.index(arg.id), kind)
                if wrapped not in judged:
                    judged.add(wrapped)
                    yield from _check_wrapper_sites(p, fi, wrapped[1], kind)
                continue
            scope = fi.qname if fi else None
            if scope not in envs:
                envs[scope] = _df.local_const_env(fi.node) if fi else {}
            problem = _name_problem(kind, arg, p.index, mod, envs[scope])
            if problem is not None:
                yield _finding(
                    mod, node, "DRA504", f"{_NAME_SINKS[kind][0]}: {problem}"
                )


def _check_wrapper_sites(
    p: ProjectAnalysis,
    wrapper: FunctionInfo,
    param_idx: int,
    kind: str,
) -> Iterator[Finding]:
    for site in p.graph.sites_calling(wrapper.qname):
        if site.kind != "call":
            continue
        caller = p.index.functions.get(site.caller)
        if caller is None:
            continue
        cmod = p.index.module_of(caller)
        offset = 1 if wrapper.class_qname is not None else 0
        args = site.node.args
        idx = param_idx - offset
        arg: ast.expr | None = None
        if 0 <= idx < len(args):
            arg = args[idx]
        else:
            pname = wrapper.params[param_idx]
            for kw in site.node.keywords:
                if kw.arg == pname:
                    arg = kw.value
        if arg is None:
            continue
        cenv = _df.local_const_env(caller.node)
        problem = _name_problem(kind, arg, p.index, cmod, cenv)
        if problem is not None:
            yield _finding(
                cmod, site.node, "DRA504",
                f"{_NAME_SINKS[kind][0]} passed to wrapper "
                f"{wrapper.qname}(): {problem}",
            )


# ---------------------------------------------------------------------------
# DRA505 -- hot-path purity
# ---------------------------------------------------------------------------

#: os functions touching the filesystem or spawning processes.
_OS_IMPURE = frozenset(
    {
        "remove", "unlink", "rename", "replace", "makedirs", "mkdir",
        "rmdir", "system", "popen", "spawnl", "listdir", "scandir",
    }
)

#: Modules whose any use inside a scheduled frame is impure.
_IMPURE_MODULES = frozenset(
    {"socket", "subprocess", "shutil", "urllib", "requests", "http"}
)

#: Modules exempt from DRA505: the tracer/metrics hooks are the
#: sanctioned observability channel out of the hot path, and the timing
#: module is the sanctioned stopwatch.
_PURITY_EXEMPT = (("obs",), ("runtime", "timing.py"))


def _purity_violation(node: ast.AST) -> str | None:
    """Why ``node`` is an impure operation, or None."""
    if isinstance(node, ast.Attribute):
        dotted = _dotted(node)
        if dotted is None or len(dotted) < 2:
            return None
        tail = dotted[-2:]
        if tail in _EPOCH_READS:
            return f"wall-clock read {'.'.join(tail)}"
        if tail in _MONOTONIC_READS:
            return f"monotonic clock read {'.'.join(tail)}"
        if dotted[0] in _IMPURE_MODULES:
            return f"{dotted[0]} call {'.'.join(dotted)}"
        if dotted[0] == "os" and dotted[-1] in _OS_IMPURE:
            return f"filesystem/process call {'.'.join(dotted)}"
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "open":
            return "filesystem call open()"
    return None


@flow_rule(
    "DRA505",
    "flow.hotpath-purity",
    "no wall-clock/filesystem/network calls in engine-scheduled frames",
)
def check_hotpath_purity(p: ProjectAnalysis) -> Iterator[Finding]:
    for qname in sorted(p.sched_reach):
        fi = p.index.functions[qname]
        mod = p.index.module_of(fi)
        ctx = mod.ctx
        if ctx.is_test_code or ctx.is_example:
            continue
        if ctx.subpackage == "obs" or ctx.endswith("runtime", "timing.py"):
            continue
        seed = p.sched_reach[qname]
        for node in ast.walk(fi.node):
            why = _purity_violation(node)
            if why is None:
                continue
            yield _finding(
                mod, node, "DRA505",
                f"{why} inside {fi.qname}, reachable from engine-scheduled "
                f"frame {seed}: hot-path handlers fire under Engine.run "
                "and must be pure functions of sim state (results depend "
                "on seeds only; host I/O belongs in the driver layers)",
            )
