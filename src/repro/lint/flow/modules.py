"""Module resolution and the project-wide symbol table.

The interprocedural rules (DRA5xx) need to answer "what does this name
mean?" across file boundaries: which function does
``from repro.chaos.campaign import run_schedule`` bind, which class does
``Router(...)`` construct, which module-level constant does ``SEED``
read.  This module builds that table in two passes over the already
parsed :class:`~repro.lint.context.FileContext` set:

1. **collect** -- per module, record top-level functions, classes (with
   their methods and ``self.<attr> = ClassName(...)`` attribute types),
   constants, mutable module-level containers, and the raw import
   aliases;
2. **link** -- resolve every alias against the collected modules, so
   lookups afterwards are plain dict walks.

Everything is deterministic: modules are indexed in sorted-path order
and every public accessor returns data in that insertion order.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property

from repro.lint.context import FileContext
from repro.lint.rules import _dotted

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "module_name",
]

#: Path roots that anchor a dotted module name (first match wins).
_PACKAGE_ROOTS = ("repro", "tests", "benchmarks", "examples")

#: Calls producing a mutable container at module scope.
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "deque", "OrderedDict", "Counter"}
)

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name(parts: tuple[str, ...]) -> str:
    """Dotted module name for a file's path components.

    ``('src', 'repro', 'sim', 'engine.py')`` -> ``"repro.sim.engine"``.
    The name is anchored at the first component matching a known package
    root so scratch trees (pytest ``tmp_path`` fixtures) resolve exactly
    like the real layout; files outside any root use their full path.
    """
    ps = list(parts)
    if ps[-1].endswith(".py"):
        ps[-1] = ps[-1][: -len(".py")]
    for i, part in enumerate(ps):
        if part in _PACKAGE_ROOTS:
            ps = ps[i:]
            break
    if ps and ps[-1] == "__init__":
        ps = ps[:-1]
    return ".".join(ps) or parts[-1]


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qname: str  #: fully qualified, e.g. ``repro.sim.engine.Engine.run``
    module: str
    name: str  #: local name (``run``)
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str
    lineno: int
    class_qname: str | None = None  #: owning class, for methods

    @property
    def params(self) -> list[str]:
        """Positional parameter names (``self`` included for methods)."""
        a = self.node.args
        return [p.arg for p in a.posonlyargs + a.args]


@dataclass
class ClassInfo:
    """One class definition with its methods and inferred attribute types."""

    qname: str
    module: str
    name: str
    node: ast.ClassDef
    path: str
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: attribute name -> class qname, from ``self.x = ClassName(...)``
    attr_types: dict[str, str] = field(default_factory=dict)
    #: base-class qnames resolved within the project (pass 2)
    bases: list[str] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """Everything collected about one module."""

    name: str
    path: str
    ctx: FileContext
    #: local alias -> fully-qualified dotted target
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level simple constants (str/int/float/bool/None)
    constants: dict[str, object] = field(default_factory=dict)
    #: module-level mutable containers: name -> (lineno, kind)
    mutables: dict[str, tuple[int, str]] = field(default_factory=dict)
    #: every module-level assignment target (for ``global X`` rebinds)
    globals_defined: set[str] = field(default_factory=set)

    def all_functions(self) -> list[FunctionInfo]:
        """Top-level functions, then each class's methods.

        Nested defs are not listed: they belong to the body of the
        function that encloses them.
        """
        out = list(self.functions.values())
        for ci in self.classes.values():
            out.extend(ci.methods.values())
        return out

    @cached_property
    def _by_node(self) -> dict[ast.AST, FunctionInfo]:
        return {fi.node: fi for fi in self.all_functions()}

    def owner(self, node: ast.AST) -> FunctionInfo | None:
        """The listed function whose body holds ``node``, else None.

        None means module-level code: statements, class bodies, and defs
        that :meth:`all_functions` does not list (under a module-level
        ``if``, or methods of a nested class).
        """
        parents = self.ctx.parents
        cur = parents.get(node)
        while cur is not None and cur not in self._by_node:
            cur = parents.get(cur)
        return self._by_node.get(cur)


def _mutable_kind(value: ast.expr) -> str | None:
    """Why ``value`` is a mutable container literal/factory, or None."""
    if isinstance(value, ast.Dict | ast.DictComp):
        return "dict"
    if isinstance(value, ast.List | ast.ListComp):
        return "list"
    if isinstance(value, ast.Set | ast.SetComp):
        return "set"
    if isinstance(value, ast.Call):
        fn = value.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None
        )
        if name in _MUTABLE_FACTORIES:
            return name
    return None


class ProjectIndex:
    """The linked whole-project symbol table."""

    def __init__(self, contexts: list[FileContext]) -> None:
        #: module name -> info, in sorted-ctx-path insertion order
        self.modules: dict[str, ModuleInfo] = {}
        #: function qname -> info (methods included)
        self.functions: dict[str, FunctionInfo] = {}
        #: class qname -> info
        self.classes: dict[str, ClassInfo] = {}
        for ctx in sorted(contexts, key=lambda c: c.path):
            self._collect(ctx)
        for mod in self.modules.values():
            self._link(mod)

    # -- pass 1: collect -----------------------------------------------------

    def _collect(self, ctx: FileContext) -> None:
        mod = ModuleInfo(name=module_name(ctx.parts), path=ctx.path, ctx=ctx)
        self.modules[mod.name] = mod
        for node in ctx.tree.body:
            if isinstance(node, _FUNC_NODES):
                self._add_function(mod, node, class_info=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(mod, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{base}.{alias.name}"
            elif isinstance(node, ast.Assign | ast.AnnAssign):
                self._add_module_assign(mod, node)

    @staticmethod
    def _import_base(mod: ModuleInfo, node: ast.ImportFrom) -> str | None:
        """The absolute dotted package a ``from X import ...`` names."""
        if node.level == 0:
            return node.module
        # relative import: resolve against this module's package
        pkg_parts = mod.name.split(".")[: -node.level]
        if not pkg_parts:
            return None
        if node.module:
            pkg_parts.append(node.module)
        return ".".join(pkg_parts)

    def _add_function(
        self,
        mod: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_info: ClassInfo | None,
    ) -> None:
        if class_info is None:
            qname = f"{mod.name}.{node.name}"
        else:
            qname = f"{class_info.qname}.{node.name}"
        fi = FunctionInfo(
            qname=qname,
            module=mod.name,
            name=node.name,
            node=node,
            path=mod.path,
            lineno=node.lineno,
            class_qname=class_info.qname if class_info else None,
        )
        self.functions[qname] = fi
        if class_info is None:
            mod.functions[node.name] = fi
        else:
            class_info.methods[node.name] = fi

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        ci = ClassInfo(
            qname=f"{mod.name}.{node.name}",
            module=mod.name,
            name=node.name,
            node=node,
            path=mod.path,
        )
        self.classes[ci.qname] = ci
        mod.classes[node.name] = ci
        for stmt in node.body:
            if isinstance(stmt, _FUNC_NODES):
                self._add_function(mod, stmt, class_info=ci)
        # dataclass-style annotated fields typed by a project class are
        # picked up in pass 2 (the annotation name needs import linking)
        for method in ci.methods.values():
            for sub in ast.walk(method.node):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        # type name resolved in pass 2; store the raw call
                        ci.attr_types.setdefault(
                            target.attr, _ctor_name(sub.value) or ""
                        )

    def _add_module_assign(
        self, mod: ModuleInfo, node: ast.Assign | ast.AnnAssign
    ) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        value = node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            mod.globals_defined.add(target.id)
            if value is None:
                continue
            if isinstance(value, ast.Constant):
                mod.constants[target.id] = value.value
            kind = _mutable_kind(value)
            if kind is not None:
                mod.mutables[target.id] = (node.lineno, kind)

    # -- pass 2: link --------------------------------------------------------

    def _link(self, mod: ModuleInfo) -> None:
        for ci in mod.classes.values():
            ci.bases = [
                base.qname
                for expr in ci.node.bases
                if (base := self.resolve_class(mod, expr)) is not None
            ]
            # raw constructor names recorded in pass 1 -> class qnames
            linked: dict[str, str] = {}
            for attr, raw in ci.attr_types.items():
                if not raw:
                    continue
                target = self._resolve_dotted_class(mod, tuple(raw.split(".")))
                if target is not None:
                    linked[attr] = target.qname
            ci.attr_types = linked

    # -- lookups -------------------------------------------------------------

    def resolve(self, mod: ModuleInfo, dotted: tuple[str, ...]):
        """What a dotted name means inside ``mod``.

        Returns a :class:`FunctionInfo`, :class:`ClassInfo`,
        :class:`ModuleInfo`, ``("mutable", module, name)``,
        ``("const", value)`` or ``None`` (external / unknown).
        """
        if not dotted:
            return None
        head, rest = dotted[0], dotted[1:]
        # local symbols shadow imports
        if head in mod.functions and not rest:
            return mod.functions[head]
        if head in mod.classes:
            return self._walk_class(mod.classes[head], rest)
        if head in mod.mutables and not rest:
            return ("mutable", mod, head)
        if head in mod.constants and not rest:
            return ("const", mod.constants[head])
        if head in mod.imports:
            return self._resolve_absolute(
                tuple(mod.imports[head].split(".")) + rest
            )
        return None

    def _resolve_absolute(self, dotted: tuple[str, ...]):
        """Resolve an absolute dotted path: longest module prefix wins."""
        for cut in range(len(dotted), 0, -1):
            mod = self.modules.get(".".join(dotted[:cut]))
            if mod is None:
                continue
            rest = dotted[cut:]
            if not rest:
                return mod
            return self.resolve(mod, rest)
        return None

    def _walk_class(self, ci: ClassInfo, rest: tuple[str, ...]):
        if not rest:
            return ci
        if len(rest) == 1:
            method = self.lookup_method(ci, rest[0])
            if method is not None:
                return method
        return None

    def resolve_class(self, mod: ModuleInfo, expr: ast.expr) -> ClassInfo | None:
        """The project class ``expr`` (a Name/Attribute chain) names."""
        dotted = _dotted(expr)
        if dotted is None:
            return None
        return self._resolve_dotted_class(mod, dotted)

    def _resolve_dotted_class(
        self, mod: ModuleInfo, dotted: tuple[str, ...]
    ) -> ClassInfo | None:
        target = self.resolve(mod, dotted)
        return target if isinstance(target, ClassInfo) else None

    def lookup_method(self, ci: ClassInfo, name: str) -> FunctionInfo | None:
        """Method resolution along the (left-to-right) project base chain."""
        seen: set[str] = set()
        stack = [ci]
        while stack:
            cur = stack.pop(0)
            if cur.qname in seen:
                continue
            seen.add(cur.qname)
            if name in cur.methods:
                return cur.methods[name]
            stack.extend(
                self.classes[b] for b in cur.bases if b in self.classes
            )
        return None

    def module_of(self, fi: FunctionInfo) -> ModuleInfo:
        return self.modules[fi.module]


def _ctor_name(value: ast.expr) -> str | None:
    """Dotted constructor name of ``x = ClassName(...)``, else None."""
    if isinstance(value, ast.Call):
        dotted = _dotted(value.func)
        if dotted is not None:
            return ".".join(dotted)
    return None

