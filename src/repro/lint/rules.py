"""The per-file rule catalogue: one registered check per invariant.

Codes are grouped by contract family (``docs/static-analysis.md``):

* ``DRA0xx`` -- linter mechanics (suppression syntax, parse errors);
* ``DRA1xx`` -- determinism (RNG discipline, wall-clock bans, exception
  hygiene);
* ``DRA3xx`` -- testing hygiene (tolerances come from
  :mod:`repro.validate`, not magic epsilons);
* ``DRA4xx`` -- CLI surface (every public flag and subcommand carries a
  help string, so ``--help`` and ``docs/cli.md`` can stay complete).

Sorted dispatch and trace/metric names are whole-project contracts
(``DRA503``/``DRA504`` in :mod:`repro.lint.flow.rules5xx`): a value can
reach its sink through other functions and modules.

Every rule here is a pure function of a
:class:`~repro.lint.context.FileContext` yielding
:class:`~repro.lint.findings.Finding` records, so rules never see
cross-file state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.lint.context import FileContext
from repro.lint.findings import Finding

__all__ = ["Rule", "RULES", "rule", "all_codes"]


@dataclass(frozen=True)
class Rule:
    """A registered invariant check."""

    code: str
    name: str
    summary: str
    check: Callable[[FileContext], Iterable[Finding]]


#: Registry of every rule, keyed by code (insertion order = run order).
RULES: dict[str, Rule] = {}


def rule(code: str, name: str, summary: str):
    """Class/function decorator registering a rule under ``code``."""

    def register(check: Callable[[FileContext], Iterable[Finding]]):
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        RULES[code] = Rule(code=code, name=name, summary=summary, check=check)
        return check

    return register


def all_codes() -> list[str]:
    """Every registered rule code (per-file and interprocedural), sorted."""
    from repro.lint.flow.rules5xx import FLOW_RULES  # avoid import cycle

    return sorted([*RULES, *FLOW_RULES])


# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def _dotted(node: ast.expr) -> tuple[str, ...] | None:
    """The dotted-name path of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        if base is not None:
            return base + (node.attr,)
    return None


def _finding(ctx: FileContext, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
    )


# ---------------------------------------------------------------------------
# DRA1xx -- determinism
# ---------------------------------------------------------------------------

#: Legacy module-level numpy RNG entry points (shared global state).
_NP_LEGACY = frozenset(
    {
        "rand", "randn", "random", "random_sample", "randint", "choice",
        "shuffle", "permutation", "seed", "standard_normal", "uniform",
        "normal", "exponential", "poisson",
    }
)


@rule(
    "DRA101",
    "determinism.rng",
    "all randomness flows from seeded generators (SeedSequence spawns)",
)
def check_rng(ctx: FileContext) -> Iterator[Finding]:
    if ctx.endswith("sim", "rng.py"):  # the sanctioned stream factory
        return
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield _finding(
                        ctx, node, "DRA101",
                        "stdlib 'random' is process-global state; draw from "
                        "a seeded numpy Generator (see repro.sim.rng)",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield _finding(
                    ctx, node, "DRA101",
                    "stdlib 'random' is process-global state; draw from "
                    "a seeded numpy Generator (see repro.sim.rng)",
                )
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if dotted[-1] == "default_rng" and not node.args and not node.keywords:
                yield _finding(
                    ctx, node, "DRA101",
                    "unseeded default_rng() draws OS entropy; pass a seed "
                    "or a SeedSequence spawned from the run's root seed",
                )
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if (
                dotted is not None
                and len(dotted) >= 3
                and dotted[-3] in ("np", "numpy")
                and dotted[-2] == "random"
                and dotted[-1] in _NP_LEGACY
            ):
                yield _finding(
                    ctx, node, "DRA101",
                    f"np.random.{dotted[-1]} uses the legacy global RNG; "
                    "use a seeded np.random.Generator instead",
                )


#: Epoch/wall-clock reads: nondeterministic everywhere.
_EPOCH_READS = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: Monotonic clocks: fine for timing harnesses, banned inside the
#: deterministic core (results must be functions of seeds alone).
_MONOTONIC_READS = frozenset(
    {
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "process_time"),
    }
)


@rule(
    "DRA102",
    "determinism.wallclock",
    "simulation/analysis code never reads the wall clock",
)
def check_wallclock(ctx: FileContext) -> Iterator[Finding]:
    if ctx.endswith("runtime", "timing.py"):  # the sanctioned Stopwatch
        return
    in_core = ctx.in_sim_core
    for node in ctx.nodes:
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None or len(dotted) < 2:
                continue
            tail = dotted[-2:]
            if tail in _EPOCH_READS:
                yield _finding(
                    ctx, node, "DRA102",
                    f"wall-clock read {'.'.join(tail)} is nondeterministic; "
                    "use repro.runtime.Stopwatch for durations or pass "
                    "timestamps in explicitly",
                )
            elif in_core and tail in _MONOTONIC_READS:
                yield _finding(
                    ctx, node, "DRA102",
                    f"{'.'.join(tail)} inside the deterministic core: "
                    "results must depend on seeds only; time in "
                    "repro.runtime (Stopwatch), not here",
                )
        elif in_core and isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("time", "datetime"):
                    yield _finding(
                        ctx, node, "DRA102",
                        f"import {alias.name} inside the deterministic core; "
                        "sim/markov/validate code has no business with "
                        "host clocks",
                    )


@rule(
    "DRA104",
    "exceptions.bare",
    "no bare except: clauses anywhere",
)
def check_bare_except(ctx: FileContext) -> Iterator[Finding]:
    for node in ctx.nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield _finding(
                ctx, node, "DRA104",
                "bare 'except:' also swallows KeyboardInterrupt/SystemExit; "
                "name the exception types this site can actually handle",
            )


def _is_noop_stmt(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Pass):
        return True
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)


@rule(
    "DRA105",
    "exceptions.swallowed",
    "engine/channel code never silently swallows exceptions",
)
def check_swallowed(ctx: FileContext) -> Iterator[Finding]:
    if ctx.is_test_code:  # tests may legitimately assert non-raising paths
        return
    for node in ctx.nodes:
        if (
            isinstance(node, ast.ExceptHandler)
            and node.type is not None
            and node.body
            and all(_is_noop_stmt(s) for s in node.body)
        ):
            yield _finding(
                ctx, node, "DRA105",
                "exception handler discards the error without handling, "
                "logging or re-raising it; a swallowed fault corrupts "
                "dependability numbers silently",
            )


# ---------------------------------------------------------------------------
# DRA3xx -- testing hygiene
# ---------------------------------------------------------------------------


def _is_abs_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "abs"
    return isinstance(func, ast.Attribute) and func.attr in ("abs", "fabs")


def _float_literal_led(node: ast.expr) -> bool:
    """True for a float literal, or an arithmetic expression led by one.

    Integer factors are deliberately exempt: ``abs(x - mu) < 5 * se``
    is a principled z-score bound, while ``< 1e-9`` (or
    ``<= 1e-12 * scale``, or ``<= 1e-12 * scale + 1e-300``) is exactly
    the magic epsilon the contract bans.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _float_literal_led(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Mult, ast.Div, ast.Add, ast.Sub)
    ):
        return _float_literal_led(node.left) or _float_literal_led(node.right)
    return False


@rule(
    "DRA301",
    "tests.tolerance",
    "tests derive tolerances from repro.validate, not magic epsilons",
)
def check_test_tolerances(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.is_test_code:
        return
    for assert_node in ctx.nodes:
        if not isinstance(assert_node, ast.Assert):
            continue
        for node in ast.walk(assert_node.test):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if isinstance(op, (ast.Lt, ast.LtE)):
                    small, tol = lhs, rhs
                elif isinstance(op, (ast.Gt, ast.GtE)):
                    small, tol = rhs, lhs
                else:
                    continue
                if _is_abs_call(small) and _float_literal_led(tol):
                    yield _finding(
                        ctx, node, "DRA301",
                        "raw abs(a - b) < eps comparison; use the "
                        "repro.validate tolerance helpers "
                        "(assert_solvers_agree, distribution_atol, "
                        "FLOAT_EPS, CI containment) so the budget is "
                        "derived, not guessed",
                    )


# ---------------------------------------------------------------------------
# DRA4xx -- CLI surface
# ---------------------------------------------------------------------------

#: argparse registration calls whose result shows up in ``--help``.
_ARGPARSE_ADDERS = frozenset({"add_argument", "add_parser"})


@rule(
    "DRA401",
    "cli.flag-help",
    "every add_argument/add_parser call carries a help string",
)
def check_cli_help(ctx: FileContext) -> Iterator[Finding]:
    """A flag without ``help=`` is invisible in ``--help`` output.

    The docs-freshness check (``tests/test_docs_freshness.py``) keeps
    ``docs/cli.md`` in sync with the parser, but it cannot document
    semantics the parser itself never states; requiring ``help=`` at the
    registration site keeps both surfaces complete.  Only calls whose
    first argument is a string literal are checked -- that is how every
    real flag/subcommand is registered, and it keeps the rule free of
    false positives on unrelated ``add_argument`` methods.
    """
    if ctx.is_test_code:
        return
    for node in ctx.nodes:
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _ARGPARSE_ADDERS
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            continue
        if any(kw.arg == "help" for kw in node.keywords):
            continue
        what = "subcommand" if node.func.attr == "add_parser" else "flag"
        yield _finding(
            ctx, node, "DRA401",
            f"{what} {node.args[0].value!r} has no help= string; "
            "undocumented CLI surface drifts out of --help and "
            "docs/cli.md",
        )
