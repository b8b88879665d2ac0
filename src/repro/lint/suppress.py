"""Inline suppression syntax: ``# dra: noqa[CODE,...] reason=...``.

A finding may be silenced only line-by-line, only by naming the exact
rule codes being waived, and only with a written reason::

    assert abs(total - 2.0) < 0.05  # dra: noqa[DRA301] reason=modeling bound, not a float tolerance

A suppression comment that names no code, names a code no rule owns,
or carries no ``reason=<text>``, is itself a finding (``DRA001``) and
silences nothing -- the policy is that every waiver is auditable, so
the syntax cannot be satisfied by an empty gesture, and a waiver cannot
outlive the rule it names.  ``DRA001`` findings are never suppressible.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

from repro.lint.findings import Finding

__all__ = ["Suppression", "scan_suppressions", "SUPPRESSION_CODE"]

#: Rule code of a malformed suppression comment.
SUPPRESSION_CODE = "DRA001"

#: Anything that looks like an attempted dra-noqa comment.
_ATTEMPT = re.compile(r"#\s*dra:\s*noqa\b", re.IGNORECASE)

#: The well-formed shape: codes in brackets, then a non-empty reason.
_WELL_FORMED = re.compile(
    r"#\s*dra:\s*noqa\[(?P<codes>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]"
    r"\s+reason=(?P<reason>\S.*)$"
)


@dataclass(frozen=True)
class Suppression:
    """A valid waiver: these codes are silenced on this line."""

    line: int
    codes: frozenset[str]
    reason: str


def _comment_tokens(source: str) -> list[tuple[int, int, str]]:
    """(line, col, text) of every comment token in ``source``.

    Tokenizing (rather than regex-scanning raw lines) keeps mentions of
    the suppression syntax inside strings and docstrings -- like this
    module's own documentation -- from being parsed as suppressions.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []  # the parser reports unreadable files as DRA002 findings
    return [
        (tok.start[0], tok.start[1], tok.string)
        for tok in tokens
        if tok.type == tokenize.COMMENT
    ]


def scan_suppressions(
    path: str, source: str
) -> tuple[dict[int, Suppression], list[Finding]]:
    """Parse every dra-noqa comment in ``source``.

    Returns the per-line suppression table plus one ``DRA001`` finding
    for each malformed attempt (wrong bracket syntax, missing codes, a
    missing/empty ``reason=``, or a code outside the rule catalogue).
    """
    # deferred: the engine and the rule registry import this module
    from repro.lint.engine import known_codes

    known = known_codes()
    table: dict[int, Suppression] = {}
    findings: list[Finding] = []
    for lineno, col, text in _comment_tokens(source):
        attempt = _ATTEMPT.search(text)
        if attempt is None:
            continue
        match = _WELL_FORMED.search(text)
        if match is None:
            problem = (
                "malformed suppression: expected "
                "'# dra: noqa[DRA###,...] reason=<why>' "
                "(a written reason is mandatory)"
            )
        else:
            codes = frozenset(c.strip() for c in match.group("codes").split(","))
            unknown = sorted(codes - known)
            problem = (
                f"suppression names unknown rule code(s) {', '.join(unknown)}; "
                "waive a code from the rule catalogue (docs/static-analysis.md)"
                if unknown
                else None
            )
        if problem is not None:
            findings.append(
                Finding(
                    path=path,
                    line=lineno,
                    col=col + attempt.start() + 1,
                    code=SUPPRESSION_CODE,
                    message=problem,
                )
            )
            continue
        table[lineno] = Suppression(
            line=lineno, codes=codes, reason=match.group("reason").strip()
        )
    return table, findings


def apply_suppressions(
    findings: list[Finding], tables: dict[str, dict[int, Suppression]]
) -> tuple[list[Finding], int]:
    """Drop findings waived by a same-line suppression in their file.

    ``tables`` maps a finding path to that file's per-line waivers.
    Returns the surviving findings and the number silenced.  ``DRA001``
    findings always survive.
    """
    kept: list[Finding] = []
    silenced = 0
    for f in findings:
        sup = tables.get(f.path, {}).get(f.line)
        if (
            sup is not None
            and f.code != SUPPRESSION_CODE
            and f.code in sup.codes
        ):
            silenced += 1
            continue
        kept.append(f)
    return kept, silenced
