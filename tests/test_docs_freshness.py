"""docs/cli.md must match the full parser surface (the CI freshness gate).

Introspects :func:`repro.cli.build_parser` -- the single source of truth
for the CLI -- and fails when a subcommand or flag exists that
``docs/cli.md`` never mentions, or when the doc mentions a flag the
parser does not have.  New CLI surface therefore cannot merge without
documentation, and removed surface cannot linger in it; see
docs/cli.md's header note.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

DOCS = Path(__file__).resolve().parent.parent / "docs" / "cli.md"


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return dict(action.choices)
    raise AssertionError("parser has no subcommands")


@pytest.fixture(scope="module")
def cli_doc() -> str:
    return DOCS.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def commands() -> dict[str, argparse.ArgumentParser]:
    return _subparsers(build_parser())


def test_every_subcommand_has_a_runnable_example(cli_doc, commands):
    missing = [
        name for name in commands if f"python -m repro {name}" not in cli_doc
    ]
    assert not missing, (
        f"docs/cli.md has no 'python -m repro <cmd>' example for: "
        f"{', '.join(sorted(missing))}"
    )


def test_every_flag_is_mentioned(cli_doc, commands):
    missing = []
    for name, sub in sorted(commands.items()):
        for action in sub._actions:
            for opt in action.option_strings:
                if opt in ("-h", "--help"):
                    continue
                if opt not in cli_doc:
                    missing.append(f"{name} {opt}")
    assert not missing, (
        f"docs/cli.md never mentions: {', '.join(missing)}"
    )


def test_every_documented_flag_exists(cli_doc, commands):
    parser = build_parser()
    known = {
        opt
        for p in (parser, *commands.values())
        for action in p._actions
        for opt in action.option_strings
    }
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", cli_doc))
    stale = sorted(documented - known)
    assert not stale, f"docs/cli.md mentions flags the parser lacks: {stale}"


def test_every_positional_is_mentioned(cli_doc, commands):
    missing = []
    for name, sub in sorted(commands.items()):
        for action in sub._actions:
            if action.option_strings or isinstance(
                action, argparse._SubParsersAction
            ):
                continue
            if action.dest.upper() not in cli_doc and action.dest not in cli_doc:
                missing.append(f"{name} {action.dest}")
    assert not missing, f"docs/cli.md never mentions positionals: {missing}"


def test_every_flag_has_help_text(commands):
    # DRA401 enforces this at the AST layer; this is the runtime
    # cross-check over the assembled parser, catching dynamic surface.
    missing = [
        f"{name} {action.option_strings or action.dest}"
        for name, sub in sorted(commands.items())
        for action in sub._actions
        if not action.help
    ]
    assert not missing, f"parser actions without help: {missing}"
