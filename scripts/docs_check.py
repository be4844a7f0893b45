"""CI docs check: links in the docs resolve; CLI, script and module references are real.

The checked docs are ``README.md``, ``docs/*.md`` and the verify skill
(``.claude/skills/verify/SKILL.md``).  The classes of rot this catches:

* **Dead intra-repo links** — every markdown link that points inside the
  repo must resolve to an existing file, and a ``#fragment`` on a markdown
  target must match a heading in that file (GitHub-style slugs).  External
  ``http(s)``/``mailto`` links are not fetched.
* **Phantom CLI commands** — every ``repro <subcommand>`` (and nested
  ``repro <group> <subcommand>``) named in the docs must exist in the real
  parser built by ``repro.cli.build_parser()``.  Docs that mention a
  renamed or removed command fail the job.
* **Phantom CLI flags** — every ``--flag`` after such a reference, on the
  same line and before the next one, must be an option of that command's
  parser (for a group named without a subcommand, of any of its
  subcommands).  Docs that advertise a removed option fail the job.
* **Phantom scripts** — every repo ``.py`` file that a command runs
  (``python …``, ``python3 …`` or ``pytest …``, with or without
  ``PYTHONPATH=src``) must exist, relative to the repo root.  A path named
  in prose, without such a command before it, is not checked, so the docs
  can still say which deleted script made a snapshot.
* **Phantom module names** — every backticked dotted ``repro.…`` name
  (``repro.lp.rowgen.choose_path``, also written as a call) must resolve:
  its longest importable module prefix is imported and the rest looked up
  with ``getattr``.  ``docs/benchmarks.md`` is not checked: it is a dated
  history and may name deleted code.

Run from the repo root::

    PYTHONPATH=src python scripts/docs_check.py
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# ``repro <word>`` / ``python -m repro <word> [<word>]`` — words may be
# ``|``-joined alternation lists as in usage lines (``daemon run|start``).
# Spaces only (no newlines), and not ``from repro import ...``.
CLI_RE = re.compile(r"(?<!from )\brepro +([a-z][a-z|-]*)(?: +([a-z][a-z|-]*))?")
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
# A command word and the rest of its command: up to a backtick, a shell
# separator or a comment.  Not ``pytest-benchmark`` or ``pure-python``.
COMMAND_RE = re.compile(r"(?<![\w./-])(?:python3?|pytest)(?![\w-])([^`|;&#]*)")
# A relative ``.py`` path among the command's words (``::test`` ids allowed).
SCRIPT_RE = re.compile(r"(?<!\S)([\w.-][\w./-]*\.py)(?:::\S*)?(?!\S)")
# A backticked dotted ``repro.`` name, bare or called (``repro.a.f(x)``).
NAME_RE = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")
# The docs whose module names must resolve (see the module docstring).
NAME_CHECKED_DOCS = (
    "README.md",
    "docs/architecture.md",
    "docs/operations.md",
    ".claude/skills/verify/SKILL.md",
)


def doc_files():
    return (
        [REPO_ROOT / "README.md"]
        + sorted((REPO_ROOT / "docs").glob("*.md"))
        + [REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    )


def github_slug(heading):
    """The anchor GitHub generates for a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)  # drop punctuation, keep -, _
    return slug.replace(" ", "-")


def headings_of(path):
    slugs = set()
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            slugs.add(github_slug(line.lstrip("#")))
    return slugs


def check_links(path, errors):
    for target in LINK_RE.findall(path.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        dest = (path.parent / base).resolve() if base else path
        if not dest.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: dead link -> {target}")
            continue
        if fragment and dest.suffix == ".md":
            if fragment not in headings_of(dest):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: link -> {target} "
                    f"(no heading with slug '#{fragment}' in "
                    f"{dest.relative_to(REPO_ROOT)})"
                )


def parser_commands():
    """Top-level subcommand parsers and their nested subcommand parsers."""
    from repro.cli import build_parser

    def sub_actions(parser):
        for action in parser._subparsers._group_actions if parser._subparsers else []:
            if hasattr(action, "choices"):
                return action.choices
        return {}

    top = sub_actions(build_parser())
    nested = {name: sub_actions(sub) for name, sub in top.items()}
    return top, nested


def allowed_flags(first, second, top, nested):
    """The option strings ``repro <first> [<second>]`` accepts (None if unknown)."""
    parsers = []
    for cmd in first.split("|"):
        if cmd not in top:
            return None
        parsers.append(top[cmd])
        subs = nested[cmd]
        named = [subs[sub] for sub in (second or "").split("|") if sub in subs]
        parsers += named or list(subs.values())
    return {flag for parser in parsers for flag in parser._option_string_actions}


def cli_errors(text, top, nested):
    """``line: message`` for every phantom command or flag in ``text``."""
    errors = []
    for number, line in enumerate(text.splitlines(), start=1):
        matches = list(CLI_RE.finditer(line))
        for match, following in zip(matches, matches[1:] + [None]):
            first, second = match.group(1), match.group(2)
            for cmd in first.split("|"):
                if cmd not in top:
                    errors.append(
                        f"{number}: docs name 'repro {cmd}' but the CLI has no "
                        "such subcommand"
                    )
            # Only check the second word against groups that actually have
            # nested subcommands ("repro batch pairs.txt" has no group).
            grouped = bool(second) and "|" not in first and bool(nested.get(first))
            if grouped:
                for cmd in second.split("|"):
                    if cmd not in nested[first]:
                        errors.append(
                            f"{number}: docs name 'repro {first} {cmd}' but "
                            f"'repro {first}' has no '{cmd}' subcommand"
                        )
            allowed = allowed_flags(first, second, top, nested)
            if allowed is None:
                continue
            command = f"repro {first} {second}" if grouped else f"repro {first}"
            end = following.start() if following is not None else len(line)
            for flag in FLAG_RE.findall(line, match.end(), end):
                if flag not in allowed:
                    errors.append(
                        f"{number}: docs give '{command}' the flag '{flag}', "
                        "which it does not accept"
                    )
    return errors


def script_errors(text):
    """``line: message`` for every command in ``text`` that runs a missing script."""
    errors = []
    for number, line in enumerate(text.splitlines(), start=1):
        for command in COMMAND_RE.finditer(line):
            for script in SCRIPT_RE.findall(command.group(1)):
                if not (REPO_ROOT / script).is_file():
                    errors.append(
                        f"{number}: docs run '{script}', which does not exist"
                    )
    return errors


def resolves(name):
    """Whether ``name`` is an importable module or an attribute below one."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:end]))
        except ImportError:
            continue
        for attribute in parts[end:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def name_errors(text):
    """``line: message`` for every backticked ``repro.…`` name that does not resolve."""
    errors = []
    for number, line in enumerate(text.splitlines(), start=1):
        for name in NAME_RE.findall(line):
            if not resolves(name):
                errors.append(f"{number}: docs name '{name}', which does not resolve")
    return errors


def check_references(path, top, nested, errors):
    text = path.read_text()
    found = cli_errors(text, top, nested) + script_errors(text)
    relative = path.relative_to(REPO_ROOT)
    if relative.as_posix() in NAME_CHECKED_DOCS:
        found += name_errors(text)
    for error in found:
        errors.append(f"{relative}:{error}")


def main():
    errors = []
    top, nested = parser_commands()
    files = doc_files()
    for path in files:
        check_links(path, errors)
        check_references(path, top, nested, errors)
    for error in errors:
        print(f"error: {error}")
    print(
        f"docs-check: {len(files)} files, {len(errors)} errors "
        f"({', '.join(p.name for p in files)})"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
