"""CI docs check: links in the docs tree resolve, CLI references are real.

Two classes of rot this catches:

* **Dead intra-repo links** — every markdown link in ``docs/`` and
  ``README.md`` that points inside the repo must resolve to an existing
  file, and a ``#fragment`` on a markdown target must match a heading in
  that file (GitHub-style slugs).  External ``http(s)``/``mailto`` links
  are not fetched.
* **Phantom CLI commands** — every ``repro <subcommand>`` (and nested
  ``repro <group> <subcommand>``) named in the docs must exist in the real
  parser built by ``repro.cli.build_parser()``.  Docs that mention a
  renamed or removed command fail the job.
* **Phantom CLI flags** — every ``--flag`` after such a reference, on the
  same line and before the next one, must be an option of that command's
  parser (for a group named without a subcommand, of any of its
  subcommands).  Docs that advertise a removed option fail the job.

Run from the repo root::

    PYTHONPATH=src python scripts/docs_check.py
"""

from __future__ import annotations

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


def doc_files():
    return [REPO_ROOT / "README.md"] + sorted(
        (REPO_ROOT / "docs").glob("*.md")
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


def check_cli_references(path, top, nested, errors):
    for error in cli_errors(path.read_text(), top, nested):
        errors.append(f"{path.relative_to(REPO_ROOT)}:{error}")


def main():
    errors = []
    top, nested = parser_commands()
    files = doc_files()
    for path in files:
        check_links(path, errors)
        check_cli_references(path, top, nested, errors)
    for error in errors:
        print(f"error: {error}")
    print(
        f"docs-check: {len(files)} files, {len(errors)} errors "
        f"({', '.join(p.name for p in files)})"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
