#!/usr/bin/env python3
"""Markdown link-and-anchor checker.

Scans every ``*.md`` at the repo root plus everything under ``docs/``
and fails on:

  * relative links to files that do not exist,
  * ``#anchor`` fragments that match no heading in the target file
    (GitHub's slug rules: lowercase, punctuation dropped, spaces to
    hyphens, duplicate slugs suffixed ``-1``, ``-2``, ...),
  * reference-style links ``[text][ref]`` with no ``[ref]:`` definition.

External links (http/https/mailto) are not fetched — this guards the
repo's internal cross-references, which are the ones that silently rot
when files move. Text inside fenced code blocks and inline code spans
is not a link in Markdown, so it is ignored.

Usage:
    check_md_links.py <repo_root>
"""

import re
import sys
from pathlib import Path

INLINE_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REF_USE = re.compile(r"\[[^\]]+\]\[([^\]]+)\]")
REF_DEF = re.compile(r"^\[([^\]]+)\]:\s*(\S+)", re.MULTILINE)
HEADING = re.compile(r"^(#{1,6})\s+(.+?)\s*#*\s*$")
FENCE = re.compile(r"^(```|~~~)")
CODE_SPAN = re.compile(r"(`+)(?:(?!\1).)+?\1")


def strip_fences(text):
    """Drop fenced code blocks, preserving line count."""
    out = []
    fence = None
    for line in text.splitlines():
        m = FENCE.match(line.strip())
        if m:
            if fence is None:
                fence = m.group(1)
            elif m.group(1) == fence:
                fence = None
            out.append("")
            continue
        out.append("" if fence else line)
    return "\n".join(out)


def github_slug(heading):
    """GitHub's anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)     # unwrap code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors_of(path, cache={}):
    if path not in cache:
        slugs = set()
        seen = {}
        try:
            text = strip_fences(path.read_text(encoding="utf-8"))
        except OSError:
            cache[path] = slugs
            return slugs
        for line in text.splitlines():
            m = HEADING.match(line)
            if not m:
                continue
            slug = github_slug(m.group(2))
            n = seen.get(slug, 0)
            seen[slug] = n + 1
            slugs.add(slug if n == 0 else f"{slug}-{n}")
        # Explicit HTML anchors also resolve.
        for m in re.finditer(r"<a\s+(?:name|id)=\"([^\"]+)\"",
                             path.read_text(encoding="utf-8")):
            slugs.add(m.group(1))
        cache[path] = slugs
    return cache[path]


def markdown_files(root):
    files = sorted(root.glob("*.md"))
    docs = root / "docs"
    if docs.is_dir():
        files += sorted(docs.rglob("*.md"))
    return files


def check_file(root, path):
    errors = []
    raw = path.read_text(encoding="utf-8")
    text = strip_fences(raw)

    defs = {m.group(1).lower(): m.group(2)
            for m in REF_DEF.finditer(text)}
    targets = []  # (line, target)
    for i, line in enumerate(text.splitlines(), 1):
        line = CODE_SPAN.sub("", line)
        for m in INLINE_LINK.finditer(line):
            targets.append((i, m.group(1)))
        for m in REF_USE.finditer(line):
            ref = m.group(1).lower()
            if ref in defs:
                targets.append((i, defs[ref]))
            else:
                errors.append((i, f"unresolved reference [{m.group(1)}]"))

    for line, target in targets:
        if re.match(r"^[a-z][a-z0-9+.-]*:", target):  # URL scheme
            continue
        frag = None
        if "#" in target:
            target, frag = target.split("#", 1)
        dest = path if not target else (path.parent / target).resolve()
        if target and not dest.exists():
            errors.append((line, f"dead link: {target}"))
            continue
        if frag is not None and dest.suffix == ".md":
            if frag not in anchors_of(dest):
                errors.append(
                    (line,
                     f"dead anchor: {target or path.name}#{frag}"))
    return [(path.relative_to(root), line, msg) for line, msg in errors]


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    root = Path(argv[1]).resolve()
    errors = []
    files = markdown_files(root)
    for path in files:
        errors.extend(check_file(root, path))
    for path, line, msg in errors:
        print(f"{path}:{line}: {msg}")
    if errors:
        print(f"check_md_links: {len(errors)} broken link(s) across "
              f"{len(files)} file(s)")
        return 1
    print(f"check_md_links: {len(files)} file(s) clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
