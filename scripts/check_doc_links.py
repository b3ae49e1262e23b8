#!/usr/bin/env python3
"""Validate relative markdown links and runnable names across the docs.

Scans every tracked ``*.md`` file (repo root, docs/, results/, crates/)
for inline markdown links and checks that relative targets exist on disk.
External links (http/https/mailto) and pure in-page anchors are skipped;
a ``path#anchor`` target is checked for the path only.

Every ``dmbfs-bench reproduce NAME`` (``-- reproduce NAME`` after
``cargo run``) / ``--example NAME`` in those files and in
``.github/workflows/*.yml`` must name an experiment module
``crates/bench/src/experiments/NAME.rs`` or ``examples/NAME.rs``, so a
deleted experiment or example leaves no command behind that no longer
runs. ``reproduce all`` and placeholders (``<ID>``, ``NAME``) are not
names and are skipped.

``results/README.md`` must name every experiment module
(``crates/bench/src/experiments/NAME.rs``) and every ``results/*.json``
file, so an undocumented experiment or an orphan result fails as well.

Usage: python3 scripts/check_doc_links.py [repo-root]
Exits non-zero listing every broken link and every unnamed file.
"""

import os
import re
import sys

# Inline markdown links: [text](target). Ignores fenced code by stripping
# backtick spans first, which is enough for this repository's docs.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_SPAN = re.compile(r"`[^`]*`")
FENCE = re.compile(r"^(```|~~~)")
# Code spans and fences included: that is where commands live.
# A command is `dmbfs-bench reproduce NAME` (or `-- reproduce NAME` after
# `cargo run`) or `--example NAME`: kind -> (pattern, file it must name).
RUNNABLES = {
    "reproduce": (
        re.compile(r"(?:dmbfs-bench|--) reproduce ([a-z0-9_]+)\b"),
        "crates/bench/src/experiments/{}.rs",
    ),
    "--example": (re.compile(r"--example[ =]([a-z0-9_]+)\b"), "examples/{}.rs"),
}

SCAN_DIRS = [".", "docs", "results", "scripts"]
RESULTS_README = "results/README.md"
EXPERIMENTS = "crates/bench/src/experiments"
SKIP_DIRS = {"target", "third_party", ".git", "node_modules"}


def md_files(root):
    for base in SCAN_DIRS:
        top = os.path.join(root, base)
        if not os.path.isdir(top):
            continue
        if base == ".":
            for name in sorted(os.listdir(top)):
                if name.endswith(".md"):
                    yield os.path.join(top, name)
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(".md"):
                    yield os.path.join(dirpath, name)
    crates = os.path.join(root, "crates")
    if os.path.isdir(crates):
        for dirpath, dirnames, filenames in os.walk(crates):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in sorted(filenames):
                if name.endswith(".md"):
                    yield os.path.join(dirpath, name)


def links_in(path):
    in_fence = False
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if FENCE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in LINK.finditer(CODE_SPAN.sub("", line)):
                yield lineno, match.group(1)


def workflow_files(root):
    workflows = os.path.join(root, ".github", "workflows")
    if os.path.isdir(workflows):
        for name in sorted(os.listdir(workflows)):
            if name.endswith(".yml"):
                yield os.path.join(workflows, name)


def runnables_in(path):
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for kind, (pattern, _) in RUNNABLES.items():
                for match in pattern.finditer(line):
                    if match.group(1) != "all":
                        yield lineno, kind, match.group(1)


def unnamed_outputs(root):
    """Experiment modules and result files that results/README.md never names.

    An experiment counts as named when its module stem appears as a word
    (its own ``NAME.json`` counts); a result file when its full file name
    appears.
    """
    with open(os.path.join(root, RESULTS_README), encoding="utf-8") as f:
        text = f.read()
    words = set(re.findall(r"[a-z0-9_]+", text))
    files = set(re.findall(r"[a-z0-9_]+\.json", text))
    for name in sorted(os.listdir(os.path.join(root, EXPERIMENTS))):
        stem, ext = os.path.splitext(name)
        if ext == ".rs" and stem != "mod" and stem not in words:
            yield f"{RESULTS_README}: experiment {EXPERIMENTS}/{name} is not named"
    for name in sorted(os.listdir(os.path.join(root, "results"))):
        if name.endswith(".json") and name not in files:
            yield f"{RESULTS_README}: result file results/{name} is not named"


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    broken = list(unnamed_outputs(root))
    checked = 0
    named = 0
    for path in [*md_files(root), *workflow_files(root)]:
        for lineno, kind, name in runnables_in(path):
            named += 1
            target = RUNNABLES[kind][1].format(name)
            if not os.path.exists(os.path.join(root, target)):
                broken.append(
                    f"{os.path.relpath(path, root)}:{lineno}: {kind} {name} "
                    f"has no {target}"
                )
    for path in md_files(root):
        for lineno, target in links_in(path):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = os.path.normpath(os.path.join(os.path.dirname(path), rel))
            checked += 1
            if not os.path.exists(resolved):
                broken.append(
                    f"{os.path.relpath(path, root)}:{lineno}: broken link -> {target}"
                )
    if broken:
        print("\n".join(broken))
        print(f"\n{len(broken)} broken out of {checked} links and {named} names checked")
        return 1
    print(
        f"all {checked} relative markdown links and {named} reproduce/--example "
        "names resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
