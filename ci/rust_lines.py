#!/usr/bin/env python3
"""Count the workspace's Rust lines, split into non-test and test lines.

Counts every tracked `*.rs` file outside `repro-bench/` and `vendor/`.
A line is a test line if its file sits under a `tests/` directory, or
if it lies at or after the file's first `#[cfg(test)]` line. Every
physical line counts, blank and comment lines included, so two trees
compare like `wc -l`.

Usage:
    python3 ci/rust_lines.py                  # working tree
    python3 ci/rust_lines.py --rev HEAD~1     # a commit
    python3 ci/rust_lines.py crates/simt      # only paths under a prefix

Prints one row per crate (or top-level directory) and a total.
"""

import argparse
import subprocess
import sys

EXCLUDED = ("repro-bench/", "vendor/")


def git(*args):
    return subprocess.run(
        ["git", *args], check=True, capture_output=True
    ).stdout


def tracked(rev):
    if rev:
        out = git("ls-tree", "-r", "-z", "--name-only", rev)
    else:
        out = git("ls-files", "-z")
    names = out.decode().split("\0")
    return [n for n in names if n.endswith(".rs") and not n.startswith(EXCLUDED)]


def read(path, rev):
    if rev:
        return git("show", f"{rev}:{path}").decode()
    with open(path, encoding="utf-8") as f:
        return f.read()


def split(path, text):
    """(non-test, test) line counts of one file."""
    lines = text.splitlines()
    if "tests" in path.split("/")[:-1]:
        return 0, len(lines)
    for i, line in enumerate(lines):
        if line.strip().startswith("#[cfg(test)]"):
            return i, len(lines) - i
    return len(lines), 0


def group(path):
    parts = path.split("/")
    return "/".join(parts[:2]) if parts[0] == "crates" and len(parts) > 2 else parts[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", help="count a commit instead of the working tree")
    ap.add_argument("prefix", nargs="*", help="only count paths under these prefixes")
    args = ap.parse_args()
    rows = {}
    for path in tracked(args.rev):
        if args.prefix and not any(path.startswith(p) for p in args.prefix):
            continue
        code, test = split(path, read(path, args.rev))
        row = rows.setdefault(group(path), [0, 0])
        row[0] += code
        row[1] += test
    width = max([len(g) for g in rows] + [5])
    print(f"{'path':<{width}} {'non-test':>9} {'test':>9}")
    for g in sorted(rows):
        print(f"{g:<{width}} {rows[g][0]:>9,} {rows[g][1]:>9,}")
    total = [sum(r[0] for r in rows.values()), sum(r[1] for r in rows.values())]
    print(f"{'total':<{width}} {total[0]:>9,} {total[1]:>9,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
