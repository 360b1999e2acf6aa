#!/usr/bin/env python3
"""Mutation gate: every kept mutant must be caught by its named test.

Each `ci/mutants/*.patch` is a deliberate bug, as a unified diff, under
a header naming the test that must catch it:

    Mutant: <what the patch breaks>
    Test: cargo test -p <package> <target> -- --exact <test name>

The gate checks out the tree (`--rev`, default HEAD) into one temporary
`git worktree`, runs every named test there once unmutated (each must
pass), then for each patch: applies it, runs its test, and restores the
tree. A mutant is caught when its test fails. The gate exits 1 if any
test fails unmutated, any patch does not apply or does not build, or
any mutant survives. Every run shares one `CARGO_TARGET_DIR`
(`target/mutants` under the repo root unless set), so a mutant rebuilds
only the crates its patch touches.

Usage:
    python3 ci/mutants/run.py                   # every patch, HEAD
    python3 ci/mutants/run.py --rev main        # another commit
    python3 ci/mutants/run.py ci/mutants/x.patch
"""

import argparse
import glob
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def git(*args, cwd=None):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout


def read_patch(path):
    """The patch's description and test command, from its header."""
    fields = {}
    with open(path) as f:
        for line in f:
            if line.startswith("diff "):
                break
            key, sep, value = line.partition(":")
            if sep:
                fields[key.strip()] = value.strip()
    if "Test" not in fields:
        sys.exit(f"{path}: no 'Test:' line in the header")
    argv = shlex.split(fields["Test"])
    if "--exact" not in argv or argv.index("--exact") + 1 >= len(argv):
        sys.exit(f"{path}: the test command must end in '--exact <test name>'")
    return fields.get("Mutant", "?"), argv, argv[argv.index("--exact") + 1]


def run_test(argv, tree, env):
    """Runs one test command; returns (outcome, output) with outcome
    'ok', 'failed', 'missing' (no such test) or 'unbuilt'."""
    p = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    out = p.stdout + p.stderr
    name = argv[argv.index("--exact") + 1]
    if f"test {name} ... ok" in out and p.returncode == 0:
        return "ok", out
    if "could not compile" in out or "error[E" in out:
        return "unbuilt", out
    if p.returncode != 0:
        return "failed", out
    return "missing", out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rev", default="HEAD", help="commit to mutate (default HEAD)")
    ap.add_argument("patches", nargs="*", help="patches (default ci/mutants/*.patch)")
    args = ap.parse_args()
    root = git("rev-parse", "--show-toplevel", cwd=HERE).strip()
    patches = args.patches or sorted(glob.glob(os.path.join(HERE, "*.patch")))
    mutants = [(p, *read_patch(p)) for p in patches]
    env = dict(os.environ, CARGO_NET_OFFLINE="true", CARGO_TERM_COLOR="never")
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, "target", "mutants"))

    scratch = tempfile.mkdtemp(prefix="mutants-")
    tree = os.path.join(scratch, "tree")
    git("worktree", "add", "--detach", tree, args.rev, cwd=root)
    bad, caught = [], 0
    try:
        for path, _, argv, name in mutants:
            outcome, out = run_test(argv, tree, env)
            if outcome != "ok":
                print(out[-3000:])
                bad.append(f"{os.path.basename(path)}: {name} is {outcome} on the unmutated tree")
        for path, what, argv, name in mutants if not bad else []:
            label = os.path.basename(path)
            applied = subprocess.run(
                ["git", "apply", os.path.abspath(path)], cwd=tree, capture_output=True, text=True
            )
            if applied.returncode != 0:
                bad.append(f"{label}: does not apply: {applied.stderr.strip()}")
                continue
            try:
                outcome, out = run_test(argv, tree, env)
            finally:
                git("checkout", "--", ".", cwd=tree)
            verdict = {"failed": "caught", "ok": "SURVIVED"}.get(outcome, outcome.upper())
            print(f"{verdict:8} {label}: {what}\n         by {name}")
            caught += outcome == "failed"
            if outcome != "failed":
                if outcome == "unbuilt":
                    print(out[-3000:])
                bad.append(f"{label}: {verdict.lower()}")
    finally:
        git("worktree", "remove", "--force", tree, cwd=root)
        shutil.rmtree(scratch, ignore_errors=True)
    for b in bad:
        print(f"mutation gate: {b}", file=sys.stderr)
    print(f"{caught}/{len(mutants)} mutants caught")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
