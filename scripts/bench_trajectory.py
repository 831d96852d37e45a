#!/usr/bin/env python3
"""Aggregate BENCH_*.json across git history into BENCH_trajectory.json.

Every PR regenerates its benchmark reports (BENCH_throughput.json,
BENCH_serving.json, ...) in place, which makes the *current* numbers
easy to read and the *trend* invisible: a 15% regression that lands in
one PR and is papered over by an optimization two PRs later never shows
up anywhere. This script walks the first-parent history, extracts every
checked-in BENCH_*.json at each commit (via `git show <sha>:<file>`),
reduces each report to a small set of headline metrics, and writes the
series — oldest first, worktree state last — to BENCH_trajectory.json.

The output is itself checked in, so the trajectory rides along with the
reports it summarizes and CI can diff it like any other artifact.

Usage:
    scripts/bench_trajectory.py [--repo DIR] [--out FILE]

Exit status is non-zero when the repo has no benchmark history at all;
a commit whose report fails to parse is recorded with an "error" field
rather than aborting the walk (history is immutable — a bad blob stays
bad forever, and the trajectory should say so once, not fail forever).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

SCHEMA = "shield5g.bench.trajectory.v1"


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True, capture_output=True, text=True,
    ).stdout


def bench_files_at(repo, rev):
    """BENCH_*.json paths present in `rev`'s root tree."""
    try:
        listing = git(repo, "ls-tree", "--name-only", rev)
    except subprocess.CalledProcessError:
        return []
    return sorted(
        name for name in listing.splitlines()
        if name.startswith("BENCH_") and name.endswith(".json")
        and name != "BENCH_trajectory.json"
    )


def headline(report):
    """Reduce one parsed benchmark report to its headline metrics.

    Works by schema family so new report versions keep aggregating as
    long as they retain their headline fields; unknown schemas degrade
    to just the schema id (presence in the series still marks "this PR
    shipped that bench").
    """
    schema = report.get("schema", "")
    out = {"schema": schema}
    if "throughput" in schema:
        out["regs_per_s"] = report.get("regs_per_s")
        out["wall_ms"] = report.get("wall_ms")
        out["allocs_per_reg"] = report.get("allocs_per_reg")
        out["x25519_per_reg"] = report.get("x25519_per_reg")
        out["resumption_rate"] = report.get("resumption_rate")
        modes = {}
        for entry in report.get("modes", []):
            name = entry.get("mode")
            if not name:
                continue
            modes[name] = {
                "regs_per_s": entry.get("regs_per_s"),
                "registered": entry.get("registered"),
                "failed": entry.get("failed"),
            }
            # v2 splits `failed`, attributes fast-path deliveries and
            # (later) counts NAS integrity failures per mode.
            for key in ("shed", "error", "fastpath_hits", "nas_badmac"):
                if key in entry:
                    modes[name][key] = entry[key]
        if modes:
            out["modes"] = modes
    elif "serving" in schema:
        runs = report.get("runs", [])
        rates = [r.get("regs_per_s") for r in runs
                 if isinstance(r.get("regs_per_s"), (int, float))]
        out["ue_count"] = report.get("ue_count")
        out["deterministic"] = report.get("deterministic")
        out["best_regs_per_s"] = max(rates) if rates else None
        out["max_shards"] = max(
            (r.get("shards", 0) for r in runs), default=None)
        provision = report.get("provision")
        if isinstance(provision, dict):
            out["provision_lookups_per_s"] = provision.get("lookups_per_s")
            out["provision_rss_ok"] = provision.get("rss_ok")
    return out


def entry_for(repo, rev, label, subject, date):
    benches = {}
    for name in bench_files_at(repo, rev):
        try:
            text = git(repo, "show", f"{rev}:{name}")
            benches[name] = headline(json.loads(text))
        except (subprocess.CalledProcessError, json.JSONDecodeError) as e:
            benches[name] = {"error": str(e)}
    return {
        "commit": label,
        "subject": subject,
        "date": date,
        "benches": benches,
    }


def worktree_entry(repo):
    # Only tracked reports count: smoke runs drop scratch BENCH_*.json
    # (load_curve, scaling) in the tree, and an untracked artifact must
    # not make the worktree look different from HEAD.
    tracked = set(git(repo, "ls-files", "BENCH_*.json").splitlines())
    benches = {}
    for path in sorted(Path(repo).glob("BENCH_*.json")):
        if path.name == "BENCH_trajectory.json" or path.name not in tracked:
            continue
        try:
            benches[path.name] = headline(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError) as e:
            benches[path.name] = {"error": str(e)}
    return benches


def main():
    parser = argparse.ArgumentParser(
        description="Aggregate BENCH_*.json history into a trajectory")
    parser.add_argument("--repo", default=".", help="repository root")
    parser.add_argument("--out", default=None,
                        help="output path (default <repo>/BENCH_trajectory.json)")
    args = parser.parse_args()

    repo = Path(args.repo).resolve()
    out_path = Path(args.out) if args.out else repo / "BENCH_trajectory.json"

    log = git(repo, "log", "--first-parent", "--reverse",
              "--format=%H%x1f%h%x1f%s%x1f%cs")
    series = []
    for line in log.splitlines():
        full, short, subject, date = line.split("\x1f")
        entry = entry_for(repo, full, short, subject, date)
        if entry["benches"]:
            series.append(entry)

    # The worktree's (possibly regenerated, not yet committed) reports
    # become the final point so "run benches, then trajectory" shows the
    # PR under construction without an intermediate commit.
    tip = worktree_entry(repo)
    if tip and (not series or tip != series[-1]["benches"]):
        series.append({
            "commit": "worktree",
            "subject": "uncommitted working tree",
            "date": None,
            "benches": tip,
        })

    if not series:
        print("bench_trajectory: no BENCH_*.json anywhere in history",
              file=sys.stderr)
        return 1

    doc = {"schema": SCHEMA, "points": series}
    out_path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")

    latest = series[-1]["benches"]
    print(f"bench_trajectory: {len(series)} points -> {out_path}")
    for name, bench in latest.items():
        rate = bench.get("regs_per_s") or bench.get("best_regs_per_s")
        if isinstance(rate, (int, float)):
            print(f"  {name}: {rate:.0f} regs/s ({bench.get('schema')})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
