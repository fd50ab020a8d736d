#!/usr/bin/env python3
"""Run the perf benches and record the trajectories as JSON.

Runs ``bench_delta_eval`` (incremental vs naive swap evaluation) and
``bench_best_response`` (solver-ladder sanity) from a build directory and
writes ``BENCH_delta_eval.json`` (``--output``; empty skips both benches)
with one row per (family, n, version):

    {"family": ..., "n": ..., "version": "SUM"|"MAX",
     "naive_ms": ..., "incremental_ms": ..., "speedup": ...,
     "bfs_avoided_pct": ...}

With ``--solver-output PATH`` it additionally runs ``bench_solver`` (the
certified branch-and-bound vs enumeration, plus the portfolio gap) and
writes ``BENCH_solver.json`` with one row per (n, version): nodes
explored/pruned vs enumeration candidates, per-backend wall-clock, and the
exact-vs-portfolio / exact-vs-swap gaps.

The JSON files are the repo's perf trajectory: CI runs this at small sizes
and uploads the artifacts; release-sized numbers are committed at the repo
root whenever the measured subsystem changes. Each payload's "host" block
records where the numbers were measured (host_threads, compiler, build
type, git SHA, git_dirty — true when tracked files differ from that SHA —
and peak_rss_kb from the bench's /proc/self/status) so
single-core CI artifacts are never misread as calibrated speedups. A bench
that stops printing its ``peak_rss_kb:`` line fails the script loudly.

Fails loudly: a missing, crashing, or check-failing bench exits non-zero
*without* writing the output file — a partial artifact is worse than none.

With ``--csr-output PATH`` it additionally runs ``bench_csr`` (CSR vs
vector graph core: bit-identical swap sweeps plus the large-n BFS and
delta-probe smoke when ``--csr-large-n`` is nonzero) and writes ``BENCH_csr.json``.

With ``--multi-bfs-output PATH`` it additionally runs ``bench_multi_bfs``
(batched 64-lane multi-source BFS vs per-seed sweeps) and writes
``BENCH_multi_bfs.json``: the corpus work counts (row scans vs settled
pairs — the batching gain), the Nash-audit prepass comparison when
``--multi-bfs-audit-n`` is nonzero (>= 512 asserts the 8x row-scan
saving), and the large-n 64-source smoke when ``--multi-bfs-large-n``
is nonzero.

With ``--churn-output PATH`` it additionally runs ``bench_churn`` (the
incremental ε-Nash certificate under churn vs per-event re-auditing) and
writes ``BENCH_churn.json``: the small-n corpus with bit-identical
checkpoint audits, the committed no-delta-heavy acceptance trace when
``--churn-trace-n`` is nonzero (>= 512 asserts the 5x solver-invocation
saving), the closed-form join-only star smoke when ``--churn-large-n`` is
nonzero, and the telemetry-overhead measurement (the same trace with the
metric registry enabled vs disabled; ``obs_overhead_pct`` is recorded in
the payload and must be present).

Usage:
    python3 scripts/run_bench.py [--build-dir build] [--output BENCH_delta_eval.json]
                                 [--min-n 128] [--max-n 1024] [--players 24] [--seed 1]
                                 [--solver-output BENCH_solver.json]
                                 [--solver-min-n 10] [--solver-max-n 18]
                                 [--solver-instances 100]
                                 [--csr-output BENCH_csr.json] [--csr-large-n 1000]
                                 [--multi-bfs-output BENCH_multi_bfs.json]
                                 [--multi-bfs-audit-n 512] [--multi-bfs-large-n 1000000]
                                 [--churn-output BENCH_churn.json]
                                 [--churn-min-n 64] [--churn-max-n 256]
                                 [--churn-trace-n 512] [--churn-large-n 16384]
"""

import argparse
import csv
import json
import os
import pathlib
import subprocess
import sys


def run_binary(path, args):
    """Run a bench binary; exit non-zero when it is missing or fails.

    A crash (signal), a non-zero exit, or a failed sanity check all abort the
    script before any artifact is written.
    """
    if not path.exists():
        print(f"error: {path} not found — build the project first", file=sys.stderr)
        sys.exit(2)
    proc = subprocess.run(
        [str(path)] + args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    if proc.returncode != 0:
        kind = "crashed" if proc.returncode < 0 else "reported failed checks"
        print(f"error: {path.name} {kind} (exit {proc.returncode}); output:", file=sys.stderr)
        print(proc.stdout, file=sys.stderr)
        sys.exit(1)
    return proc.stdout


def host_metadata(build_dir):
    """Describe the measuring host: thread count, compiler, build type, SHA."""
    meta = {"host_threads": os.cpu_count()}
    compiler, build_type = None, None
    cache = build_dir / "CMakeCache.txt"
    if cache.exists():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1]
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    meta["compiler"] = compiler or "unknown"
    meta["build_type"] = build_type or "unknown"
    try:
        meta["git_sha"] = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
            cwd=pathlib.Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        meta["git_sha"] = "unknown"
    # A SHA alone does not say whether the measured code was committed: flag
    # uncommitted changes to tracked files (untracked files are ignored).
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
            cwd=pathlib.Path(__file__).resolve().parent,
        ).stdout
        meta["git_dirty"] = bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        meta["git_dirty"] = "unknown"
    return meta


def parse_peak_rss_kb(text, bench_name):
    """Extract the ``peak_rss_kb: N`` line every bench prints; fail loudly.

    Memory ceilings belong in every BENCH_*.json next to wall time — a bench
    binary that stopped reporting RSS is a harness regression, not a value
    to silently default.
    """
    for line in text.splitlines():
        if line.startswith("peak_rss_kb:"):
            return int(line.split(":", 1)[1].strip())
    print(f"error: {bench_name} output has no peak_rss_kb line:", file=sys.stderr)
    print(text, file=sys.stderr)
    sys.exit(2)


def parse_csv_table(text, leading_column):
    """Extract the CSV table whose header starts with `leading_column`."""
    lines = text.splitlines()
    try:
        start = next(i for i, line in enumerate(lines) if line.startswith(leading_column + ","))
    except StopIteration:
        return []
    table = [lines[start]]
    for line in lines[start + 1 :]:
        if "," not in line:
            break
        table.append(line)
    return list(csv.DictReader(table))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build", help="CMake build directory")
    parser.add_argument(
        "--output",
        default="BENCH_delta_eval.json",
        help="JSON output path of bench_delta_eval (empty = skip it and bench_best_response)",
    )
    parser.add_argument("--min-n", type=int, default=128)
    parser.add_argument("--max-n", type=int, default=1024)
    parser.add_argument("--players", type=int, default=24)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--solver-output",
        default="",
        help="also run bench_solver and write this JSON (empty = skip)",
    )
    parser.add_argument("--solver-min-n", type=int, default=10)
    parser.add_argument("--solver-max-n", type=int, default=18)
    parser.add_argument("--solver-instances", type=int, default=100)
    parser.add_argument(
        "--csr-output",
        default="",
        help="also run bench_csr and write this JSON (empty = skip)",
    )
    parser.add_argument(
        "--csr-large-n",
        type=int,
        default=0,
        help="grid side for bench_csr's large-n smoke (1000 -> n=10^6); 0 skips it",
    )
    parser.add_argument(
        "--multi-bfs-output",
        default="",
        help="also run bench_multi_bfs and write this JSON (empty = skip)",
    )
    parser.add_argument(
        "--multi-bfs-audit-n",
        type=int,
        default=0,
        help="Nash audit instance size for bench_multi_bfs (512 = acceptance); 0 skips it",
    )
    parser.add_argument(
        "--multi-bfs-large-n",
        type=int,
        default=0,
        help="vertex count for bench_multi_bfs's large-n smoke (10^6 release); 0 skips it",
    )
    parser.add_argument(
        "--churn-output",
        default="",
        help="also run bench_churn and write this JSON (empty = skip)",
    )
    parser.add_argument("--churn-min-n", type=int, default=64)
    parser.add_argument("--churn-max-n", type=int, default=256)
    parser.add_argument(
        "--churn-trace-n",
        type=int,
        default=0,
        help="acceptance trace size for bench_churn (512 = acceptance); 0 skips it",
    )
    parser.add_argument(
        "--churn-large-n",
        type=int,
        default=0,
        help="star size for bench_churn's join-only large-n smoke; 0 skips it",
    )
    parser.add_argument(
        "--max-obs-overhead-pct",
        type=float,
        default=None,
        help="fail (exit 3) if bench_churn's obs_overhead_pct exceeds this; "
        "CI passes 5 so telemetry regressions block the merge",
    )
    args = parser.parse_args()
    build = pathlib.Path(args.build_dir)

    if args.output:
        delta_out = run_binary(
            build / "bench_delta_eval",
            [
                "--csv",
                "--min-n", str(args.min_n),
                "--max-n", str(args.max_n),
                "--players", str(args.players),
                "--seed", str(args.seed),
            ],
        )
        rows = []
        for record in parse_csv_table(delta_out, "family"):
            rows.append(
                {
                    "family": record["family"],
                    "n": int(record["n"]),
                    "version": record["version"],
                    "naive_ms": float(record["naive_ms"]),
                    "incremental_ms": float(record["incremental_ms"]),
                    "speedup": float(record["speedup"]),
                    "bfs_avoided_pct": float(record["bfs_avoided_pct"]),
                }
            )
        if not rows:
            print("error: no CSV rows parsed from bench_delta_eval output:", file=sys.stderr)
            print(delta_out, file=sys.stderr)
            sys.exit(2)

        run_binary(build / "bench_best_response", ["--seed", str(args.seed)])

        delta_host = host_metadata(build)
        delta_host["peak_rss_kb"] = parse_peak_rss_kb(delta_out, "bench_delta_eval")
        payload = {
            "bench": "delta_eval",
            "host": delta_host,
            "config": {
                "min_n": args.min_n,
                "max_n": args.max_n,
                "players": args.players,
                "seed": args.seed,
            },
            "rows": rows,
        }
        pathlib.Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output} ({len(rows)} rows)")

        best = max((r["speedup"] for r in rows if r["n"] >= 512), default=None)
        if best is not None:
            print(f"best speedup at n >= 512: {best:.2f}x")

    if args.solver_output:
        solver_out = run_binary(
            build / "bench_solver",
            [
                "--csv",
                "--min-n", str(args.solver_min_n),
                "--max-n", str(args.solver_max_n),
                "--instances", str(args.solver_instances),
                "--seed", str(args.seed),
            ],
        )
        solver_rows = []
        for record in parse_csv_table(solver_out, "n"):
            solver_rows.append(
                {
                    "n": int(record["n"]),
                    "version": record["version"],
                    "queries": int(record["queries"]),
                    "enum_candidates": int(record["enum_candidates"]),
                    "bb_nodes": int(record["bb_nodes"]),
                    "bb_pruned": int(record["bb_pruned"]),
                    "prune_ratio": float(record["prune_ratio"]),
                    "enum_ms": float(record["enum_ms"]),
                    "bb_ms": float(record["bb_ms"]),
                    "bb_all_ms": float(record["bb_all_ms"]),
                    "bb_state_ms": float(record["bb_state_ms"]),
                    "portfolio_ms": float(record["portfolio_ms"]),
                    "portfolio_gap_pct": float(record["portfolio_gap_pct"]),
                    "swap_gap_pct": float(record["swap_gap_pct"]),
                    "portfolio_optimal_pct": float(record["portfolio_optimal_pct"]),
                }
            )
        if not solver_rows:
            print("error: no CSV rows parsed from bench_solver output:", file=sys.stderr)
            print(solver_out, file=sys.stderr)
            sys.exit(2)
        solver_host = host_metadata(build)
        solver_host["peak_rss_kb"] = parse_peak_rss_kb(solver_out, "bench_solver")
        solver_payload = {
            "bench": "solver",
            "host": solver_host,
            "config": {
                "min_n": args.solver_min_n,
                "max_n": args.solver_max_n,
                "instances": args.solver_instances,
                "seed": args.seed,
            },
            "rows": solver_rows,
        }
        pathlib.Path(args.solver_output).write_text(
            json.dumps(solver_payload, indent=2) + "\n"
        )
        print(f"wrote {args.solver_output} ({len(solver_rows)} rows)")
        worst = max(r["portfolio_gap_pct"] for r in solver_rows)
        print(f"worst mean portfolio gap: {worst:.2f}%")

    if args.csr_output:
        csr_out = run_binary(
            build / "bench_csr",
            [
                "--csv",
                "--min-n", str(args.min_n),
                "--max-n", str(args.max_n),
                "--players", str(args.players),
                "--seed", str(args.seed),
                "--large-n", str(args.csr_large_n),
            ],
        )
        csr_rows = []
        for record in parse_csv_table(csr_out, "family"):
            csr_rows.append(
                {
                    "family": record["family"],
                    "n": int(record["n"]),
                    "version": record["version"],
                    "swaps": int(record["swaps"]),
                    "vector_ms": float(record["vector_ms"]),
                    "csr_ms": float(record["csr_ms"]),
                    "speedup": float(record["speedup"]),
                }
            )
        large_rows = []
        for record in parse_csv_table(csr_out, "phase"):
            large_rows.append(
                {
                    "phase": record["phase"],
                    "n": int(record["n"]),
                    "queries": int(record["queries"]),
                    "ms_per_query": float(record["ms_per_query"]),
                }
            )
        if not csr_rows and not large_rows:
            print("error: no CSV rows parsed from bench_csr output:", file=sys.stderr)
            print(csr_out, file=sys.stderr)
            sys.exit(2)
        csr_host = host_metadata(build)
        csr_host["peak_rss_kb"] = parse_peak_rss_kb(csr_out, "bench_csr")
        csr_payload = {
            "bench": "csr",
            "host": csr_host,
            "config": {
                "min_n": args.min_n,
                "max_n": args.max_n,
                "players": args.players,
                "seed": args.seed,
                "large_n": args.csr_large_n,
            },
            "rows": csr_rows,
            "large_n_rows": large_rows,
        }
        pathlib.Path(args.csr_output).write_text(json.dumps(csr_payload, indent=2) + "\n")
        print(f"wrote {args.csr_output} ({len(csr_rows)} + {len(large_rows)} rows)")

    if args.multi_bfs_output:
        multi_out = run_binary(
            build / "bench_multi_bfs",
            [
                "--csv",
                "--min-n", str(args.min_n),
                "--max-n", str(args.max_n),
                "--seed", str(args.seed),
                "--audit-n", str(args.multi_bfs_audit_n),
                "--large-n", str(args.multi_bfs_large_n),
            ],
        )
        corpus_rows = []
        for record in parse_csv_table(multi_out, "family"):
            corpus_rows.append(
                {
                    "family": record["family"],
                    "n": int(record["n"]),
                    "sources": int(record["sources"]),
                    "sweeps": int(record["sweeps"]),
                    "row_scans": int(record["row_scans"]),
                    "settled": int(record["settled"]),
                    "scan_saving": float(record["scan_saving"]),
                    "per_seed_ms": float(record["per_seed_ms"]),
                    "batched_ms": float(record["batched_ms"]),
                    "speedup": float(record["speedup"]),
                }
            )
        audit_rows = []
        for record in parse_csv_table(multi_out, "audit_n"):
            audit_rows.append(
                {
                    "audit_n": int(record["audit_n"]),
                    "version": record["version"],
                    "skipped": int(record["skipped"]),
                    "sweeps": int(record["sweeps"]),
                    "row_scans": int(record["row_scans"]),
                    "settled": int(record["settled"]),
                    "scan_saving": float(record["scan_saving"]),
                    "per_seed_ms": float(record["per_seed_ms"]),
                    "batched_ms": float(record["batched_ms"]),
                    "speedup": float(record["speedup"]),
                }
            )
        large_bfs_rows = []
        for record in parse_csv_table(multi_out, "phase"):
            large_bfs_rows.append(
                {
                    "phase": record["phase"],
                    "n": int(record["n"]),
                    "sources": int(record["sources"]),
                    "row_scans": int(record["row_scans"]),
                    "settled": int(record["settled"]),
                    "scan_saving": float(record["scan_saving"]),
                    "ms": float(record["ms"]),
                }
            )
        if not corpus_rows and not audit_rows and not large_bfs_rows:
            print("error: no CSV rows parsed from bench_multi_bfs output:", file=sys.stderr)
            print(multi_out, file=sys.stderr)
            sys.exit(2)
        multi_host = host_metadata(build)
        multi_host["peak_rss_kb"] = parse_peak_rss_kb(multi_out, "bench_multi_bfs")
        multi_payload = {
            "bench": "multi_bfs",
            "host": multi_host,
            "config": {
                "min_n": args.min_n,
                "max_n": args.max_n,
                "seed": args.seed,
                "audit_n": args.multi_bfs_audit_n,
                "large_n": args.multi_bfs_large_n,
            },
            "rows": corpus_rows,
            "audit_rows": audit_rows,
            "large_n_rows": large_bfs_rows,
        }
        pathlib.Path(args.multi_bfs_output).write_text(
            json.dumps(multi_payload, indent=2) + "\n"
        )
        print(
            f"wrote {args.multi_bfs_output} "
            f"({len(corpus_rows)} + {len(audit_rows)} + {len(large_bfs_rows)} rows)"
        )
        if audit_rows:
            best = max(r["scan_saving"] for r in audit_rows)
            print(f"audit prepass row-scan saving: {best:.2f}x")

    if args.churn_output:
        churn_out = run_binary(
            build / "bench_churn",
            [
                "--csv",
                "--min-n", str(args.churn_min_n),
                "--max-n", str(args.churn_max_n),
                "--seed", str(args.seed),
                "--trace-n", str(args.churn_trace_n),
                "--large-n", str(args.churn_large_n),
            ],
        )
        churn_rows = []
        for record in parse_csv_table(churn_out, "mode"):
            churn_rows.append(
                {
                    "mode": record["mode"],
                    "n": int(record["n"]),
                    "events": int(record["events"]),
                    "moves": int(record["moves"]),
                    "searches": int(record["searches"]),
                    "cache_hits": int(record["cache_hits"]),
                    "skips_clean": int(record["skips_clean"]),
                    "skips_locality": int(record["skips_locality"]),
                    "baseline_solves": int(record["baseline_solves"]),
                    "identical": int(record["identical"]),
                    "apply_ms": float(record["apply_ms"]),
                    "audit_ms": float(record["audit_ms"]),
                }
            )
        trace_rows = []
        for record in parse_csv_table(churn_out, "trace_n"):
            trace_rows.append(
                {
                    "trace_n": int(record["trace_n"]),
                    "mode": record["mode"],
                    "events": int(record["events"]),
                    "searches": int(record["searches"]),
                    "baseline_solves": int(record["baseline_solves"]),
                    "saving": float(record["saving"]),
                    "checkpoints": int(record["checkpoints"]),
                    "identical": int(record["identical"]),
                    "construct_ms": float(record["construct_ms"]),
                    "apply_ms": float(record["apply_ms"]),
                    "audit_ms": float(record["audit_ms"]),
                    "speedup": float(record["speedup"]),
                }
            )
        large_churn_rows = []
        for record in parse_csv_table(churn_out, "phase"):
            large_churn_rows.append(
                {
                    "phase": record["phase"],
                    "n": int(record["n"]),
                    "events": int(record["events"]),
                    "active": int(record["active"]),
                    "searches": int(record["searches"]),
                    "skips_clean": int(record["skips_clean"]),
                    "baseline_solves": int(record["baseline_solves"]),
                    "saving": float(record["saving"]),
                    "construct_ms": float(record["construct_ms"]),
                    "trace_ms": float(record["trace_ms"]),
                    "audit_ms": float(record["audit_ms"]),
                    "identical": int(record["identical"]),
                }
            )
        obs_rows = []
        for record in parse_csv_table(churn_out, "obs"):
            obs_rows.append(
                {
                    "obs": record["obs"],
                    "n": int(record["n"]),
                    "events": int(record["events"]),
                    "searches": int(record["searches"]),
                    "apply_ms": float(record["apply_ms"]),
                    "overhead_pct": float(record["overhead_pct"]),
                }
            )
        if not churn_rows and not trace_rows and not large_churn_rows:
            print("error: no CSV rows parsed from bench_churn output:", file=sys.stderr)
            print(churn_out, file=sys.stderr)
            sys.exit(2)
        # The telemetry-overhead claim is tracked per PR; a bench_churn that
        # stopped printing it is a harness regression.
        obs_overhead_pct = None
        for line in churn_out.splitlines():
            if line.startswith("obs_overhead_pct:"):
                obs_overhead_pct = float(line.split(":", 1)[1].strip())
        if obs_overhead_pct is None:
            print("error: bench_churn output has no obs_overhead_pct line:", file=sys.stderr)
            print(churn_out, file=sys.stderr)
            sys.exit(2)
        churn_host = host_metadata(build)
        churn_host["peak_rss_kb"] = parse_peak_rss_kb(churn_out, "bench_churn")
        churn_payload = {
            "bench": "churn",
            "host": churn_host,
            "config": {
                "min_n": args.churn_min_n,
                "max_n": args.churn_max_n,
                "seed": args.seed,
                "trace_n": args.churn_trace_n,
                "large_n": args.churn_large_n,
            },
            "obs_overhead_pct": obs_overhead_pct,
            "rows": churn_rows,
            "trace_rows": trace_rows,
            "large_n_rows": large_churn_rows,
            "obs_rows": obs_rows,
        }
        pathlib.Path(args.churn_output).write_text(
            json.dumps(churn_payload, indent=2) + "\n"
        )
        print(
            f"wrote {args.churn_output} "
            f"({len(churn_rows)} + {len(trace_rows)} + {len(large_churn_rows)} rows)"
        )
        if trace_rows:
            best = max(r["saving"] for r in trace_rows)
            print(f"churn solver-invocation saving: {best:.2f}x")
        print(f"churn telemetry overhead: {obs_overhead_pct:.2f}%")
        if (
            args.max_obs_overhead_pct is not None
            and obs_overhead_pct > args.max_obs_overhead_pct
        ):
            print(
                f"error: obs_overhead_pct {obs_overhead_pct:.2f}% exceeds the "
                f"--max-obs-overhead-pct budget of {args.max_obs_overhead_pct:.2f}% "
                "(telemetry must stay near-free on the churn hot path)",
                file=sys.stderr,
            )
            sys.exit(3)


if __name__ == "__main__":
    main()
