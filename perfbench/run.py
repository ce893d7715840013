"""Benchmark for quasilie: cold CLI runs and warm library queries.

    python3 perfbench/run.py --workload {verify,structure,query} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are closed loops with one client and one job at a time.

* verify    -- cold CLI runs of ``verify all`` and ``quadratic bridge``, each
               in a fresh child process (kernel-bound: hom_analysis and
               express_in_basis dominate).
* structure -- cold CLI ``group`` runs of T and L groups without kernels
               (tree canonicalisation for T, dense-to-sparse conversion and
               memory for L).
* query     -- a warm library session: set-up builds eta'(4, 2) and
               eta'(3, 3), then answers a seeded stream of queries (parse
               trees, apply the map, pull back, hash the image).

Every CLI output is compared byte for byte with the reference recorded at
the seed commit (``reference/``) and with oracles that do not use the engine
(Witt ranks, the closed-form rank of T_n).  Query results are checked on
invariants that do not depend on the kernel basis.  An operation (a CLI job
or a query) with a wrong exit code or a wrong output counts as failed.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer split from perfbench/tracer.py, taken in
traced passes interleaved with untraced ones, whose difference is reported
as ``trace.overhead_s``.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
MARK = "@@perfbench "
HARD_LIMIT_S = 165.0          # the whole run must end within 180 s

# CLI jobs: (id, quasilie arguments).  Every job passes global caps that
# cover its size and the workload seed; none passes --jobs.
CLI_JOBS = {
    "verify": (
        ("verify_o4_m2", "--max-order 4 --max-labels 2 verify all "
                         "--max-order 4 --labels 2"),
        ("verify_o3_m3", "--max-order 4 --max-labels 3 verify all "
                         "--max-order 3 --labels 3"),
        ("bridge_o4_m2", "--max-order 4 --max-labels 2 quadratic bridge "
                         "--order 4 --labels 2"),
        ("bridge_o2_m3", "--max-order 4 --max-labels 3 quadratic bridge "
                         "--order 2 --labels 3"),
    ),
    "structure": (
        ("group_T7_m2", "--max-order 7 --max-labels 2 group T "
                        "--order 7 --labels 2"),
        ("group_L8_m2", "--max-order 7 --max-labels 2 group L "
                        "--order 8 --labels 2"),
        ("group_L6_m3", "--max-order 5 --max-labels 3 group L "
                        "--order 6 --labels 3"),
        ("group_T5_m3", "--max-order 5 --max-labels 3 group T "
                        "--order 5 --labels 3"),
    ),
}
# Structures of T recorded at the seed commit: (free rank, torsion).
SEED_T = {(7, 2): (4, [2] * 6), (5, 3): (36, [2] * 24)}

QUERY_MAPS = ((4, 2), (3, 3))
# A query goes to eta'(3, 3) with this probability.  The two maps' latencies
# form two clusters, and the heavier one has a low shoulder holding about a
# fifth of its queries.  At this share the median falls in the dense part of
# the heavy cluster; at 1/2 or 2/3 it sat on an edge and jumped by 20%
# between runs.
QUERY_HEAVY_SHARE = 0.8
QUERY_COUNT = 6000
QUERY_BATCH = 200
QUERY_SESSIONS = 3


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def p99_ms(values):
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[98] * 1e3


# -- oracles that do not use the engine ---------------------------------------

def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def witt(n, m):
    """Rank of degree n of the free Lie algebra on m generators."""
    return sum(mobius(d) * m ** (n // d) for d in range(1, n + 1)
               if n % d == 0) // n


def check_output(job_id, args, seed, stdout):
    """Return None if the CLI output is right, else the reason."""
    expected = (REFERENCE / f"{job_id}.out").read_bytes()
    expected = expected.replace(b'"seed": 0', b'"seed": %d' % seed)
    if stdout != expected:
        return "stdout differs from the reference"
    out = json.loads(stdout)
    words = args.split()
    if words[4] == "verify":
        bad = [r["claim"] for r in out if r["status"] == "failed"]
        return f"claims failed: {bad}" if bad else None
    if words[4] == "quadratic":
        return None if out["isomorphic"] is True else "bridge not isomorphic"
    name, n, m = out["group"], out["order"], out["labels"]
    if name == "L":
        want = witt(n, m)
    else:
        want = m * witt(n + 1, m) - witt(n + 2, m)
        if (out["free_rank"], out["torsion"]) != SEED_T[(n, m)]:
            return "T structure differs from the seed commit"
    return None if out["free_rank"] == want else f"free rank is not {want}"


# -- CLI workloads ------------------------------------------------------------

def run_job(job_id, args, seed, traced, t_start):
    argv = [sys.executable, str(CHILD), "cli", str(int(traced)), str(SRC),
            "--", "--seed", str(seed), *args.split()]
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, HARD_LIMIT_S - (t0 - t_start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "timeout": True, "wall_s": time.monotonic() - t0}
    wall = time.monotonic() - t0
    lines = err.decode(errors="replace").splitlines()
    stats = next((json.loads(line[len(MARK):]) for line in reversed(lines)
                  if line.startswith(MARK)), None)
    reason = None
    if proc.returncode != 0 or stats is None:
        reason = f"exit code {proc.returncode}: " + "\n".join(lines[-5:])
    else:
        reason = check_output(job_id, args, seed, out)
    if reason:
        print(f"[{job_id}] FAILED: {reason}", file=sys.stderr)
    res = {"ok": reason is None, "timeout": False, "wall_s": wall}
    if stats:
        res.update(setup_s=stats["import_done"] - t0,
                   import_s=stats["import_done"] - stats["import_start"],
                   rss_mb=stats["maxrss_kb"] / 1024,
                   layers=stats.get("layers"))
    return res


def merge_layers(results):
    """Per-layer values of one pass: sums over its jobs (maxima for sizes)."""
    total = {}
    for r in results:
        for k, v in r["layers"].items():
            if k in ("abelian.max_gens", "abelian.max_relators"):
                total[k] = max(total.get(k, 0), v)
            else:
                total[k] = total.get(k, 0) + v
        total["cli.import_s"] = total.get("cli.import_s", 0) + r["import_s"]
        total["cli.self_s"] += r["import_s"]
    return total


def run_cli_workload(name, seed, seconds, trace):
    jobs = CLI_JOBS[name]
    rng = random.Random(seed)
    t_start = time.monotonic()
    passes, attempted, failed = [], 0, 0
    while True:
        traced = trace and len(passes) % 2 == 1
        order = list(jobs)
        rng.shuffle(order)
        results = []
        for job_id, args in order:
            r = run_job(job_id, args, seed, traced, t_start)
            results.append(r)
            attempted += 1
            failed += not r["ok"]
            if r["timeout"]:
                break
        passes.append({"traced": traced, "order": order, "results": results,
                       "wall_s": sum(r["wall_s"] for r in results)})
        elapsed = time.monotonic() - t_start
        if any(r["timeout"] for r in results) or elapsed > HARD_LIMIT_S / 2:
            break
        if len(passes) >= (2 if trace else 1) \
                and elapsed + passes[-1]["wall_s"] > seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    jobs_plain = [r for p in plain for r in p["results"] if "setup_s" in r]
    if trace:
        traced = [merge_layers(p["results"]) for p in passes
                  if p["traced"] and all(r["ok"] for r in p["results"])]
        metrics = {k: statistics.median(t[k] for t in traced)
                   for k in traced[0]} if traced else {}
        if traced:
            metrics["trace.overhead_s"] = (
                statistics.fmean(p["wall_s"] for p in passes if p["traced"])
                - statistics.fmean(p["wall_s"] for p in plain))
    else:
        walls = [r["wall_s"] for p in plain for r in p["results"]]
        # The four jobs form four latency clusters, and the pooled median
        # falls in the gap between the second and the third, where it would
        # be the mean of two extreme samples.  So the median is taken over
        # each job's mean latency instead.
        by_job = {}
        for p in plain:
            for (job_id, _), r in zip(p["order"], p["results"]):
                by_job.setdefault(job_id, []).append(r["wall_s"])
        metrics = {
            "wall_s": statistics.fmean(p["wall_s"] for p in plain),
            "setup_s": statistics.median(r["setup_s"] for r in jobs_plain),
            "peak_rss_mb": statistics.median(
                max(r.get("rss_mb", 0.0) for r in p["results"])
                for p in plain),
            "ops_per_s": len(walls) / sum(walls),
            "op_p50_ms": statistics.median(
                statistics.fmean(v) for v in by_job.values()) * 1e3,
            "op_p99_ms": p99_ms(walls),
        }
    return attempted, failed, metrics


# -- query workload -----------------------------------------------------------

def random_tree(rng, order, labels):
    if order == 0:
        return str(rng.randint(1, labels))
    left = rng.randint(0, order - 1)
    return (f"({random_tree(rng, left, labels)},"
            f"{random_tree(rng, order - 1 - left, labels)})")


def make_queries(seed):
    """The seeded query stream: each query is 1-4 random order-n unrooted
    trees <i,T> for one of the maps, whose sum is looked up."""
    rng = random.Random(seed)
    queries = []
    for _ in range(QUERY_COUNT):
        mi = int(rng.random() < QUERY_HEAVY_SHARE)
        n, m = QUERY_MAPS[mi]
        queries.append([mi, [f"<{rng.randint(1, m)},{random_tree(rng, n, m)}>"
                             for _ in range(rng.randint(1, 4))]])
    return queries


def run_session(stream, traced, deadline, t_start):
    argv = [sys.executable, str(CHILD), "query", str(int(traced)), str(SRC),
            repr(deadline)]
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(
            stream, timeout=max(1.0, HARD_LIMIT_S - (time.monotonic()
                                                     - t_start)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    if proc.returncode != 0:
        print(err.decode(errors="replace")[-2000:], file=sys.stderr)
        return None
    return json.loads(out)


def run_query_workload(seed, seconds, trace):
    queries = make_queries(seed)
    stream = json.dumps({"maps": QUERY_MAPS, "batch": QUERY_BATCH,
                         "queries": queries}).encode()
    t_start = time.monotonic()
    sessions, attempted, failed = [], 0, 0
    # A traced run has one untraced and one traced session, so that the
    # traced one spends most of its time answering queries.
    count = 2 if trace else QUERY_SESSIONS
    for i in range(count):
        traced = trace and i == 1
        deadline = t_start + seconds * (i + 1) / count
        s = run_session(stream, traced, deadline, t_start)
        if s is None:
            attempted += 1
            failed += 1
            break
        s["traced"] = traced
        sessions.append(s)
        attempted += len(s["latencies"])

    # Every session answers the same stream: batch results must agree.
    for b in range(max((len(s["batches"]) for s in sessions), default=0)):
        same = [s["batches"][b] for s in sessions if len(s["batches"]) > b]
        if len({(x["distinct"], x["digest"]) for x in same}) > 1:
            print(f"[query] batch {b} differs between sessions",
                  file=sys.stderr)
            for x in same:
                x["failed"] = x["queries"]
    failed += sum(x["failed"] for s in sessions for x in s["batches"])

    plain = [s for s in sessions if not s["traced"]]
    full = [b["wall_s"] for s in plain for b in s["batches"]
            if b["queries"] == QUERY_BATCH]
    if not plain or not full:
        return attempted, max(failed, 1), {}
    if trace:
        done = [s for s in sessions if s["traced"]]
        metrics = dict(done[0]["layers"]) if done else {}
        traced_full = [b["wall_s"] for s in done for b in s["batches"]
                       if b["queries"] == QUERY_BATCH]
        if traced_full:
            metrics["trace.overhead_s"] = (statistics.fmean(traced_full)
                                           - statistics.fmean(full))
        return attempted, failed, metrics
    lat = [x for s in plain for x in s["latencies"]]
    # Latency percentiles are taken per batch (under a second each).  Host
    # speed switches between a fast and a slow state within a run, so the
    # pooled median jumps between the two, while the mean of the batch
    # medians is steady.  Host stalls of 10 ms and more come in bursts that
    # hit a few batches, so the pooled p99 jumps with their number, while
    # the median of the batch p99s does not.
    batches = [s["latencies"][lo:lo + QUERY_BATCH] for s in plain
               for lo in range(0, len(s["latencies"]), QUERY_BATCH)]
    metrics = {
        "wall_s": statistics.fmean(full),
        "setup_s": statistics.median(s["setup_s"] for s in plain),
        "peak_rss_mb": statistics.median(s["maxrss_kb"] / 1024
                                         for s in plain),
        "ops_per_s": len(lat) / sum(b["wall_s"] for s in plain
                                    for b in s["batches"]),
        "op_p50_ms": statistics.fmean(map(statistics.median, batches)) * 1e3,
        "op_p99_ms": statistics.median(map(p99_ms, batches)),
    }
    return attempted, failed, metrics


# -- entry point --------------------------------------------------------------

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "success_rate": "ratio", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p99_ms": "ms"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("verify", "structure", "query"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "quasilie" / "cli.py").is_file():
        print(f"error: no quasilie sources under {SRC}", file=sys.stderr)
        return 2

    # Compile the package's bytecode once, as an installed CLI would have.
    subprocess.run([sys.executable, "-c", "import quasilie.cli"],
                   cwd=ROOT, env=child_env(), check=True)
    if args.workload == "query":
        attempted, failed, values = run_query_workload(
            args.seed, args.seconds, args.trace)
    else:
        attempted, failed, values = run_cli_workload(
            args.workload, args.seed, args.seconds, args.trace)

    if args.trace:
        from tracer import PER_LAYER
        units = PER_LAYER
    else:
        units = END_TO_END
        values["success_rate"] = 1 - failed / attempted
    metrics = {k: {"value": values.get(k, 0), "unit": u}
               for k, u in units.items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
