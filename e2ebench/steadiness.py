#!/usr/bin/env python3
"""Steadiness report: repeats each workload and prints median and quartiles.

Run from the root of a fadingcr checkout:

    python3 e2ebench/steadiness.py                      # all workloads, 10 seeds
    python3 e2ebench/steadiness.py --workloads fading-sinr-4096 --runs 5
    python3 e2ebench/steadiness.py --trace 1 --runs 3   # per-layer metrics

Each run is one `e2ebench/run.py` invocation with its own seed (seeds
first_seed, first_seed + 1, ...), so the spread covers both input and host
variation. For every metric the report gives the median, the first and
third quartiles (Python's statistics.quantiles(values, n=4)), and the
spread (q3 - q1) / median; for every end-to-end metric, setup_s included,
the spread is compared with the metric's bound in BENCHMARK.json.

The report is stamped with host context: nproc, load average before and
after, git SHA and dirty flag, and the harness build type. Like
scripts/perf_smoke.sh it refuses to report anything but a Release build.
Exit code 0 when every bounded spread is within its bound and every run was
correct, 1 otherwise, 2 when refused.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git(*args):
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def host_context():
    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "git_sha": sha or "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("steadiness: %s seed %d printed no result" % (workload, seed))
    build_type = None
    for line in lines:
        if line.startswith("context:"):
            for field in line.split():
                if field.startswith("build_type="):
                    build_type = field.split("=", 1)[1]
    return proc.returncode, build_type, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="also write the report as JSON here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    context = host_context()
    report = {"context": context, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    print("host: nproc=%s loadavg=%s git=%s dirty=%s" % (
        context["nproc"], " ".join("%.2f" % x for x in context["loadavg"]),
        context["git_sha"][:12], context["git_dirty"]))
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            code, build_type, result = run_once(workload, seed, args.seconds, args.trace)
            if build_type != "Release":
                print("steadiness: REFUSING to report a %r build; configure the "
                      "harness as Release (e2ebench/run.py does)" % build_type,
                      file=sys.stderr)
                return 2
            good = code == 0 and result["correct"]
            ok = ok and good
            runs.append({"seed": seed, "exit": code, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print("  %s seed %d: %s, %d trials" % (
                workload, seed, "correct" if good else "INCORRECT", result["attempted"]),
                flush=True)
        print("%s (%d runs, %.0f s each)" % (workload, args.runs, args.seconds))
        summary = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread <= bound else "OVER BOUND"
                ok = ok and spread <= bound
            print("  %-34s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s" % (
                name, units[name], med, q1, q3, spread,
                "  bound %.2f %s" % (bound, verdict) if bound is not None else ""))
            summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                             "spread": spread}
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    context["loadavg_after"] = list(os.getloadavg())
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    print("steadiness: %s" % ("all runs correct, every spread within its bound"
                              if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
