#!/usr/bin/env python3
"""A/B wall-clock ledger: runs perfbench on a base and a head tree and writes BENCH_<name>.json.

    python3 tools/bench_ab.py --base HEAD~1 --out BENCH_<n>.json \\
        --claim nsx-conn:rss_mb [--head WORKTREE] [--pairs 10]
    python3 tools/bench_ab.py --self-test

Each side is exported into its own directory under --workdir (`git
archive` of a revision, or the working tree's tracked and untracked
files for --head WORKTREE) and built there by perfbench/run.py, so
neither side shares a build with the other or with the repository. A
worktree would do the same but registers itself in the repository and
outlives an interrupted run.

Every workload of BENCHMARK.json runs --pairs alternating pairs on
fresh seeds at its run_seconds (base first on even pairs, head first on
odd ones, so drift during the run falls on both sides) through
`perfbench/run.py --trace 0`. For each end-to-end metric of
BENCHMARK.json the result holds both sides' median and quartiles over
the runs that succeeded, the pairs head won, the bound and a verdict:

  failed        head has no successful run, or more failed runs than base
  regression    head's median is worse than base's by more than the bound
  unresolved    base has no successful run, or either side's quartile
                spread exceeds the bound and not every head run reads
                better than every base run
  gain          head won at least 9 of 10 of all pairs run (a pair where
                either side failed counts as lost; ties count for
                neither) and its median is better by more than base's
                quartile spread
  within bound  none of the above

A gain is only reported for a metric named with --claim; an unclaimed
metric that would pass reads "within bound (unclaimed gain)". Runs that
exit non-zero, print no JSON, or report failed packets are listed
per side (and appear as null samples), as is the host slowness each
provider leg reported (the "host slowness median" of perfbench's
per-leg lines).
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SLOWNESS = re.compile(r"^# (\S+)\s.*host slowness median ([0-9.]+)")


# ---- statistics and verdicts ------------------------------------------------

def quartiles(samples):
    """(q1, median, q3) with linear interpolation between order statistics."""
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, lower_is_better):
    return a < b if lower_is_better else a > b


def verdict(base, head, bound, lower_is_better, claimed):
    """Judges paired samples: base[i] and head[i] ran as pair i, and None
    marks a run that failed."""
    pairs = len(base)
    ok_base = [b for b in base if b is not None]
    ok_head = [h for h in head if h is not None]
    out = {
        "wins": sum(1 for b, h in zip(base, head)
                    if b is not None and h is not None and better(h, b, lower_is_better)),
        "pairs": pairs,
        "failed": {"base": pairs - len(ok_base), "head": pairs - len(ok_head)},
        "bound": bound,
    }
    for side, samples, ok in (("base", base, ok_base), ("head", head, ok_head)):
        q1, med, q3 = quartiles(ok) if ok else (None, None, None)
        out[side] = {"median": med, "q1": q1, "q3": q3, "samples": list(samples)}
    if not ok_head or len(ok_head) < len(ok_base):
        out["verdict"] = "failed"
        return out
    if not ok_base:
        out["verdict"] = "unresolved"
        return out
    b1, bmed, b3 = quartiles(ok_base)
    h1, hmed, h3 = quartiles(ok_head)
    out["delta_pct"] = 100.0 * (hmed - bmed) / bmed if bmed else 0.0
    worse_by = (hmed - bmed) if lower_is_better else (bmed - hmed)
    base_iqr = b3 - b1
    spread = base_iqr > bound * abs(bmed) or (h3 - h1) > bound * abs(hmed)
    head_always_better = all(better(h, b, lower_is_better) for h in ok_head for b in ok_base)
    if bmed and worse_by > bound * abs(bmed):
        out["verdict"] = "regression"
    elif spread and not head_always_better:
        out["verdict"] = "unresolved"
    elif 10 * out["wins"] >= 9 * pairs and -worse_by > base_iqr:
        out["verdict"] = "gain" if claimed else "within bound (unclaimed gain)"
    else:
        out["verdict"] = "within bound"
    return out


def parse_run(stdout, returncode):
    """(metrics dict or None, failure reason or None, {provider: slowness})."""
    slowness = {}
    for line in stdout.splitlines():
        m = SLOWNESS.match(line)
        if m:
            slowness[m.group(1)] = float(m.group(2))
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if returncode != 0:
        return None, "exit %d" % returncode, slowness
    if not isinstance(result, dict) or "metrics" not in result:
        return None, "no JSON result", slowness
    if result.get("correct") is not True or result.get("failed", 0) != 0:
        return None, "correct=%s failed=%s" % (result.get("correct"), result.get("failed")), slowness
    return {k: v["value"] for k, v in result["metrics"].items()}, None, slowness


# ---- trees, builds and runs -------------------------------------------------

def export(rev, dest):
    """Copies a revision, or the working tree for WORKTREE, into dest."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == "WORKTREE":
        files = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
                               check=True, capture_output=True).stdout.decode().split("\0")
        for f in files:
            src = os.path.join(ROOT, f)
            if f and os.path.isfile(src):
                os.makedirs(os.path.dirname(os.path.join(dest, f)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, f))
        return "WORKTREE"
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as t:
            if hasattr(tarfile, "data_filter"):
                t.extractall(dest, filter="data")
            else:
                t.extractall(dest)
    return sha


def build(tree):
    """Builds perfbench in tree with its own perfbench/run.py."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(0 if run.build() else 1)")
    subprocess.run([sys.executable, "-c", code], cwd=tree, check=True,
                   stdout=subprocess.DEVNULL)


def run_once(tree, workload, seed, seconds):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    return parse_run(proc.stdout, proc.returncode)


def measure(args, trees, bench):
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    seconds = bench["run_seconds"]
    report = {"workloads": {}}
    for w_index, workload in enumerate(w["name"] for w in bench["workloads"]):
        seeds = [args.seed0 + 100 * w_index + i for i in range(args.pairs)]
        runs = {"base": [], "head": []}
        failed = {"base": [], "head": []}
        slowness = {"base": {}, "head": {}}
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                metrics, reason, slow = run_once(trees[side], workload, seed, seconds)
                for provider, s in slow.items():
                    slowness[side].setdefault(provider, []).append(s)
                if reason:
                    failed[side].append({"seed": seed, "reason": reason})
                runs[side].append(metrics)
            print("%s pair %d seed %d: %s" % (workload, i, seed, " ".join(
                "%s=%s" % (s, "failed" if runs[s][i] is None else "%.4g" % runs[s][i].get("rss_mb", 0))
                for s in ("base", "head"))), file=sys.stderr)
        metrics = {}
        for m in bench["end_to_end"]:
            name = m["name"]
            # A failed run, or one that lacks the metric, is a null sample.
            base = [r.get(name) if r else None for r in runs["base"]]
            head = [r.get(name) if r else None for r in runs["head"]]
            metrics[name] = dict(unit=m["unit"], better=m["better"], **verdict(
                base, head, m["bound"], m["better"] == "lower", (workload, name) in claims))
        report["workloads"][workload] = {
            "seeds": seeds,
            "metrics": metrics,
            "failed_runs": failed,
            "host_slowness": {side: {p: statistics.median(v) for p, v in sorted(s.items())}
                              for side, s in slowness.items()},
        }
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--base", default="HEAD", help="revision of the base side")
    parser.add_argument("--head", default="WORKTREE",
                        help="revision of the head side, or WORKTREE for the working tree")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=7000)
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".bench_ab"))
    parser.add_argument("--out", default=None, help="BENCH_<name>.json to write")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.out:
        parser.error("--out is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    trees, revs = {}, {}
    for side, rev in (("base", args.base), ("head", args.head)):
        trees[side] = os.path.join(args.workdir, side)
        revs[side] = export(rev, trees[side])
        build(trees[side])
    report = {
        "tool": "tools/bench_ab.py",
        "base": revs["base"],
        "head": revs["head"],
        "seconds": bench["run_seconds"],
        "pairs": args.pairs,
        "host": {"cpus": os.cpu_count(), "machine": os.uname().machine},
        "claims": sorted(args.claim),
    }
    report.update(measure(args, trees, bench))
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    for workload, w in report["workloads"].items():
        for name, m in w["metrics"].items():
            if "delta_pct" not in m:
                print("%-15s %-20s %d/%d base and %d/%d head runs failed  %s" % (
                    workload, name, m["failed"]["base"], m["pairs"], m["failed"]["head"],
                    m["pairs"], m["verdict"]))
                continue
            print("%-15s %-20s %10.4g -> %10.4g %+6.1f %% %2d/%d  %s" % (
                workload, name, m["base"]["median"], m["head"]["median"], m["delta_pct"],
                m["wins"], m["pairs"], m["verdict"]))
    return 0


# ---- self-test ------------------------------------------------------------------

def self_test():
    def check(cond, what):
        if not cond:
            raise AssertionError(what)

    check(quartiles([1, 2, 3, 4, 5]) == (2, 3, 4), "quartiles of 1..5")
    check(quartiles([7]) == (7, 7, 7), "quartiles of one sample")

    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.8, 99.8, 100.1, 99.9]
    # A clear memory gain: every pair better, far past the spread.
    gain = verdict(base, [x * 0.6 for x in base], 0.1, True, True)
    check(gain["verdict"] == "gain" and gain["wins"] == 10, "clear gain: %s" % gain["verdict"])
    check(abs(gain["delta_pct"] + 40) < 1e-9, "delta of a 40 % gain")
    check(verdict(base, [x * 0.6 for x in base], 0.1, True, False)["verdict"] ==
          "within bound (unclaimed gain)", "an unclaimed gain is not a gain")
    # Higher is better: the same samples read as a throughput gain.
    check(verdict(base, [x * 1.4 for x in base], 0.25, False, True)["verdict"] == "gain",
          "throughput gain")
    check(verdict(base, [x * 0.6 for x in base], 0.25, False, True)["verdict"] == "regression",
          "throughput loss past the bound")
    # Worse by more than the bound.
    check(verdict(base, [x * 1.2 for x in base], 0.1, True, True)["verdict"] == "regression",
          "memory regression")
    # Worse, but within the bound.
    check(verdict(base, [x * 1.05 for x in base], 0.1, True, True)["verdict"] == "within bound",
          "small loss within bound")
    # 8 of 10 pairs is not enough for a gain.
    eight = [x * 0.8 for x in base[:8]] + [x * 1.01 for x in base[8:]]
    r = verdict(base, eight, 0.25, True, True)
    check(r["wins"] == 8 and r["verdict"] == "within bound", "8/10 wins: %s" % r["verdict"])
    # Every pair won, but by less than base's quartile spread.
    spread = [90.0, 110.0, 95.0, 105.0, 92.0, 108.0, 97.0, 103.0, 99.0, 101.0]
    r = verdict(spread, [x - 0.5 for x in spread], 0.25, True, True)
    check(r["wins"] == 10 and r["verdict"] == "within bound", "gain inside the spread")
    # A side whose spread exceeds the bound cannot be judged, unless
    # every head run beats every base run.
    wild = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    check(verdict(wild, wild, 0.1, True, True)["verdict"] == "unresolved", "noisy base")
    r = verdict(wild, [x / 4 for x in wild], 0.1, True, True)
    check(r["verdict"] == "gain", "noisy, but every head run better: %s" % r["verdict"])
    # Ties count for neither side.
    check(verdict(base, list(base), 0.1, True, True)["wins"] == 0, "ties win nothing")
    # Failed runs stay in the denominator: a head that fails half its
    # runs and wins the rest has won 5 of 10 pairs, and fails.
    half = [None if i % 2 else x * 0.6 for i, x in enumerate(base)]
    r = verdict(base, half, 0.1, True, True)
    check(r["wins"] == 5 and r["pairs"] == 10 and r["failed"] == {"base": 0, "head": 5},
          "half the head runs failed: %s" % r)
    check(r["verdict"] == "failed", "more head failures than base: %s" % r["verdict"])
    # A head that fails every run still gets a verdict.
    r = verdict(base, [None] * 10, 0.1, True, True)
    check(r["verdict"] == "failed" and r["head"]["median"] is None, "every head run failed")
    # A failed pair is a lost pair even when base failed it: one base
    # failure leaves 9 wins, enough; two leave 8, not enough.
    one = [None] + base[1:]
    r = verdict(one, [x * 0.6 for x in base], 0.1, True, True)
    check(r["wins"] == 9 and r["verdict"] == "gain", "one failed base run: %s" % r["verdict"])
    two = [None, None] + base[2:]
    r = verdict(two, [x * 0.6 for x in base], 0.1, True, True)
    check(r["wins"] == 8 and r["verdict"] == "within bound", "two failed base runs: %s" % r)
    # Equal failures on both sides leave the verdict to the samples.
    r = verdict([None] + base[1:], [None] + [x * 1.2 for x in base[1:]], 0.1, True, True)
    check(r["verdict"] == "regression", "equal failures, worse head: %s" % r["verdict"])
    # Nothing to compare against.
    check(verdict([None] * 10, base, 0.1, True, True)["verdict"] == "unresolved",
          "every base run failed")

    out = "\n".join([
        "# workload nsx-conn seed 1: warm-up 20000 bursts",
        "# afxdp  mpps 0.3479 (median of 7 chunks), burst p50 6.50 us p99 20.09 us (7168 bursts),"
        " host slowness median 0.775 (p10 0.761, p90 0.782), forwarded 67778, failed 0",
        "# kernel mpps 0.8098 (median of 7 chunks), host slowness median 1.250 (p10 1.1, p90 1.3)",
        '{"correct": true, "failed": 0, "metrics": {"rss_mb": {"value": 230.1, "unit": "MB"}}}',
    ])
    metrics, reason, slow = parse_run(out, 0)
    check(reason is None and metrics == {"rss_mb": 230.1}, "parse a good run")
    check(slow == {"afxdp": 0.775, "kernel": 1.25}, "parse host slowness: %s" % slow)
    check(parse_run(out.replace('"failed": 0', '"failed": 3'), 0)[1] == "correct=True failed=3",
          "a run with failed packets")
    check(parse_run(out, 1)[1] == "exit 1", "a run that exited non-zero")
    check(parse_run("# nothing\n", 0)[1] == "no JSON result", "a run without JSON")
    print("bench_ab self-test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
