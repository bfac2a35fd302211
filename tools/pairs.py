"""Paired benchmark runs of two trees, written to BENCH_<workload>.json.

    python3 tools/pairs.py --base ../parent --head . --workload long-series \\
        --seeds 11 --pairs 10 --seconds 20

Each pair runs ``perfbench/run.py`` once in the base tree and once in
the head tree, with the same seed and settings; the base runs first in
even pairs and the head first in odd ones.  Every run's JSON line is
kept, in the order run.  Per end-to-end metric the file gives each
side's median and quartiles, the pairs the head won, an exact two-sided
sign-test p-value and a verdict:

- "gain": the head won at least 9 of every 10 pairs run (ties count for
  neither side) and its median is better than the base's by more than
  the base's interquartile range;
- "worse": the head's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json, as a share of the base median;
- "unresolved": neither, and either side's interquartile range is wider
  than that bound, unless every head run is better than every base run;
- "within bound": the rest.

The host's CPU count and load averages are recorded at the start and
at the end.  ``--tiny`` passes ``--tiny`` to the benchmark, for a
self-test of this tool.  The file is rewritten after every pair, so a
run cut short keeps the pairs it finished.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GAIN_SHARE = 0.9


def quartiles(values):
    """(Q1, median, Q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p-value of wins against losses."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def summarize(runs, declared):
    """Per-metric summary of complete pairs.  runs: dicts with "pair",
    "side" ("base" or "head") and "result" (run.py's JSON line);
    declared: BENCHMARK.json's end_to_end list."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [p for _, p in sorted(pairs.items()) if set(p) == {"base", "head"}]
    summary = {}
    for m in declared:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        if not pairs:
            summary[name] = {"pairs": 0}
            continue
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
        (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
        gain = sign * (hm - bm)
        every_run_better = min(sign * h for h in head) > max(sign * b for b in base)
        if wins >= GAIN_SHARE * len(pairs) and gain > b3 - b1:
            verdict = "gain"
        elif -gain > m["bound"] * abs(bm):
            verdict = "worse"
        elif max(b3 - b1, h3 - h1) > m["bound"] * abs(bm) and not every_run_better:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        summary[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "pairs": len(pairs),
            "base": {"median": bm, "q1": b1, "q3": b3, "min": min(base), "max": max(base)},
            "head": {"median": hm, "q1": h1, "q3": h3, "min": min(head), "max": max(head)},
            "median_change": (hm - bm) / bm if bm else None,
            "head_won": wins,
            "base_won": losses,
            "ties": len(pairs) - wins - losses,
            "sign_test_p": sign_test_p(wins, losses),
            "verdict": verdict,
        }
    return summary


def run_once(tree, args, seed):
    """One benchmark run in tree; returns (wall seconds, JSON result)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with status {proc.returncode}: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def src_digest(tree):
    """sha256 over the relative paths and bytes of every .py file under tree/src."""
    digest = hashlib.sha256()
    src = os.path.join(tree, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def host():
    return {"cpu_count": os.cpu_count(), "loadavg": list(os.getloadavg()), "time": time.time()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="tree of the parent commit")
    parser.add_argument("--head", required=True, help="tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="pair i uses seeds[i %% len(seeds)]")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--tiny", action="store_true", help="pass --tiny to the benchmark (self-test)")
    parser.add_argument("--out-dir", default=".", help="where BENCH_<workload>.json is written")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"base": args.base, "head": args.head}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["end_to_end"]
    path = os.path.join(args.out_dir, f"BENCH_{args.workload}.json")
    record = {
        "workload": args.workload,
        "command": "perfbench/run.py --trace 0" + (" --tiny" if args.tiny else ""),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "pairs": args.pairs,
        "trees": {side: {"path": tree, "src_sha256": src_digest(tree)} for side, tree in trees.items()},
        "host_start": host(),
        "runs": [],
    }
    for pair in range(args.pairs):
        seed = args.seeds[pair % len(args.seeds)]
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            try:
                wall, result = run_once(trees[side], args, seed)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            record["runs"].append({"pair": pair, "side": side, "seed": seed, "wall_s": wall, "result": result})
            print(f"pair {pair} {side}: " + json.dumps(result), flush=True)
        record["host_end"] = host()
        record["operations"] = {
            side: {key: sum(r["result"][key] for r in record["runs"] if r["side"] == side) for key in ("attempted", "failed")}
            for side in trees
        }
        record["all_correct"] = all(r["result"]["correct"] for r in record["runs"])
        record["summary"] = summarize(record["runs"], declared)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    for name, s in record["summary"].items():
        print(f"{name}: base {s['base']['median']:.6g} head {s['head']['median']:.6g} "
              f"head won {s['head_won']} of {s['pairs']}, p {s['sign_test_p']:.3g}: {s['verdict']}")
    print(f"every run correct: {record['all_correct']}; operations {json.dumps(record['operations'])}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
