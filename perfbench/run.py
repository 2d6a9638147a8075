"""Benchmark of the timedsessions verifier: well-formedness, progress and
the process interpreter, driven from outside the package.

    python3 perfbench/run.py --workload wellformed|progress|interpret
        --seed N --seconds S --trace 0|1 [--inputs acceptance|heldout]

Run from the root of a checkout.  A single process with no threads calls
the package one item at a time (a closed loop with one client).  Before
anything is timed, every shipped fixture goes through the CLI with the exit
code the tests expect; a mismatch fails the run.  Each timed pass runs in a
fresh worker process, so cold module caches are part of what is measured.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same items
untraced and then traced twice, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Per-item rows, with the
machine's core count and Python version, go to .bench_out/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wellformed", "progress", "interpret")
# Fresh-process passes over the same items per run; an item's time is the
# median of its passes.  Set-up is sampled once per pass and in extra
# set-up-only processes, SETUP_SAMPLES in all.
REPEATS = 3
# On a shared host the speed of the same pure-Python work drifts by a third
# or more within seconds and between minutes.  Each item's time is therefore
# scaled by REFERENCE_MS over the time of a fixed reference kernel measured
# around it (worker.reference_kernel): timings read as on a host where the
# kernel takes REFERENCE_MS, about its time on a quiet 2-core machine.
REFERENCE_MS = 1.0
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # the whole run, preflight and every worker included
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Every shipped fixture, with the command and exit code the tests expect.
PREFLIGHT = (
    (("check", "junk.toast", "S"), 1),
    (("check", "junk.toast", "S1"), 0),
    (("check", "junk.toast", "S2"), 0),
    (("check", "weak_persistency.toast", "S"), 0),
    (("check", "end_only.toast", "Done"), 0),
    (("check", "mixed_pingpong.toast", "MPP"), 0),
    (("dual", "pingpong.toast", "PingPong"), 0),
    (("progress", "throttling.toast", "throttle2"), 0),
    (("progress", "unsafe_mixed.toast", "unsafe"), 1),
    (("progress", "end_only.toast", "finished"), 0),
    (("progress", "unbounded_send.toast", "flood"), 3),
    (("progress", "weak_persistency.toast", "weak"), 0),
    (("compat", "weak_persistency.toast", "weak"), 0),
    (("run", "mixed_pingpong.toast", "Main", "--delays", "1,1,1,5,5"), 0),
    (("run", "parametric_timeout.toast", "Parametric"), 0),
    (("run", "deadline_err.toast", "Deadline"), 1),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def preflight():
    """Run the fixtures through timedsessions.cli.main; return mismatches."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from timedsessions.cli import main
    except ImportError as exc:
        raise BenchError(f"cannot import the package from src/: {exc}")
    fixtures = ROOT / "fixtures"
    shipped = {p.name for p in fixtures.glob("*.toast")}
    covered = {argv[1] for argv, _ in PREFLIGHT}
    mismatches = [f"fixture without a preflight command: {name}"
                  for name in sorted(shipped - covered)]
    for argv, want in PREFLIGHT:
        command, fixture, *rest = argv
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = main([command, str(fixtures / fixture), *rest])
            except SystemExit as exc:
                code = exc.code
        if code != want:
            mismatches.append(f"{' '.join(argv)}: exit {code}, expected {want}")
    return mismatches


def start_worker(workload, args, mode, budget, out):
    """Run one worker process to completion and return its JSON result."""
    out.parent.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "worker.py"), workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds / REPEATS),
               "--inputs", args.inputs, "--mode", mode,
               "--budget", f"{budget:.1f}", "--out", str(out)]
    try:
        subprocess.run(command, cwd=ROOT, check=True, timeout=budget + 30,
                       stdout=subprocess.DEVNULL)
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"{mode} worker exited with {exc.returncode}")
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in {budget + 30:.0f}s")
    return json.loads(out.read_text())


def scaled(row):
    """An item's time at reference speed, in ms."""
    return row["ms"] * REFERENCE_MS / row["ref_ms"]


def tail(samples):
    """The highest ladder percentile with at least ten samples beyond it,
    by nearest rank: (percentile, samples beyond, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, n - rank, ordered[rank - 1]
    return 100.0, 0, ordered[-1]


def timings(ms):
    """items_per_s, item_p50_ms and item_tail_ms of per-item times in ms,
    with the tail's percentile and the number of items beyond it."""
    pct, beyond, tail_ms = tail(ms)
    return ({"items_per_s": len(ms) / (sum(ms) / 1e3),
             "item_p50_ms": statistics.median(ms), "item_tail_ms": tail_ms},
            pct, beyond)


def counts_digest(rows, skip=()):
    """Digest of every item's label, verdict and counts, in item order,
    leaving out the counts named in skip."""
    keyed = [(r["label"], r["verdict"],
              sorted((k, v) for k, v in r["counts"].items() if k not in skip))
             for r in rows]
    return hashlib.sha256(json.dumps(keyed).encode()).hexdigest()[:16]


def write_rows(path, rows, args, mode):
    with open(path, "w") as out:
        out.write(f"# workload={args.workload} inputs={args.inputs} "
                  f"seed={args.seed} seconds={args.seconds} mode={mode} "
                  f"nproc={os.cpu_count()} python={platform.python_version()}\n")
        keys = sorted({k for r in rows for k in r["counts"]})
        out.write("\t".join(["item", "label", "verdict", "ok", "decided",
                             "ms", "scaled_ms"] + keys) + "\n")
        for r in rows:
            out.write("\t".join(
                [str(r["item"]), r["label"], r["verdict"], str(int(r["ok"])),
                 str(int(r["decided"])), f"{r['ms']:.4f}",
                 f"{r.get('scaled_ms', scaled(r)):.4f}"]
                + [str(r["counts"].get(k, "")) for k in keys]) + "\n")


def summed_counts(rows):
    total = Counter()
    for r in rows:
        total.update(r["counts"])
    return dict(sorted(total.items()))


def report_rows(rows, planned):
    """Print the verdict histogram, summed counts and the digest."""
    hist = Counter(r["verdict"] for r in rows)
    print(f"  items       {len(rows)} of {planned} planned")
    print("  verdicts    " + ", ".join(f"{k}={v}" for k, v in sorted(hist.items())))
    print("  counts      " + ", ".join(f"{k}={v}" for k, v in
                                      summed_counts(rows).items()))
    print(f"  digest      {counts_digest(rows)}")
    for r in rows:
        if not r["ok"]:
            print(f"  FAILED      item {r['item']} {r['label']}: {r['verdict']}")


def end_to_end(args, out_dir, deadline):
    passes = []
    for number in range(REPEATS):
        budget = (deadline - time.monotonic() - 15) / (REPEATS - number)
        passes.append(start_worker(args.workload, args, "run", max(5.0, budget),
                                   out_dir / f"run{number}.json"))
    setups = passes + [start_worker(args.workload, args, "setup", 60,
                                    out_dir / f"setup{number}.json")
                       for number in range(SETUP_SAMPLES - REPEATS)]
    common = min(len(result["rows"]) for result in passes)
    if common == 0:
        raise BenchError("no item was attempted")
    digests = {counts_digest(result["rows"][:common]) for result in passes}
    repeated = len(digests) == 1
    print(f"  repeat      counts of {REPEATS} fresh-process passes "
          f"{'agree' if repeated else 'DIFFER'} on {common} items")
    rows = [dict(row,
                 ms=statistics.median(p["rows"][index]["ms"] for p in passes),
                 scaled_ms=statistics.median(scaled(p["rows"][index])
                                             for p in passes),
                 ok=all(p["rows"][index]["ok"] for p in passes))
            for index, row in enumerate(passes[0]["rows"][:common])]
    write_rows(out_dir / "rows.tsv", rows, args, "run")
    attempted = len(rows)
    failed = sum(not r["ok"] for r in rows)
    times, pct, beyond = timings([r["scaled_ms"] for r in rows])
    unscaled, _, _ = timings([r["ms"] for r in rows])
    unscaled["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] * REFERENCE_MS / p["setup_ref_ms"]
                                      for p in setups), "s"),
        "items_per_s": (times["items_per_s"], "1/s"),
        "item_p50_ms": (times["item_p50_ms"], "ms"),
        "item_tail_ms": (times["item_tail_ms"], "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
                        "MB"),
        "decided_share": (sum(r["decided"] for r in rows) / attempted, "share"),
    }
    report_rows(rows, passes[0]["planned"])
    print(f"  timings     at reference speed (kernel {REFERENCE_MS} ms; it took "
          f"{statistics.median(r['ref_ms'] for r in rows):.4g} ms in the first "
          f"pass); each item the median of {REPEATS} cold passes")
    for name, (value, unit) in metrics.items():
        note = ""
        if name in unscaled:
            note = f"unscaled {unscaled[name]:.6g} {unit}"
        if name == "setup_s":
            note += f", median of {len(setups)} fresh-process set-ups"
        elif name == "item_tail_ms":
            note += f", p{pct:g} with {beyond} items beyond it"
        print(f"  {name:<13} {value:.6g} {unit}  {note}")
    print(f"  failed_share  {failed / attempted:.6g} share  "
          f"{failed} of {attempted} items")
    json_metrics = {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}
    return failed == 0 and repeated, attempted, failed, json_metrics


def per_layer(args, out_dir, deadline):
    # an untraced pass, for the overhead, and two traced passes, whose
    # per-item counts (to_zones calls too, which only a traced pass sees)
    # must agree exactly
    results = []
    for number, mode in enumerate(("run", "trace", "trace")):
        budget = (deadline - time.monotonic() - 15) / (3 - number)
        results.append(start_worker(args.workload, args, mode, max(5.0, budget),
                                    out_dir / f"{mode}{number}.json"))
    plain, traced, again = results
    rows = traced["rows"]
    if not rows:
        raise BenchError("no item was attempted")
    write_rows(out_dir / "rows-untraced.tsv", plain["rows"], args, "run")
    write_rows(out_dir / "rows.tsv", rows, args, "trace")
    report_rows(rows, traced["planned"])
    common = min(len(rows), len(plain["rows"]))
    repeated = (counts_digest(rows[:common], skip=("to_zones_calls",))
                == counts_digest(plain["rows"][:common]))
    print(f"  repeat      counts of the untraced and traced runs "
          f"{'agree' if repeated else 'DIFFER'} on {common} items")
    twice = min(len(rows), len(again["rows"]))
    traced_twice = (counts_digest(rows[:twice])
                    == counts_digest(again["rows"][:twice]))
    print(f"  repeat      counts of the two traced runs, to_zones calls "
          f"included, {'agree' if traced_twice else 'DIFFER'} on {twice} items")
    repeated = repeated and traced_twice
    plain_s = sum(scaled(r) for r in plain["rows"][:common]) / 1e3
    traced_s = sum(scaled(r) for r in rows[:common]) / 1e3
    overhead = traced_s - plain_s
    print(f"  overhead    traced {traced_s:.3f} s - untraced {plain_s:.3f} s "
          f"= {overhead:.3f} s at reference speed on {common} items "
          f"({traced['spans']} spans)")
    for name in traced["missing_hooks"]:
        print(f"  missing     hook target {name} not found; its metrics are absent")
    # self times at reference speed too, so that runs on a busy and on a
    # quiet host compare
    host = statistics.median(r["ref_ms"] for r in rows) / REFERENCE_MS
    print(f"  timings     at reference speed: layer times divided by {host:.4g}")
    layers = {name: value / host if name.endswith(("_s", "_us")) else value
              for name, value in traced["layers"].items()}
    layers["tracing.overhead_s"] = overhead
    layers["tracing.overhead_ratio"] = overhead / plain_s if plain_s else 0.0
    metrics = {}
    for name, value in sorted(layers.items()):
        unit = ("s" if name.endswith(("_s", ".overhead_s")) else
                "us" if name.endswith("_us") else
                "share" if name.endswith("ratio") else "count")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<52} {value:.6g} {unit}")
    # an item fails if it failed in any of the three passes
    failed = sum(not all(p["rows"][index]["ok"] for p in results
                         if index < len(p["rows"]))
                 for index in range(len(rows)))
    return failed == 0 and repeated, len(rows), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", choices=("acceptance", "heldout"),
                        default="acceptance",
                        help="acceptance: the suite's seeds; heldout: inputs "
                             "kept for re-checking a claimed gain")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    out_dir = (ROOT / ".bench_out" /
               f"{args.workload}-{args.inputs}-seed{args.seed}-trace{args.trace}")
    try:
        mismatches = preflight()
        if mismatches:
            raise BenchError("preflight: " + "; ".join(mismatches))
        print(f"workload {args.workload}  inputs {args.inputs}  seed {args.seed}"
              f"  seconds {args.seconds:g}  trace {args.trace}  "
              f"nproc {os.cpu_count()}  python {platform.python_version()}")
        print(f"  preflight   {len(PREFLIGHT)} fixture commands gave the "
              f"expected exit codes")
        measure = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = measure(args, out_dir, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"  rows        {out_dir.relative_to(ROOT)}/rows.tsv")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
