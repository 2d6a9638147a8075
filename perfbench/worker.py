"""One pass over one workload, in a fresh process with cold module caches.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --inputs NAME
        --mode setup|run|trace --budget SECONDS --out FILE

``setup`` only imports the package and builds the inputs, which is the
set-up time; ``run`` also times every item; ``trace`` does the same with spans around the layers.
Results, one row per item, are written as JSON to FILE.

The item list is a function of the workload, the inputs, --seed and
--seconds only, never of how fast the code runs: --seconds sizes it by the
rate the seed commit reached on a 2-core machine, so a faster change runs
the same items in less time.  Known answers are checked after each item,
outside its timed region.
"""

import argparse
import contextlib
import gc
import json
import random
import re
import resource
import signal
import statistics
import sys
import time
from collections import Counter, namedtuple
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

CLOCKS = ("x", "y")
# Items per second of the seed commit on a 2-core machine; sizes the
# item list from --seconds.  Changing these changes the workloads.
NOMINAL_RATE = {"wellformed": 45.0, "progress": 7.0, "interpret": 70.0}
# acceptance: the seeds of the acceptance suite, so the ROADMAP baseline
# reproduces; heldout: inputs not looked at while a change is written.
INPUTS = {
    "acceptance": {"stream": 20240801, "corpus": "progress-20240801-20240802.txt"},
    "heldout": {"stream": 20240901, "corpus": "progress-20240901-20240902.txt"},
}
WF_SHARE = 0.8  # 200 well-formed : 50 ill-formed, as in the acceptance suite
PINGPONG_FUEL = 200
FIXED_EVERY = 10  # every tenth interpret item is a fixture with a known end


# One timed call and the check of its result against a known answer;
# check(result) returns (ok, verdict, decided, counts).
Item = namedtuple("Item", "label call check")


# -- wellformed ----------------------------------------------------------------

def wellformed_items(seed, count, inputs):
    """Candidates of the acceptance screening stream; each candidate S gives
    two items, check_well_formed(S) and check_well_formed(dual(S))."""
    from timedsessions import generate, sessiontypes

    rng = random.Random(INPUTS[inputs]["stream"])
    candidates = []
    while len(candidates) < (count + 1) // 2:
        node = generate.random_type(rng, CLOCKS, 3, 5)
        if not isinstance(node, sessiontypes.End):
            candidates.append((len(candidates), node))
    random.Random(seed).shuffle(candidates)

    items = []
    for number, node in candidates:
        verdicts = {}

        def check_pair(report, side, verdicts=verdicts):
            verdicts[side] = bool(report.verdict)
            # duality preserves well-formedness: the second verdict of the
            # pair must equal the first
            ok = len(verdicts) < 2 or verdicts["S"] == verdicts["dual"]
            verdict = "well-formed" if report.verdict else "ill-formed"
            return ok, verdict, True, {"violations": len(report.violations)}

        items.append(Item(
            f"c{number}:S",
            lambda node=node: sessiontypes.check_well_formed(node, clocks=CLOCKS),
            lambda r, f=check_pair: f(r, "S")))
        items.append(Item(
            f"c{number}:dual",
            lambda node=node: sessiontypes.check_well_formed(
                sessiontypes.dual(node), clocks=CLOCKS),
            lambda r, f=check_pair: f(r, "dual")))
    return items[:count]


# -- progress ------------------------------------------------------------------

def progress_items(seed, count, inputs):
    """check_progress of S | dual(S) over the stored corpus, well-formed and
    singly-ill-formed types in the acceptance ratio."""
    from timedsessions import parser, semantics, sessiontypes

    well, ill = [], []
    for line in (HERE / "corpus" / INPUTS[inputs]["corpus"]).read_text().splitlines():
        kind, *_, printed = line.split("\t")
        (well if kind == "wf" else ill).append(printed)
    count = min(count, len(well) + len(ill))
    n_well = min(len(well), round(count * WF_SHARE))
    chosen = ([("wf", i, t) for i, t in enumerate(well[:n_well])]
              + [("ill", i, t) for i, t in enumerate(ill[:count - n_well])])
    random.Random(seed).shuffle(chosen)

    items = []
    for kind, number, printed in chosen:
        node = parser.parse_type(printed)
        system = semantics.make_system(node, sessiontypes.dual(node),
                                       clocks=CLOCKS)

        def check(report, kind=kind, system=system):
            counts = {"states": report.states_visited}
            decided = report.verdict in ("ok", "counterexample")
            if report.verdict == "counterexample":
                # a well-formed system has progress (the paper's theorem);
                # any counterexample must replay to a stuck state
                ok = kind == "ill" and replays_to_stuck(system, report.trace)
                counts["trace"] = len(report.trace)
            else:
                ok = report.verdict in ("ok", "bound-exceeded")
            return ok, report.verdict, decided, counts

        items.append(Item(
            f"{kind}{number}",
            lambda system=system: semantics.check_progress(
                system, semantics.ExploreLimits()),
            check))
    return items


def replays_to_stuck(system, trace):
    """Replay a counterexample step by step, matching each printed action
    (and its state digest, while the package prints one), and check that
    the last state is non-final with no internal action now or after any
    single step."""
    from timedsessions import semantics, sessiontypes

    region = getattr(semantics, "region_canonical", None)
    digest = getattr(semantics, "digest_system", None)
    cap = max(sessiontypes.max_constant(system.left.node),
              sessiontypes.max_constant(system.right.node)) + 1

    def canon(state):
        return region(state, cap) if region is not None else state

    horizon = semantics.default_horizon(system)
    states = [canon(system)]
    for action, key in trace:
        states = [canon(succ) for state in states
                  for act, succ in semantics.system_steps(state, horizon)
                  if str(act) == str(action)]
        if digest is not None:
            states = [s for s in states if digest(s) == key][:1]
        if not states:
            return False

    def stuck(state):
        if state.left.is_final() and state.right.is_final():
            return False
        steps = semantics.system_steps(state, semantics.default_horizon(state))
        if any(a.is_tau for a, _ in steps):
            return False
        return all(not any(a.is_tau for a, _ in semantics.system_steps(
            succ, semantics.default_horizon(succ))) for _, succ in steps)

    return any(stuck(state) for state in states)


# -- interpret -----------------------------------------------------------------

_MESSAGE = re.compile(r"^\d+ (send|recv) \w+[!?](\w+)")


def pingpong_trace_ok(trace):
    """Every receive matches an earlier unmatched send of the same label."""
    pending = Counter()
    for line in trace:
        match = _MESSAGE.match(line)
        if match is None:
            continue
        kind, label = match.groups()
        if kind == "send":
            pending[label] += 1
        elif pending[label] == 0:
            return False
        else:
            pending[label] -= 1
    return True


def interpret_items(seed, count, inputs):
    """processes.run on the fixtures: the mixed ping-pong under many seeds
    with fixed fuel, and every tenth item a fixture whose end is known."""
    from timedsessions import parser, processes

    def load(name):
        return parser.parse_spec_file((ROOT / "fixtures" / name).read_text())

    pingpong = load("mixed_pingpong.toast").processes["Main"]
    throttling = load("throttling.toast")
    parametric = load("parametric_timeout.toast").processes["Parametric"]
    deadline = load("deadline_err.toast").processes["Deadline"]
    status = processes.RunStatus

    def senders(m):
        def check(res):
            sends = [line.split()[-1] for line in res.trace if " send " in line]
            ok = (res.status == status.COMPLETED
                  and sends == ["p!msg"] * m + ["p!tout"])
            return ok, res.status, True, {"steps": len(res.trace)}
        return check

    def check_parametric(res):
        ok = res.status == status.COMPLETED and res.elapsed == Fraction(3)
        return ok, res.status, True, {"steps": len(res.trace)}

    def check_deadline(res):
        return res.status == status.ERROR, res.status, True, {"steps": len(res.trace)}

    def check_pingpong(res):
        # the picker draws delay(z<6) from {0, 3/2, 3}, so no seeded run
        # completes: each uses all its fuel
        ok = (res.status == status.FUEL_EXHAUSTED
              and len(res.trace) == PINGPONG_FUEL
              and pingpong_trace_ok(res.trace))
        return ok, res.status, False, {"steps": len(res.trace)}

    rng = random.Random(f"{inputs}-{seed}")
    items = []
    for index in range(count):
        if index % FIXED_EVERY == FIXED_EVERY - 1:
            round_ = index // FIXED_EVERY
            which = round_ % 4
            if which < 2:
                m = which + 2
                items.append(Item(
                    f"Sender{m}",
                    lambda p=throttling.processes[f"Sender{m}"]: processes.run(p),
                    senders(m)))
            elif which == 2:
                run_seed = rng.randrange(2 ** 31)
                items.append(Item(
                    f"Parametric@{run_seed}",
                    lambda s=run_seed: processes.run(
                        parametric, processes.RunPolicy(seed=s)),
                    check_parametric))
            else:
                items.append(Item("Deadline", lambda: processes.run(deadline),
                                  check_deadline))
            continue
        run_seed = rng.randrange(2 ** 31)
        items.append(Item(
            f"Main@{run_seed}",
            lambda s=run_seed: processes.run(
                pingpong, processes.RunPolicy(seed=s, fuel=PINGPONG_FUEL)),
            check_pingpong))
    return items


WORKLOADS = {
    "wellformed": wellformed_items,
    "progress": progress_items,
    "interpret": interpret_items,
}


def item_count(workload, seconds):
    return max(20, round(seconds * NOMINAL_RATE[workload]))


def reference_kernel():
    """Fixed work that stands in for the host's speed: an exact min-plus
    closure of a 4x4 matrix of (Fraction, weak) bounds, the kind of
    arithmetic the verifier does, sharing none of its code."""
    n = 4
    for rep in range(5):
        m = {(i, j): (Fraction(i * 7 + j * 3 + rep, 2), (i + j) % 2 == 0)
             for i in range(n) for j in range(n)}
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    a, b = m[i, k], m[k, j]
                    c = (a[0] + b[0], a[1] and b[1])
                    if c[0] < m[i, j][0] or (c[0] == m[i, j][0] and not c[1]):
                        m[i, j] = c
    return m


def reference_ms():
    """Time one run of the reference kernel, with the collector off so that
    the package's heap cannot slow the kernel down, and SIGALRM held so that
    no sample runs inside it."""
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    gc.disable()
    try:
        started = time.perf_counter()
        reference_kernel()
        return (time.perf_counter() - started) * 1e3
    finally:
        gc.enable()
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


class HostSampler:
    """Times the reference kernel every INTERVAL seconds from a SIGALRM
    handler, so that an item lasting seconds gets host-speed samples from
    while it runs.  The handler's own time is kept apart so that it can be
    taken out of the item's time."""

    INTERVAL = 0.1

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0

    def _tick(self, signum, frame):
        started = time.perf_counter()
        self.samples.append(reference_ms())
        self.handler_s += time.perf_counter() - started

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_items(items, tracer, budget):
    """Time each item, then check it; stop starting items after budget s.

    Each row carries ref_ms, the mean time of the reference kernel run just
    before the item, while it ran and just after it.  A traced pass takes no
    samples, so that its spans hold no kernel time.
    """
    rows = []
    loop_started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        sampler = stack.enter_context(HostSampler()) if tracer is None else None
        ref_before = reference_ms()
        for index, item in enumerate(items):
            if time.perf_counter() - loop_started > budget:
                break
            rows.append(run_item(index, item, tracer, sampler, ref_before))
            ref_before = rows[-1]["ref_after"]
    return rows


def run_item(index, item, tracer, sampler, ref_before):
    first = len(sampler.samples) if sampler else 0
    handler_s = sampler.handler_s if sampler else 0.0
    raised = None
    started = time.perf_counter()
    try:
        if tracer is None:
            result = item.call()
        else:
            result = tracer.run_item(index, item.call)
    except Exception as exc:  # an item that raises counts as failed
        raised = exc
    elapsed = time.perf_counter() - started
    inside = []
    if sampler:
        elapsed -= sampler.handler_s - handler_s
        inside = sampler.samples[first:]
    if raised is None:
        if tracer is not None:
            tracer.active = False
        try:
            ok, verdict, decided, counts = item.check(result)
        except Exception as exc:
            ok, verdict, decided, counts = False, f"check raised {exc!r}", False, {}
        if tracer is not None:
            tracer.active = True
    else:
        ok, verdict, decided, counts = (False, f"raised {type(raised).__name__}",
                                        False, {})
    ref_after = reference_ms()
    refs = [ref_before, *inside, ref_after]
    return {"item": index, "label": item.label, "verdict": verdict,
            "ok": bool(ok), "decided": bool(decided), "ms": elapsed * 1e3,
            "ref_ms": sum(refs) / len(refs), "ref_after": ref_after,
            "counts": counts}


def main(argv=None):
    args = argparse.ArgumentParser()
    args.add_argument("workload", choices=sorted(WORKLOADS))
    args.add_argument("--seed", type=int, required=True)
    args.add_argument("--seconds", type=float, required=True)
    args.add_argument("--inputs", choices=sorted(INPUTS), default="acceptance")
    args.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args.add_argument("--budget", type=float, required=True)
    args.add_argument("--out", required=True)
    args = args.parse_args(argv)

    ref_before = statistics.median(reference_ms() for _ in range(3))
    started = time.perf_counter()
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import timedsessions  # noqa: F401  (part of the measured set-up)

    items = WORKLOADS[args.workload](args.seed,
                                     item_count(args.workload, args.seconds),
                                     args.inputs)
    setup_s = time.perf_counter() - started
    ref_after = statistics.median(reference_ms() for _ in range(3))
    out = {"workload": args.workload, "mode": args.mode, "setup_s": setup_s,
           "setup_ref_ms": (ref_before + ref_after) / 2, "planned": len(items)}
    if args.mode != "setup":
        rows = run_items(items, tracer, args.budget)
        out["rows"] = rows
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        from tracing import layer_metrics

        to_zones = tracer.per_item("zones.to_zones")
        for row in rows:
            row["counts"]["to_zones_calls"] = to_zones.get(row["item"], 0)
        out["layers"] = layer_metrics(tracer)
        out["missing_hooks"] = tracer.missing
        spans = Path(args.out).with_suffix(".spans.tsv.gz")
        tracer.write(spans)
        out["spans"] = len(tracer.start)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
