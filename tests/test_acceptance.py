"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from helpers import (HALVES, QUARTERS, random_constraint, random_valuation,
                     replays_to_stuck)
from reference_semantics import struct_normalize
from term_reference import random_phi_term
from timedsessions.constraints import eval_constraint, shift, zero_valuation
from timedsessions.generate import (
    ill_formed_types,
    random_type,
    well_formed_types,
)
from timedsessions.parser import parse_constraint, parse_spec_file
from timedsessions.processes import (
    DelayExact,
    PhiUndefined,
    RunPolicy,
    RunStatus,
    phi,
    run,
)
from timedsessions.semantics import (
    ExploreLimits,
    Message,
    QConfig,
    System,
    admissible_delays,
    check_progress,
    make_system,
    qconfig_time,
)
from timedsessions.sessiontypes import STR, check_well_formed, dual
from timedsessions.zones import entails, past, to_zones, zoneset_contains

F = Fraction
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name: str):
    return parse_spec_file((FIXTURES / name).read_text())


def verdict(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {message}")


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_past_exactness():
    started = time.monotonic()
    lo = past(parse_constraint("3<x<5"))
    hi = past(parse_constraint("x>2"))
    for got, want in ((lo, parse_constraint("x<5")),
                      (hi, parse_constraint("true"))):
        assert entails(got, want) and entails(want, got)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    verdict(1, f"past operator exact on both examples in {elapsed:.3f}s")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_junk_triad():
    spec = load("junk.toast")
    bad = check_well_formed(spec.types["S"], clocks=spec.clocks)
    assert not bad.verdict
    assert [(v.path, v.condition) for v in bad.violations] == \
        [(("a",), "feasibility")]
    for name in ("S1", "S2"):
        report = check_well_formed(spec.types[name], clocks=spec.clocks)
        assert report.verdict, (name, report.violations)
    verdict(2, "junk type rejected at option path [a]; both repairs accepted")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_mixed_choice_gate():
    spec = load("unsafe_mixed.toast")
    bad = check_well_formed(spec.types["S1"], clocks=spec.clocks)
    assert not bad.verdict
    assert any(v.condition == "mixed-choice" for v in bad.violations)
    good = check_well_formed(spec.types["S1safe"], clocks=spec.clocks)
    assert good.verdict
    verdict(3, "overlapping mixed-choice rejected; time-disjoint variant accepted")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_weak_persistency():
    spec = load("weak_persistency.toast")
    s = spec.types["S"]
    assert check_well_formed(s, clocks=spec.clocks).verdict
    assert check_well_formed(dual(s), clocks=spec.clocks).verdict

    system = make_system(s, dual(s), spec.clocks)
    assert F(5) in admissible_delays(system, F(10))

    # after delivering data, the receiving side may not let time pass
    loaded = QConfig(zero_valuation(spec.clocks), dual(s),
                     (Message("data", STR),))
    refused, reason = qconfig_time(loaded, F(1))
    assert refused is None and reason == "urgency"
    sender = QConfig(zero_valuation(spec.clocks), s)
    assert admissible_delays(System(sender, loaded), F(10)) == []
    verdict(4, "wait(5) admissible from the start; no wait with data queued")


# -- 5 and 6 ----------------------------------------------------------------

def test_criterion_5_and_6_empirical_progress():
    budget_start = time.monotonic()
    types = well_formed_types(200, seed=20240801)
    limits = ExploreLimits()
    counterexamples = 0
    violations = 0
    for node in types:
        system = make_system(node, dual(node), clocks=("x", "y"))
        report = check_progress(system, limits, monitor=True)
        assert report.verdict == "ok", (report.verdict, report.reason)
        counterexamples += report.verdict == "counterexample"
        violations += len(report.invariant_violations)
    assert counterexamples == 0
    assert violations == 0

    confirmed = 0
    found = 0
    broken = ill_formed_types(50, seed=20240802)
    for node, _condition in broken:
        system = make_system(node, dual(node), clocks=("x", "y"))
        report = check_progress(system, limits)
        if report.verdict != "counterexample":
            continue
        found += 1
        assert replays_to_stuck(system, report.trace), report.trace
        confirmed += 1
    elapsed = time.monotonic() - budget_start
    assert elapsed < 300, f"budget exceeded: {elapsed:.0f}s"
    verdict(5, f"200 well-formed dual systems all ok; {found} counterexamples "
               f"among 50 ill-formed types, {confirmed} confirmed stuck "
               f"({elapsed:.0f}s)")
    verdict(6, "mutual exclusion, empty-queue waits, and compatibility held "
               "at every visited state of the 200 explorations")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_zone_engine_vs_brute_force():
    rng = random.Random(20240803)
    constraints = [random_constraint(rng, ["x", "y", "z"], HALVES, max_depth=3)
                   for _ in range(1000)]
    valuations = [random_valuation(rng, ["x", "y", "z"], HALVES)
                  for _ in range(1000)]
    for c in constraints:
        zones = to_zones(c)
        for nu in valuations:
            assert eval_constraint(nu, c) == zoneset_contains(zones, nu)

    # past agrees with the quarter-step delay-sampling oracle
    for c in constraints:
        p = past(c)
        for nu in valuations[:60]:
            sampled = any(eval_constraint(shift(nu, t), c) for t in QUARTERS)
            assert eval_constraint(nu, p) == sampled
    verdict(7, "1000x1000 eval/zone agreement and past vs quarter-grid "
               "oracle, 100%")


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_process_fixtures():
    spec = load("mixed_pingpong.toast")
    res = run(spec.processes["Main"],
              RunPolicy(seed=0, delay_resolution=[F(1), F(1), F(1), F(5), F(5)]))
    assert res.status == RunStatus.COMPLETED
    pings = sum(1 for line in res.trace if line.endswith("send q!ping"))
    assert pings >= 3
    assert any(line.endswith("send p!timeout") for line in res.trace)

    throttling = load("throttling.toast")
    for name, m in (("Sender2", 2), ("Sender3", 3)):
        res = run(throttling.processes[name])
        assert res.status == RunStatus.COMPLETED
        sends = [line.split()[-1] for line in res.trace if " send " in line]
        assert sends == ["p!msg"] * m + ["p!tout"]

    parametric = load("parametric_timeout.toast")
    for seed in range(20):
        res = run(parametric.processes["Parametric"], RunPolicy(seed=seed))
        assert res.status == RunStatus.COMPLETED
        assert res.elapsed == F(3), (seed, res.elapsed)
    verdict(8, "mixed ping-pong loops >=3 then times out; throttling emits "
               "exactly m msgs then tout; parametric timeout fires at t=3 "
               "for 20 seeds")


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_phi_conformance():
    # the per-case unit tests live in test_processes.py; here the additivity
    # property is exercised at the stated size
    rng = random.Random(20240804)
    checked = 0
    attempts = 0
    while checked < 200 and attempts < 4000:
        attempts += 1
        p = random_phi_term(rng)
        t1 = F(rng.randint(1, 4), rng.choice((1, 2)))
        t2 = F(rng.randint(1, 4), rng.choice((1, 2)))
        try:
            two_step = phi(t2, phi(t1, p, {}), {})
            direct = phi(t1 + t2, p, {})
        except PhiUndefined:
            continue
        assert struct_normalize(two_step) == struct_normalize(direct)
        checked += 1
    assert checked == 200
    verdict(9, f"phi additivity on {checked} random processes "
               f"({attempts} sampled); per-case tests in test_processes.py")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_congruence_and_involution():
    rng = random.Random(20240805)
    for _ in range(500):
        p = random_phi_term(rng)
        assert struct_normalize(DelayExact(F(0), p)) == struct_normalize(p)
    for _ in range(500):
        node = random_type(rng)
        assert dual(dual(node)) == node
    verdict(10, "delay(0) identity and dual involution on 500 random terms "
                "each")


# -- corpus sweep -------------------------------------------------------------

def test_every_fixture_exercised():
    from timedsessions.cli import main

    commands = {
        "junk.toast": ["check", "S1"],
        "unsafe_mixed.toast": ["progress", "unsafe"],
        "weak_persistency.toast": ["progress", "weak"],
        "end_only.toast": ["progress", "finished"],
        "pingpong.toast": ["dual", "PingPong"],
        "unbounded_send.toast": ["progress", "flood"],
        "mixed_pingpong.toast": ["check", "MPP"],
        "throttling.toast": ["progress", "throttle2"],
        "parametric_timeout.toast": ["run", "Parametric"],
        "deadline_err.toast": ["run", "Deadline"],
    }
    shipped = {p.name for p in FIXTURES.glob("*.toast")}
    assert shipped == set(commands)
    for name, (command, target) in commands.items():
        code = main([command, str(FIXTURES / name), target])
        assert code in (0, 1, 3)
