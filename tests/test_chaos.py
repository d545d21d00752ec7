"""Chaos suite: randomized fault schedules against the real server.

Fifty-plus seeded :class:`~repro.faults.FaultPlan` schedules run
end-to-end against a live :class:`CompressionService` on a real TCP
socket.  Each schedule arms a random subset of injection sites (framing
faults, torn registry writes, bit rot, engine faults) at random
intensities — all derived from the schedule's seed, so any failure
replays exactly.

The invariants, per the acceptance criteria:

* **no hung connections** — every client call is bounded by a socket
  timeout and a deadline; the suite completing at all proves it;
* **byte-identical round-trips on success** — a call that reports
  success must have produced exactly the fault-free result (structured
  errors are acceptable under chaos; silent corruption never is);
* **no corrupt registry object survives outside quarantine** — after
  each schedule the registry heals to a verified-clean state;
* **the server outlives every schedule** — a fault-free round-trip must
  succeed after each schedule with no restart.
"""

import hashlib
import random

import pytest

import repro
from repro import faults
from repro.compress.decompress import decompress_module
from repro.corpus.synth import generate_program
from repro.interp.interp2 import Interpreter2
from repro.interp.runtime import run_program
from repro.minic import compile_source
from repro.service import RetryPolicy, ServiceError
from repro.storage import load_any, load_grammar, load_module, \
    save_compressed, save_grammar, save_module

from tests.test_service import _Harness

SCHEDULES = list(range(50))

# (site, max probability, modes to choose from)
CHAOS_SITES = [
    ("service.frame.read", 0.15,
     ["garbage", "disconnect", "delay"]),
    ("service.frame.write", 0.15,
     ["garbage", "truncate", "disconnect", "delay"]),
    ("registry.atomic.corrupt", 0.3, [None]),
    ("registry.atomic.torn", 0.3, [None]),
    ("registry.atomic.pre_rename", 0.3, [None]),
    ("registry.atomic.post_rename", 0.3, [None]),
    ("registry.read.missing", 0.2, [None]),
    ("registry.read.corrupt", 0.2, [None]),
    ("engine.dispatch", 0.5, [None]),
    ("engine.tables", 0.5, [None]),
]


def make_plan(seed: int) -> faults.FaultPlan:
    """A random-but-reproducible schedule: 2-5 armed sites."""
    rng = random.Random(seed)
    armed = rng.sample(CHAOS_SITES, rng.randint(2, 5))
    sites = {}
    for name, max_p, modes in armed:
        rule = {"p": round(rng.uniform(0.02, max_p), 3)}
        mode = rng.choice(modes)
        if mode is not None:
            rule["mode"] = mode
            if mode == "delay":
                rule["arg"] = 0.01
        sites[name] = rule
    return faults.FaultPlan(seed=seed, sites=sites)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    app = compile_source(generate_program(3, seed=777))
    grammar, _ = repro.train_grammar(
        [compile_source(generate_program(8, seed=s))
         for s in (501, 502)] + [app])
    grammar_bytes = save_grammar(grammar)
    cmod = repro.compress_module(grammar, app)
    h = _Harness(tmp_path_factory.mktemp("chaos"), batch_window=0.005)
    yield {
        "h": h,
        "app_bytes": save_module(app),
        "grammar_bytes": grammar_bytes,
        "digest": hashlib.sha256(grammar_bytes).hexdigest(),
        "rcx": save_compressed(cmod),
        "expected_run": run_program(cmod, Interpreter2(cmod)),
    }
    h.close()


def chaos_client(world):
    return world["h"].client(
        timeout=5.0,
        retry=RetryPolicy(6, base=0.005, cap=0.05),
        deadline=15.0)


def run_ops(world, outcomes):
    """One pass of the canonical workflow; success must be exact."""
    with chaos_client(world) as client:
        try:
            digest = client.put_grammar(world["grammar_bytes"],
                                        tags=["prod"])
            assert digest == world["digest"]  # content address survives
            outcomes["put"] += 1
        except ServiceError:
            pass
        try:
            rcx = client.compress(world["app_bytes"], world["digest"])
            # byte-identical round trip, verified *locally* so a frame
            # fault cannot mask a payload fault (the oracle itself runs
            # with the plane lifted — it must be fault-free to judge)
            with faults.suspended():
                back = save_module(decompress_module(load_any(rcx)))
            assert back == world["app_bytes"]
            outcomes["compress"] += 1
        except ServiceError:
            pass
        try:
            code, output = client.run_compressed(world["rcx"])
            assert (code, output) == world["expected_run"]
            outcomes["run"] += 1
        except ServiceError:
            pass


@pytest.mark.parametrize("seed", SCHEDULES)
def test_chaos_schedule(world, seed):
    outcomes = {"put": 0, "compress": 0, "run": 0}
    plan = make_plan(seed)
    with faults.injected(plan) as plane:
        run_ops(world, outcomes)
        fired = sum(s["fires"] for s in plane.snapshot().values())
    assert faults.ACTIVE is None

    # self-heal: whatever the schedule tore must quarantine or repair —
    # no corrupt object may survive in the store proper
    registry = world["h"].service.registry
    registry.startup_scan()
    report = registry.verify()
    assert report["clean"], (seed, report)
    for record in registry.list():
        data = registry.get_bytes(record["hash"])
        assert hashlib.sha256(data).hexdigest() == record["hash"]

    # the server survived: a fault-free round trip works, exactly
    with world["h"].client(timeout=10.0) as client:
        digest = client.put_grammar(world["grammar_bytes"])
        assert digest == world["digest"]
        rcx = client.compress(world["app_bytes"], world["digest"])
        assert client.decompress(rcx) == world["app_bytes"]
        code, output = client.run_compressed(world["rcx"])
        assert (code, output) == world["expected_run"]


def test_chaos_plans_are_reproducible():
    for seed in SCHEDULES[:10]:
        assert make_plan(seed).to_dict() == make_plan(seed).to_dict()


def test_chaos_actually_injects(world):
    """Guard against a silently inert suite: across a handful of
    schedules the plane must really fire."""
    total = 0
    for seed in SCHEDULES[:5]:
        with faults.injected(make_plan(seed)) as plane:
            run_ops(world, {"put": 0, "compress": 0, "run": 0})
            total += sum(s["fires"] for s in plane.snapshot().values())
    world["h"].service.registry.startup_scan()
    assert total > 0


# -- fleet chaos: seeded worker kills against a live multi-process fleet ------
#
# Twenty-five seeded schedules against a real ``--workers 3`` fleet.
# Each schedule consults a deterministic ``fleet.worker.kill`` plane
# between operations; when it fires, a seeded RNG picks a worker and
# SIGKILLs it — exactly what a crash or OOM-kill looks like.  Clients
# carry a RetryPolicy, so every operation must still *succeed* and its
# payload must be byte-identical to the single-process oracle; after
# each schedule the fleet must be back at full strength and the shared
# registry verified clean.

from tests.test_fleet import FleetHarness  # noqa: E402

FLEET_SCHEDULES = list(range(25))
_KILL_STATS = {"kills": 0, "lost_seen": 0}


@pytest.fixture(scope="module")
def fleet_world(tmp_path_factory, world):
    h = FleetHarness(tmp_path_factory.mktemp("fleet-chaos"), workers=3)
    try:
        grammar = load_grammar(world["grammar_bytes"])
        app = load_module(world["app_bytes"])
        cmod = repro.compress_module(grammar, app)
        with h.client() as client:
            client.put_grammar(world["grammar_bytes"], tags=["prod"])
    except BaseException:
        # a leaked fleet holds the test runner's pipes open forever —
        # tear it down before surfacing the setup failure
        h.close()
        raise
    yield {
        "h": h,
        "app_bytes": world["app_bytes"],
        "grammar_bytes": world["grammar_bytes"],
        "digest": world["digest"],
        "oracle_rcx1": save_compressed(cmod, format="rcx1"),
        "oracle_rcx2": save_compressed(cmod, format="rcx2"),
        "expected_run": world["expected_run"],
    }
    h.close()


def fleet_chaos_client(fw):
    return fw["h"].client(
        timeout=10.0,
        retry=RetryPolicy(10, base=0.05, cap=0.4),
        deadline=30.0)


@pytest.mark.parametrize("seed", FLEET_SCHEDULES)
def test_fleet_chaos_schedule(fleet_world, seed):
    fw = fleet_world
    pool = fw["h"].pool
    plane = faults.FaultPlane(faults.FaultPlan(
        seed=1000 + seed,
        sites={"fleet.worker.kill": {"p": 0.4}}))
    rng = random.Random(9000 + seed)
    base_restarts = pool.restarts_total
    kills = 0

    def maybe_kill():
        nonlocal kills
        if plane.decide("fleet.worker.kill") is not None:
            if pool.kill(rng.randrange(pool.size)) is not None:
                kills += 1

    with fleet_chaos_client(fw) as client:
        maybe_kill()
        assert client.put_grammar(fw["grammar_bytes"]) == fw["digest"]
        maybe_kill()
        assert client.compress(fw["app_bytes"],
                               fw["digest"]) == fw["oracle_rcx1"]
        maybe_kill()
        assert client.compress(fw["app_bytes"], fw["digest"],
                               format="rcx2") == fw["oracle_rcx2"]
        maybe_kill()
        assert client.decompress(fw["oracle_rcx1"]) == fw["app_bytes"]
        maybe_kill()
        assert client.run_compressed(
            fw["oracle_rcx1"]) == fw["expected_run"]

    _KILL_STATS["kills"] += kills
    # the fleet heals to full strength, counting every kill
    deadline = 30.0
    fw["h"].wait_restarted(base_restarts + kills, timeout=deadline)

    # the shared registry survived every kill verified-clean
    registry = fw["h"].dispatcher.registry
    registry.startup_scan()
    report = registry.verify()
    assert report["clean"], (seed, report)

    # dispatcher-level accounting: lost requests were counted, not
    # silently swallowed (summed at module end by the guard test)
    _KILL_STATS["lost_seen"] = \
        fw["h"].dispatcher._worker_lost_total


def test_fleet_chaos_actually_killed(fleet_world):
    """The schedules must have really fired: across 25 seeds at p=0.4
    per op a kill-free run means the plane is inert."""
    assert _KILL_STATS["kills"] >= 10, _KILL_STATS
    # and the fleet is still at full strength afterwards
    assert fleet_world["h"].pool.alive() == 3


# -- native-engine chaos: sandboxed crashes against a live fleet --------------
#
# Twenty-five seeded schedules drive ``engine=native`` traffic at a
# fleet whose *workers* carry an armed fault plan (shipped through
# ``worker_config`` and activated inside each worker process before the
# service starts).  When ``native.crash`` fires, the sandbox helper
# really dies on SIGSEGV; when ``native.hang`` fires, it really sleeps
# past the watchdog.  The containment invariants:
#
# * **zero worker respawns** — the blast radius is the helper, never
#   the worker (the sandbox is the whole point);
# * every response is either an exact success or a structured,
#   non-retryable ``poison_input`` — and a poisoned request repeated
#   verbatim fails fast from the durable verdict;
# * healthy requests keep answering byte-identically to the
#   compiled-path oracle throughout;
# * the shared registry stays verified-clean, poison sidecars and all.
#
# Deliberately not gated on a C compiler: the chaos directives fire in
# the helper *before* any engine builds, so containment is exercised
# end to end even where the success path falls back to compiled.

NATIVE_SCHEDULES = list(range(25))
_NATIVE_STATS = {"poisoned": 0, "succeeded": 0}

_NATIVE_PLAN = faults.FaultPlan(seed=424242, sites={
    "native.crash": {"p": 0.25, "mode": "segv"},
    "native.hang": {"p": 0.12, "arg": 30.0},
})


@pytest.fixture(scope="module")
def native_fleet(tmp_path_factory, world):
    h = FleetHarness(
        tmp_path_factory.mktemp("native-chaos"), workers=2,
        worker_config={
            "batch_window": 0.005,
            "native_watchdog": 2.0,
            "fault_plan": _NATIVE_PLAN.to_dict(),
        })
    try:
        with h.client() as client:
            client.put_grammar(world["grammar_bytes"], tags=["prod"])
    except BaseException:
        h.close()
        raise
    yield {
        "h": h,
        "rcx": world["rcx"],
        "expected_run": world["expected_run"],
    }
    h.close()


def _native_params(fw, args):
    return {"module": fw["rcx"], "args": list(args), "engine": "native"}


@pytest.mark.parametrize("seed", NATIVE_SCHEDULES)
def test_native_chaos_schedule(native_fleet, seed):
    fw = native_fleet
    pool = fw["h"].pool
    base_restarts = pool.restarts_total
    rng = random.Random(7000 + seed)
    with fw["h"].client(timeout=30.0) as client:
        for i in range(4):
            # per-schedule unique args: a fresh request digest, so one
            # schedule's quarantine never shadows another's traffic
            args = [seed, rng.randrange(1 << 16)]
            try:
                result = client.call("run_compressed",
                                     _native_params(fw, args))
            except ServiceError as exc:
                # the plane fired on this request: a structured,
                # non-retryable verdict — never a reset or a timeout
                assert exc.code == "poison_input", exc.code
                assert not exc.retryable
                _NATIVE_STATS["poisoned"] += 1
                # the verdict is durable: the identical request fails
                # fast (and consumes no further chaos evaluations)
                with pytest.raises(ServiceError) as again:
                    client.call("run_compressed",
                                _native_params(fw, args))
                assert again.value.code == "poison_input"
            else:
                # success must be exact: same answer as the compiled
                # path (which no native site can touch)
                oracle = client.call(
                    "run_compressed",
                    {"module": fw["rcx"], "args": args})
                assert result["code"] == oracle["code"]
                assert result.get("output") == oracle.get("output")
                _NATIVE_STATS["succeeded"] += 1
        # healthy traffic rides through it all, byte-identical
        code, output = client.run_compressed(fw["rcx"])
        assert (code, output) == fw["expected_run"]
    # containment: not one worker death across the schedule — every
    # crash and hang stayed inside a disposable helper
    assert pool.restarts_total == base_restarts, seed
    assert pool.alive() == pool.size


def test_native_chaos_actually_fired(native_fleet):
    """Inert-plane guard: across 25 schedules x 4 requests at a ~35%
    combined fire rate, a quarantine-free run means the worker-side
    plan never activated."""
    assert _NATIVE_STATS["poisoned"] >= 8, _NATIVE_STATS
    assert _NATIVE_STATS["succeeded"] >= 8, _NATIVE_STATS
    # the shared registry holds the verdicts and still verifies clean
    registry = native_fleet["h"].dispatcher.registry
    report = registry.verify()
    assert report["clean"], report
    assert report["poison"] == _NATIVE_STATS["poisoned"]
    assert len(registry.poison_list()) == _NATIVE_STATS["poisoned"]
    # and the fleet never lost a worker to a native fault
    assert native_fleet["h"].pool.restarts_total == 0
