"""The benchmark's three workloads: ``paper``, ``jobs_flood`` and ``service``.

Every workload has the same two-step shape:

* ``setup(seed)`` generates all inputs from the seed (datasets, arrival
  streams) plus the correctness oracle, and returns them as a state
  object.  The runner times it as set-up, not as measured work;
* ``run_round(state)`` executes one round of operations on fresh
  clusters and returns a :class:`Round`: one :class:`Op` per operation
  with its host wall time, whether its rows matched the oracle, and
  its virtual (simulated) record, which must repeat bit for bit, and
  the host wall time of each fixed part of the round (the runner keeps
  each part's fastest time).

An op is one task run in ``paper`` and one job in the service
workloads.  Rounds of one state are identical in virtual terms, so the
runner compares every round's virtual records with the first round's.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Tuple

from repro.cache import cached
from repro.cluster import build_cluster
from repro.config import GIB, JobsConfig, default_config
from repro.datasets.fsqa import generate_fsqa
from repro.datasets.maccrobat import generate_maccrobat
from repro.datasets.wildfire import generate_wildfire_tweets
from repro.gen import run_family
from repro.jobs import JobService
from repro.jobs.bodies import GEN_BODIES
from repro.jobs.service import percentile
from repro.jobs.traffic import TrafficGenerator
from repro.mem import memory_managed
from repro.sim import Environment
from repro.tasks.base import fresh_cluster
from repro.tasks.dice import reference_dice, run_dice_script, run_dice_workflow
from repro.tasks.gotta.common import reference_gotta
from repro.tasks.gotta.script import run_gotta_script
from repro.tasks.gotta.workflow import run_gotta_workflow
from repro.tasks.kge.common import make_kge_dataset, reference_kge
from repro.tasks.kge.script import run_kge_script
from repro.tasks.kge.workflow import run_kge_workflow
from repro.tasks.wef import reference_wef, run_wef_script, run_wef_workflow

__all__ = ["Op", "Round", "WORKLOADS", "queue_stats"]

clock = time.perf_counter


@dataclass
class Op:
    """One operation of a round."""

    key: str
    wall_s: float
    #: Rows equal the oracle (and the job or run completed).
    rows_ok: bool
    #: Deterministic simulated outcome; compared bit for bit.
    virtual: Tuple[Any, ...]


@dataclass
class Round:
    """One round: its ops plus the round's virtual summary."""

    ops: List[Op]
    #: Exact virtual numbers: ``virtual_s`` plus queue statistics and
    #: layer counts where the workload has them.
    virtual: Dict[str, Any]
    #: Host-side layer facts for the traced report (job services run,
    #: result caches installed).
    services: List[JobService] = field(default_factory=list)
    caches: List[Any] = field(default_factory=list)
    #: Host wall time of each part of the round, under a key that names
    #: the same work in every round of one state.
    parts: Dict[Any, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


def _rows(table) -> Tuple[Tuple[str, ...], ...]:
    """Order-free, exact row multiset of a table."""
    return tuple(sorted(tuple(map(repr, row.values)) for row in table))


def queue_stats(latencies: List[float]) -> Dict[str, Any]:
    """Median and tail queue latency, nearest rank.

    The tail is the highest percentile of 50/90/99/99.9 that leaves at
    least ten samples beyond it; it is reported with its percentile
    and the sample count.
    """
    n = len(latencies)
    tail_pct = 50.0
    for pct in (90.0, 99.0, 99.9):
        if n * (100.0 - pct) / 100.0 >= 10:
            tail_pct = pct
    return {
        "queue_p50_s": percentile(latencies, 50),
        "queue_tail_s": percentile(latencies, tail_pct),
        "queue_tail_pct": tail_pct,
        "queue_samples": n,
    }


# -- paper: the four paper tasks under both paradigms -------------------------

#: Dataset scale relative to the pinned SEED_TIMINGS scales
#: (GOTTA 1 paragraph, DICE 4 reports, KGE 300 of 1000, WEF 40 tweets).
PAPER_SCALE = 30

PAPER_RUNS: Tuple[Tuple[str, str, Callable], ...] = (
    ("dice", "script", run_dice_script),
    ("dice", "workflow", run_dice_workflow),
    ("gotta", "script", run_gotta_script),
    ("gotta", "workflow", run_gotta_workflow),
    ("kge", "script", run_kge_script),
    ("kge", "workflow", run_kge_workflow),
    ("wef", "script", run_wef_script),
    ("wef", "workflow", run_wef_workflow),
)


@dataclass
class PaperState:
    data: Dict[str, Any]
    oracle: Dict[str, Tuple[Tuple[str, ...], ...]]


def paper_setup(seed: int) -> PaperState:
    data = {
        "dice": generate_maccrobat(4 * PAPER_SCALE, seed=seed),
        "gotta": generate_fsqa(PAPER_SCALE, seed=seed),
        "kge": make_kge_dataset(
            300 * PAPER_SCALE, universe_size=1000 * PAPER_SCALE, seed=seed
        ),
        "wef": generate_wildfire_tweets(40 * PAPER_SCALE, seed=seed),
    }
    curves = reference_wef(data["wef"])
    oracle = {
        "dice": _rows(reference_dice(data["dice"])),
        "gotta": _rows(reference_gotta(data["gotta"])),
        "kge": _rows(reference_kge(data["kge"])),
        "wef": tuple(sorted(
            (repr(name), repr(epoch), repr(loss))
            for name, losses in curves.items()
            for epoch, loss in enumerate(losses)
        )),
    }
    return PaperState(data, oracle)


def paper_round(state: PaperState) -> Round:
    """Closed loop: each task run starts when the previous one ends."""
    ops: List[Op] = []
    for task, paradigm, runner in PAPER_RUNS:
        started = clock()
        run = runner(fresh_cluster(), state.data[task])
        wall_s = clock() - started
        ops.append(Op(
            key=f"{task}/{paradigm}",
            wall_s=wall_s,
            rows_ok=_rows(run.output) == state.oracle[task],
            virtual=(run.elapsed_s, len(run.output)),
        ))
    # The oracle check above already implies script rows == workflow
    # rows; the virtual summary is the sum of task elapsed times.
    return Round(
        ops,
        {"virtual_s": sum(op.virtual[0] for op in ops)},
        parts={op.key: op.wall_s for op in ops},
    )


# -- jobs_flood: the job-service control plane under a deep backlog ---------

#: Seeded open-loop Poisson traffic far above the drain rate (32 worker
#: vCPUs / 2 vCPUs per ~1 s job = 16 jobs/s against 120 arrivals/s):
#: the first 1250 arrivals push the backlog past 1000 queued jobs (peaks
#: of 1047-1095 over seeds 0-20).
FLOOD_JOBS = 1250
FLOOD = JobsConfig(
    enabled=True,
    rate_per_s=120.0,
    tenants=8,
    policy="drf",
    cpus=2,
    ram_bytes=1 * GIB,
    duration_s=1.0,
)


def first_arrivals(config: JobsConfig, count: int) -> list:
    """The first ``count`` arrivals of the config's seeded stream."""
    horizon = 3.0 * count / config.rate_per_s
    arrivals = TrafficGenerator(replace(config, horizon_s=horizon)).arrivals()
    if len(arrivals) < count:
        raise RuntimeError(f"only {len(arrivals)} arrivals, wanted {count}")
    return arrivals[:count]


@dataclass
class ServiceState:
    config: JobsConfig
    arrivals: list
    #: Expected row multiset per generated family (service only).
    oracle: Dict[str, Tuple[Tuple[str, ...], ...]] = field(default_factory=dict)


#: A job-service round is one simulation, timed in parts of this many
#: virtual seconds (about 50 ms of host time each on a 2-vCPU x86_64 VM).
SLICE_S = 1.0
#: The slice clock stops after this many slices, far past any makespan
#: here, so a simulation that never drains cannot spin forever.
MAX_SLICES = 1000


def _slice_clock(env: Environment, ticks: List[float]):
    """Sim process noting the host clock every ``SLICE_S`` virtual seconds.

    It only reads the clock, so the simulated outcome is unchanged.
    """
    for _ in range(MAX_SLICES):
        ticks.append(clock())
        yield env.timeout(SLICE_S)


def _slices(started: float, ticks: List[float], ended: float) -> Dict[int, float]:
    marks = [started, *ticks, ended]
    return {index: b - a for index, (a, b) in enumerate(zip(marks, marks[1:]))}


def _job_ops(service: JobService, wall_s: float, rows_ok) -> List[Op]:
    """One op per job; the round's wall time is spread evenly."""
    jobs = service.queue.jobs()
    share = wall_s / len(jobs)
    return [
        Op(
            key=job.job_id,
            wall_s=share,
            rows_ok=job.state == "completed" and rows_ok(job),
            virtual=(job.spec.tenant, job.spec.body, job.submitted_s,
                     job.admitted_s, job.finished_s),
        )
        for job in jobs
    ]


def _service_virtual(service: JobService) -> Dict[str, Any]:
    summary = service.summary()
    latencies = [
        job.queue_latency_s
        for job in service.queue
        if job.queue_latency_s is not None
    ]
    out = {
        "virtual_s": summary["virtual_makespan_s"],
        "peak_queue_depth": summary["peak_queue_depth"],
        "blocked": sum(summary["blocked"].values()),
        "node_seconds": summary["node_seconds"],
    }
    out.update(queue_stats(latencies))
    return out


def flood_setup(seed: int) -> ServiceState:
    config = replace(FLOOD, seed=seed)
    return ServiceState(config, first_arrivals(config, FLOOD_JOBS))


def flood_round(state: ServiceState) -> Round:
    ticks: List[float] = []
    started = clock()
    service = JobService(state.config)
    service.env.process(_slice_clock(service.env, ticks))
    service.simulate(list(state.arrivals))
    ended = clock()
    return Round(
        _job_ops(service, ended - started, lambda job: True),
        _service_virtual(service),
        services=[service],
        parts=_slices(started, ticks, ended),
    )


# -- service: every layer at once -------------------------------------------

#: Generated-family traffic (stream/smallsteps/raster x workflow/script)
#: at a rate that keeps queues short but still blocks on capacity while
#: the autoscaler grows the fleet from one worker.  Exactly 96 jobs
#: arrive in a 64 s window, so neither the job count nor the makespan
#: varies much by seed.
SERVICE_JOBS = 96
SERVICE_WINDOW_S = 64.0
SERVICE = JobsConfig(
    enabled=True,
    rate_per_s=SERVICE_JOBS / SERVICE_WINDOW_S,
    tenants=8,
    policy="drf",
    cpus=4,
    ram_bytes=256 * 1024,
    body="gen",
)
#: Shared result cache, a 1 MiB RAM clamp that makes script plans spill,
#: and an autoscaler between one and four workers.
SERVICE_CACHE = "on"
SERVICE_MEM = "on,ram=1mib"
SERVICE_ELASTIC = "on,min=1,max=4,provision=2"


def service_arrivals(config: JobsConfig, seed: int) -> list:
    """The first ``SERVICE_JOBS`` arrivals, stretched to fill the window,
    with the six generated bodies given out equally often in seeded order.

    ``body=gen`` draws each body independently, so the body mix, and
    with it the work per job, would vary from seed to seed.
    """
    arrivals = first_arrivals(config, SERVICE_JOBS)
    stretch = SERVICE_WINDOW_S / arrivals[-1].time_s
    bodies = [GEN_BODIES[i % len(GEN_BODIES)] for i in range(SERVICE_JOBS)]
    random.Random(seed).shuffle(bodies)
    return [
        replace(
            arrival,
            time_s=arrival.time_s * stretch,
            spec=replace(arrival.spec, body=body),
        )
        for arrival, body in zip(arrivals, bodies)
    ]


def service_setup(seed: int) -> ServiceState:
    config = replace(SERVICE, seed=seed)
    oracle = {}
    for body in GEN_BODIES:
        _, family, paradigm = body.split("/")
        rows = run_family(family, paradigm=paradigm).rows
        if oracle.setdefault(family, rows) != rows:
            raise RuntimeError(f"family {family!r}: paradigms disagree")
    return ServiceState(config, service_arrivals(config, seed), oracle)


def service_round(state: ServiceState) -> Round:
    base = default_config()
    one_worker = replace(base, topology=replace(base.topology, num_workers=1))
    ticks: List[float] = []
    started = clock()
    with memory_managed(SERVICE_MEM), cached(SERVICE_CACHE) as cache:
        env = Environment()
        service = JobService(
            state.config,
            cluster=build_cluster(env, one_worker),
            elastic=SERVICE_ELASTIC,
        )
        env.process(_slice_clock(env, ticks))
        service.simulate(list(state.arrivals))
    ended = clock()

    def rows_ok(job) -> bool:
        family_run = job.result.value
        return family_run.rows == state.oracle[family_run.family]

    virtual = _service_virtual(service)
    elastic = service.autoscaler.summary()
    virtual.update(
        scale_ups=elastic["scale_ups"],
        scale_downs=elastic["scale_downs"],
        job_elapsed_s=sum(
            job.result.value.elapsed_s
            for job in service.queue
            if job.state == "completed"
        ),
    )
    return Round(
        _job_ops(service, ended - started, rows_ok),
        virtual,
        services=[service],
        caches=[cache],
        parts=_slices(started, ticks, ended),
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], Any]
    run_round: Callable[[Any], Round]


WORKLOADS: Dict[str, Workload] = {
    "paper": Workload(paper_setup, paper_round),
    "jobs_flood": Workload(flood_setup, flood_round),
    "service": Workload(service_setup, service_round),
}
