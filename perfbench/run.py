"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  The run

1. times three imports of the package in fresh interpreters and three
   set-ups of the workload from the seed (inputs plus correctness
   oracle), and reports the sum of the two medians as ``setup_s``;
2. runs one warm-up round, whose virtual numbers become the reference
   and are checked against ``expected.json`` when the seed is recorded
   there;
3. runs rounds for ``--seconds`` seconds, checking every op against the
   oracle and the reference;
4. reports as ``ops_per_s`` the ops of a round over the sum of the
   fastest wall time each part of a round took in the run's untraced
   rounds (a part is a task run in ``paper`` and one virtual second of
   the simulation elsewhere);
5. prints a report, then one JSON line: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1`` (traced and
   untraced rounds alternate, and the layer numbers are means over the
   traced rounds).

It exits 1 if any op failed and 2 on a usage error or when the package
is missing.  ``--record`` stores the warm-up round's virtual numbers in
``expected.json`` instead of measuring.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 3
MIN_ROUNDS = 2

clock = time.perf_counter

#: Layers whose self time the traced run attributes (``repro`` packages).
LAYERS = (
    "sim", "cluster", "relational", "workflow", "rayx", "cache",
    "sched", "jobs", "mem", "ml", "gen",
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "jobs_flood", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the seed's virtual numbers to expected.json")
    return parser.parse_args(argv)


def provenance(args: argparse.Namespace) -> Dict[str, Any]:
    """Code version, interpreter, host and inputs behind a result."""
    commit = "unknown"
    try:
        toplevel, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    else:
        if Path(toplevel).resolve() == ROOT:  # not an enclosing repository
            commit = head
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_seconds() -> float:
    """Median wall time of importing the workloads in a fresh interpreter.

    An import happens once per process, so the set-up repeats measure
    it in child interpreters (each waited for) instead.
    """
    walls = []
    for _ in range(SETUP_REPEATS):
        began = clock()
        subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path[:0] = sys.argv[1:]; import workloads",
             str(ROOT / "src"), str(HERE)],
            check=True, timeout=120,
        )
        walls.append(clock() - began)
    return statistics.median(walls)


def ops_digest(rnd) -> str:
    """Bit-exact fingerprint of every op's virtual record."""
    return hashlib.sha256(
        repr([(op.key, op.virtual) for op in rnd.ops]).encode()
    ).hexdigest()


def failed_ops(rnd, reference, reference_ok: bool) -> int:
    """Ops whose rows or virtual record do not match."""
    if not reference_ok or rnd.virtual != reference.virtual:
        return len(rnd.ops)
    failed = abs(len(rnd.ops) - len(reference.ops))
    for op, ref in zip(rnd.ops, reference.ops):
        if not op.rows_ok or (op.key, op.virtual) != (ref.key, ref.virtual):
            failed += 1
    return failed


def layer_metrics(rnd, snap: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer numbers of one traced round."""
    stats = snap["stats"]
    wall = rnd.wall_s
    events = sum(env._sequence for env in snap["instances"]["sim.environment"])
    sim_self = wall - snap["covered_s"]
    self_s = {layer: 0.0 for layer in LAYERS}
    self_s["sim"] = sim_self
    for name, (_calls, seconds, _bytes) in stats.items():
        self_s[name.split(".")[0]] += seconds
    lookups = sum(c.hits + c.misses for c in rnd.caches)
    autoscalers = [s.autoscaler for s in rnd.services if s.autoscaler is not None]
    out = {
        "sim.events": events,
        "sim.self_s": sim_self,
        "sim.us_per_event": 1e6 * sim_self / events if events else 0.0,
        "cluster.estimate_bytes.calls": stats["cluster.estimate_bytes"][0],
        "cluster.estimate_bytes.self_s": stats["cluster.estimate_bytes"][1],
        "cluster.estimate_bytes.bytes": stats["cluster.estimate_bytes"][2],
        "cluster.transfer.calls": stats["cluster.transfer"][0],
        "cluster.transfer.bytes": stats["cluster.transfer"][2],
        "cluster.compute.calls": stats["cluster.compute"][0],
        "relational.validate.calls": stats["relational.validate"][0],
        "relational.validate.self_s": stats["relational.validate"][1],
        "workflow.run.calls": stats["workflow.run"][0],
        "workflow.run.self_s": stats["workflow.run"][1],
        "workflow.build.self_s": stats["workflow.build"][1],
        "rayx.submit.calls": stats["rayx.submit"][0],
        "rayx.submit.self_s": stats["rayx.submit"][1],
        "rayx.put.bytes": stats["rayx.put"][2],
        "rayx.get.calls": stats["rayx.get"][0],
        "rayx.get.self_s": stats["rayx.get"][1],
        "cache.lookups": lookups,
        "cache.hit_ratio": sum(c.hits for c in rnd.caches) / lookups if lookups else 0.0,
        "cache.inserts": sum(c.inserts for c in rnd.caches),
        "cache.bytes": sum(c.total_bytes for c in rnd.caches),
        "cache.fingerprint.self_s": stats["cache.fingerprint"][1],
        "sched.place.calls": stats["sched.place"][0],
        "sched.place.self_s": stats["sched.place"][1],
        "jobs.ordering.calls": stats["jobs.ordering"][0],
        "jobs.ordering.self_s": stats["jobs.ordering"][1],
        "jobs.share_key.calls": stats["jobs.share_key"][0],
        "jobs.queue_scan.self_s": stats["jobs.queue_scan"][1],
        "jobs.peak_queue_depth": max((s.peak_queue_depth for s in rnd.services), default=0),
        "jobs.blocked": sum(sum(s.blocked.values()) for s in rnd.services),
        "mem.allocate.calls": stats["mem.allocate"][0],
        "mem.allocate.self_s": stats["mem.allocate"][1],
        "mem.spills": sum(m.spill_count for m in snap["instances"]["mem.manager"]),
        "elastic.scale_ups": sum(a.summary()["scale_ups"] for a in autoscalers),
        "elastic.scale_downs": sum(a.summary()["scale_downs"] for a in autoscalers),
        "elastic.node_seconds": sum(a.service.cluster.node_seconds() for a in autoscalers),
        "ml.self_s": stats["ml.model"][1],
        "gen.family.self_s": stats["gen.family"][1],
    }
    for layer in LAYERS:
        out[f"share.{layer}"] = self_s[layer] / wall
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.startswith("share.") or name.endswith("_ratio"):
        return "fraction"
    return {"sim.us_per_event": "us", "elastic.node_seconds": "node-s"}.get(name, "count")


def load_expected() -> Dict[str, Any]:
    if EXPECTED.is_file():
        return json.loads(EXPECTED.read_text())
    return {}


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}; "
              "run from a full source checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2

    import_s = 0.0 if args.record else import_seconds()
    sys.path.insert(0, str(ROOT / "src"))
    import probes
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_walls = []
    for _ in range(1 if args.record else SETUP_REPEATS):
        state = None  # let the collector free the previous set-up first
        gc.collect()
        began = clock()
        state = workload.setup(args.seed)
        setup_walls.append(clock() - began)
    setup_s = import_s + statistics.median(setup_walls)

    began = clock()
    reference = workload.run_round(state)
    warmup_s = clock() - began
    recorded = {"virtual": reference.virtual, "ops_digest": ops_digest(reference)}
    expected = load_expected()
    known = expected.get(args.workload, {}).get(str(args.seed))
    reference_ok = all(op.rows_ok for op in reference.ops) and known in (None, recorded)
    if args.record:
        if not reference_ok:
            print("perfbench: not recording: the warm-up round failed", file=sys.stderr)
            return 1
        expected.setdefault(args.workload, {})[str(args.seed)] = recorded
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"recorded {args.workload} seed {args.seed}: {json.dumps(recorded)}")
        return 0

    gc.collect()
    gc.freeze()
    #: Fastest wall time of each part of a round over the correct
    #: untraced rounds.  Shared hosts slow down in bursts of a second or
    #: more, so a whole round is rarely spared while each short part
    #: usually is in some round; interference only ever adds time.
    best: Dict[Any, float] = {}
    walls: Dict[bool, List[float]] = {False: [], True: []}
    layers: List[Dict[str, float]] = []
    attempted = failed = 0
    # Start no round that would end more than half a round past the
    # deadline, but run at least MIN_ROUNDS (one of each kind if traced).
    deadline = clock() + args.seconds
    index = 0
    last_wall = 0.0
    while (
        clock() + last_wall / 2 < deadline
        or len(walls[False]) < (1 if args.trace else MIN_ROUNDS)
        or len(walls[True]) < args.trace
    ):
        traced = bool(args.trace) and index % 2 == 1
        index += 1
        gc.collect()
        if traced:
            probes.install()
        try:
            rnd = workload.run_round(state)
        finally:
            if traced:
                probes.uninstall()
        bad = failed_ops(rnd, reference, reference_ok)
        attempted += len(rnd.ops)
        failed += bad
        walls[traced].append(rnd.wall_s)
        last_wall = rnd.wall_s
        if traced:
            layers.append(layer_metrics(rnd, probes.snapshot()))
        elif bad == 0:
            for part, wall_s in rnd.parts.items():
                best[part] = min(wall_s, best.get(part, wall_s))

    ops_per_s = len(reference.ops) / sum(best.values()) if best else 0.0
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "virtual_s": (reference.virtual["virtual_s"], "virtual-s"),
    }
    report = {
        "provenance": provenance(args),
        "error_rate": failed / attempted,
        "reference_recorded": known is not None,
        "import_s": import_s,
        "setup_walls_s": setup_walls,
        "warmup_s": warmup_s,
        "round_walls_s": walls[False],
        "virtual": reference.virtual,
    }
    if args.trace:
        per_layer = {
            name: statistics.fmean(layer[name] for layer in layers)
            for name in layers[0]
        }
        traced_wall = statistics.median(walls[True])
        untraced_wall = statistics.median(walls[False])
        per_layer.update({
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        report["traced_round_walls_s"] = walls[True]
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in per_layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}

    for name, (value, unit) in end_to_end.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    print(f"{'error_rate':<34} {report['error_rate']:>16.6f} fraction")
    for name, value in reference.virtual.items():
        print(f"{'virtual.' + name:<34} {value!r:>16} exact")
    if args.trace:
        for name, metric in metrics.items():
            print(f"{name:<34} {metric['value']:>16.6f} {metric['unit']}")
    print("report " + json.dumps(report))
    correct = failed == 0 and reference_ok
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
