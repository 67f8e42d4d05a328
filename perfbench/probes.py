"""Outside-in layer probes for the traced benchmark run.

The program under test carries no host-time instrumentation, so the
traced run wraps the public functions of each layer from here and
removes the wrappers again afterwards.  Nothing under ``src/`` changes.

* A function is patched wherever callers look it up: in every loaded
  ``repro`` module that binds it (``estimate_bytes`` is bound in
  ``repro.cluster.serialization``, ``repro.cluster`` and
  ``repro.relational.tup``, for example).  A method or property is
  patched on its class.
* A timed probe opens a span: its self time is its duration minus the
  time of the probe spans it encloses.  A probe that is re-entered
  (``estimate_bytes`` and ``fingerprint_value`` recurse) counts once,
  at the outermost call.
* Generator functions (the simulation processes ``ObjectStore.get``,
  ``MemoryManager.allocate``) are timed step by step: each resumption
  by the kernel is one slice of the span.
* :func:`uninstall` sweeps every ``repro`` module and class and puts
  back the original of any wrapper it finds.

Wrappers keep their counters in module globals, never in closure
cells: the result cache fingerprints closures, and a closure holding a
mutable counter would change fingerprints from call to call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["PROBES", "install", "uninstall", "reset", "snapshot", "wrappers_left"]

clock = time.perf_counter

#: span name -> [calls, self seconds, bytes]
STATS: Dict[str, List[float]] = {}
#: span name -> 1 while a span of that name is open (recursion guard)
_ACTIVE: Dict[str, int] = {}
#: open spans, innermost last: [start, time covered by child spans]
_STACK: List[List[float]] = []
#: [wall time covered by outermost spans]
_COVERED = [0.0]
#: class name -> instances created while installed
INSTANCES: Dict[str, List[Any]] = {}
#: id(wrapper) -> (wrapper, original)
_ORIGINALS: Dict[int, Tuple[Any, Any]] = {}


def _close(name: str, frame: List[float], calls: int) -> None:
    duration = clock() - frame[0]
    stats = STATS[name]
    stats[0] += calls
    stats[1] += duration - frame[1]
    if _STACK:
        _STACK[-1][1] += duration
    else:
        _COVERED[0] += duration


def _timed(name: str, fn: Callable, nbytes: Optional[Callable]) -> Callable:
    def probe(*args, **kwargs):
        if _ACTIVE[name]:
            return fn(*args, **kwargs)
        _ACTIVE[name] = 1
        frame = [clock(), 0.0]
        _STACK.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            _STACK.pop()
            _ACTIVE[name] = 0
            _close(name, frame, 1)
        if nbytes is not None:
            STATS[name][2] += nbytes(args, kwargs, result)
        return result

    return probe


def _timed_generator(name: str, fn: Callable, nbytes: Optional[Callable]) -> Callable:
    def probe(*args, **kwargs):
        inner = fn(*args, **kwargs)
        STATS[name][0] += 1
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            outer = not _ACTIVE[name]
            if outer:
                _ACTIVE[name] = 1
                frame = [clock(), 0.0]
                _STACK.append(frame)
            try:
                item = inner.send(value) if error is None else inner.throw(error)
            except StopIteration as stop:
                result = stop.value
                break
            finally:
                if outer:
                    _STACK.pop()
                    _ACTIVE[name] = 0
                    _close(name, frame, 0)
            try:
                value, error = (yield item), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into the body
                value, error = None, exc
        if nbytes is not None:
            STATS[name][2] += nbytes(args, kwargs, result)
        return result

    return probe


def _counted(name: str, fn: Callable, nbytes: Optional[Callable]) -> Callable:
    def probe(*args, **kwargs):
        result = fn(*args, **kwargs)
        stats = STATS[name]
        stats[0] += 1
        if nbytes is not None:
            stats[2] += nbytes(args, kwargs, result)
        return result

    return probe


def _collected(name: str, fn: Callable, nbytes: Optional[Callable]) -> Callable:
    def probe(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        INSTANCES[name].append(self)

    return probe


TIMED, GENERATOR, COUNTED, COLLECTED = _timed, _timed_generator, _counted, _collected


def _result(args, kwargs, result) -> int:
    return result


def _arg(index: int, keyword: str) -> Callable:
    def pick(args, kwargs, result) -> int:
        return args[index] if len(args) > index else kwargs[keyword]

    return pick


def _stored_bytes(args, kwargs, result) -> int:
    store, ref = args[0], args[1] if len(args) > 1 else kwargs["ref"]
    return store.nbytes_of(ref)


#: (span name, module, attribute path, kind, bytes extractor).  The span
#: name's first component is the layer (a ``repro`` package).
PROBES: Tuple[Tuple[str, str, str, Callable, Optional[Callable]], ...] = (
    ("sim.environment", "repro.sim.core", "Environment.__init__", COLLECTED, None),
    ("cluster.estimate_bytes", "repro.cluster.serialization", "estimate_bytes", TIMED, _result),
    ("cluster.transfer", "repro.cluster.network", "Network.transfer", COUNTED, _arg(3, "nbytes")),
    ("cluster.compute", "repro.cluster.node", "Node.compute", COUNTED, None),
    ("relational.validate", "repro.relational.schema", "Schema.validate", TIMED, None),
    ("workflow.run", "repro.workflow.engine", "run_workflow", TIMED, None),
    ("workflow.build", "repro.workflow.spec.loader", "build_workflow", TIMED, None),
    ("rayx.submit", "repro.rayx.runtime", "RayxRuntime.submit", TIMED, None),
    ("rayx.put", "repro.rayx.objectstore", "ObjectStore.put", GENERATOR, _stored_bytes),
    ("rayx.get", "repro.rayx.objectstore", "ObjectStore.get", GENERATOR, None),
    ("cache.fingerprint", "repro.cache.fingerprint", "fingerprint_value", TIMED, None),
    ("cache.fingerprint", "repro.cache.fingerprint", "fingerprint_function", TIMED, None),
    ("cache.fingerprint", "repro.rayx.runtime", "task_fingerprint", TIMED, None),
    ("sched.place", "repro.sched.scheduler", "Scheduler.place", TIMED, None),
    ("jobs.ordering", "repro.jobs.fairshare", "FairShare.ordering", TIMED, None),
    ("jobs.share_key", "repro.jobs.fairshare", "FairShare.share_key", COUNTED, None),
    ("jobs.queue_scan", "repro.jobs.queue", "JobQueue.pending", TIMED, None),
    ("jobs.queue_scan", "repro.jobs.queue", "JobQueue.depth", TIMED, None),
    ("jobs.queue_scan", "repro.jobs.queue", "JobQueue.drained", TIMED, None),
    ("mem.manager", "repro.mem.manager", "MemoryManager.__init__", COLLECTED, None),
    ("mem.allocate", "repro.mem.manager", "MemoryManager.allocate", GENERATOR, None),
    ("ml.model", "repro.ml.train", "Trainer.fit", TIMED, None),
    ("ml.model", "repro.ml.models.bert", "SimBertClassifier.fit", TIMED, None),
    ("ml.model", "repro.ml.models.bert", "SimBertClassifier.train_epoch", TIMED, None),
    ("ml.model", "repro.ml.models.bert", "SimBertClassifier.predict_proba", TIMED, None),
    ("ml.model", "repro.ml.models.bart", "SimBartGenerator.batch_generate", TIMED, None),
    ("gen.family", "repro.gen.families", "run_family", TIMED, None),
)


def _wrap(kind: Callable, name: str, fn: Callable, nbytes: Optional[Callable]) -> Callable:
    return functools.update_wrapper(kind(name, fn, nbytes), fn)


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _classes(module) -> List[type]:
    return [
        value
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]


def reset() -> None:
    """Zero every counter and forget collected instances."""
    for name, *_ in PROBES:
        STATS[name] = [0, 0.0, 0]
        _ACTIVE[name] = 0
        INSTANCES[name] = []
    _STACK.clear()
    _COVERED[0] = 0.0


def install() -> None:
    """Wrap every probe target; import the modules first."""
    if _ORIGINALS:
        raise RuntimeError("probes already installed")
    reset()
    for name, module_name, path, kind, nbytes in PROBES:
        module = importlib.import_module(module_name)
        if "." in path:
            owner_name, attr = path.split(".")
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(_wrap(kind, name, original.fget, nbytes))
            else:
                wrapped = _wrap(kind, name, original, nbytes)
            _ORIGINALS[id(wrapped)] = (wrapped, original)
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, path)
        wrapped = _wrap(kind, name, original, nbytes)
        _ORIGINALS[id(wrapped)] = (wrapped, original)
        for other in _repro_modules():
            for binding, value in list(vars(other).items()):
                if value is original:
                    setattr(other, binding, wrapped)


def _restore(namespace: Dict[str, Any], setter: Callable[[str, Any], None]) -> None:
    for binding, value in list(namespace.items()):
        entry = _ORIGINALS.get(id(value))
        if entry is not None and entry[0] is value:
            setter(binding, entry[1])


def uninstall() -> None:
    """Put back every original, wherever a wrapper is still bound."""
    for module in _repro_modules():
        _restore(vars(module), lambda k, v, m=module: setattr(m, k, v))
        for cls in _classes(module):
            _restore(dict(cls.__dict__), lambda k, v, c=cls: setattr(c, k, v))
    _ORIGINALS.clear()


def wrappers_left() -> List[str]:
    """Names still bound to a probe wrapper (empty after uninstall)."""
    left = []
    for module in _repro_modules():
        for binding, value in vars(module).items():
            if getattr(value, "__code__", None) in _PROBE_CODES:
                left.append(f"{module.__name__}.{binding}")
        for cls in _classes(module):
            for binding, value in cls.__dict__.items():
                if isinstance(value, property):
                    value = value.fget
                if getattr(value, "__code__", None) in _PROBE_CODES:
                    left.append(f"{module.__name__}.{cls.__name__}.{binding}")
    return left


def snapshot() -> Dict[str, Any]:
    """Counters and collected instances since the last :func:`reset`."""
    return {
        "stats": {name: list(values) for name, values in STATS.items()},
        "covered_s": _COVERED[0],
        "instances": {name: list(items) for name, items in INSTANCES.items()},
    }


_PROBE_CODES = {
    kind("", None, None).__code__ for kind in (TIMED, GENERATOR, COUNTED, COLLECTED)
}
