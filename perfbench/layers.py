"""Per-layer timing, applied from outside the program.

The benchmark never edits ``repro``: it measures a layer by replacing
that layer's public entry point (a class method or a module function)
with a timed wrapper for the length of one run, then putting the
original back.

Most layers are generator functions driven by the simulation kernel,
so a call to one spans simulated time.  :class:`SpanTracer` therefore
times each *resume* of a wrapped generator (every ``send``/``throw``
the kernel or a delegating caller makes) and leaves the simulated
waits between resumes out.  A layer's self time is its busy time
minus the busy time of the wrapped calls nested inside it; busy time
that no wrapped layer claims is the kernel's (``sim.kernel``).

:class:`CreateTimer` is the cheap untraced probe: it records the wall
time of each ``VMShop.create`` call from its first resume to its
return, which is what a caller of the shop waits for.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Layer name -> (module, attribute path) of each wrapped entry point.
#: ``service_request_*`` are patched where ``VMShop.create`` looks them
#: up.  Megaload never calls ``FederationGateway.place``: its sites run
#: the gateway's spill ladder in the federation scenario's spill
#: methods, so those are the gateway tier's entry points too.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core.dagxml": (
        ("repro.shop.vmshop", "service_request_to_xml"),
        ("repro.shop.vmshop", "service_request_from_xml"),
    ),
    "shop.transport": (("repro.shop.protocol", "Transport.call"),),
    "shop.bidding": (("repro.shop.bidding", "BidCollector.collect"),),
    "plant.estimate": (("repro.plant.vmplant", "VMPlant.estimate"),),
    "plant.ppp": (
        ("repro.plant.ppp", "ProductionProcessPlanner.plan"),
    ),
    "plant.warehouse": (("repro.plant.warehouse", "VMWarehouse.select"),),
    "plant.config": (
        ("repro.plant.ppp", "ProductionProcessPlanner.run_actions"),
    ),
    "sim.hypervisor": (("repro.sim.hypervisor", "VMwareLine.clone"),),
    "sim.storage": (("repro.sim.storage", "NFSServer.copy_to_host"),),
    "vnet": (
        ("repro.vnet.hostonly", "HostOnlyNetworkPool.attach"),
        ("repro.vnet.hostonly", "HostOnlyNetworkPool.detach"),
    ),
    "federation.gateway": (
        ("repro.federation.gateway", "FederationGateway.place"),
        ("repro.federation.gateway", "FederationGateway.should_spill"),
        ("repro.federation.scenario",
         "FederationScenario._spill_with_retries"),
        ("repro.federation.scenario", "FederationScenario._local_fallback"),
        ("repro.federation.scenario", "FederationScenario._remote_create"),
    ),
    "analysis.streaming": (
        ("repro.analysis.streaming", "WorkloadSummary.from_state"),
        ("repro.analysis.streaming", "WorkloadSummary.merge"),
        ("repro.analysis.streaming", "WorkloadSummary.record_ok"),
        ("repro.analysis.streaming", "WorkloadSummary.record_failed"),
        ("repro.analysis.streaming", "WorkloadSummary.record_shed"),
    ),
}

#: Work units a layer's calls carry, counted from the call arguments.
UNITS: Dict[str, Callable[..., int]] = {
    "plant.config": lambda ppp, vm, line, dag, names, context: len(names),
}


class Span:
    """One call of a wrapped entry point."""

    __slots__ = (
        "layer", "name", "parent", "key", "env",
        "wall0", "wall1", "sim0", "sim1", "busy_s", "self_s",
    )

    def __init__(self, layer, name, parent, key, env):
        self.layer = layer
        self.name = name
        #: Index of the span that was running when this call was made.
        self.parent = parent
        #: The request's ``client_id`` or vmid, when the call shows one.
        self.key = key
        self.env = env
        self.wall0 = self.wall1 = None
        self.sim0 = self.sim1 = None
        self.busy_s = 0.0
        self.self_s = 0.0

    def as_record(self, index: int) -> dict:
        return {
            "id": index,
            "layer": self.layer,
            "name": self.name,
            "parent": self.parent,
            "key": self.key,
            "wall0": self.wall0,
            "wall1": self.wall1,
            "sim0": self.sim0,
            "sim1": self.sim1,
            "busy_s": self.busy_s,
            "self_s": self.self_s,
        }


def _request_key(args: Sequence, kwargs: dict) -> Optional[str]:
    for arg in list(args) + list(kwargs.values()):
        for attr in ("client_id", "vmid"):
            value = getattr(arg, attr, None)
            if isinstance(value, str):
                return value
        request = getattr(arg, "request", None)
        value = getattr(request, "client_id", None)
        if isinstance(value, str):
            return value
    return None


def _env_of(args: Sequence):
    for arg in args[:2]:
        env = getattr(arg, "env", None)
        if env is None:
            env = getattr(getattr(arg, "shop", None), "env", None)
        if env is not None and hasattr(env, "now"):
            return env
    return None


class SpanTracer:
    """Records spans and per-layer self time for wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.units: Dict[str, int] = {}
        #: Active resumes, innermost last: [span index, child seconds].
        self._stack: List[list] = []

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn: Callable, layer: str) -> Callable:
        """A stand-in for ``fn`` that records a span per call."""
        name = getattr(fn, "__qualname__", repr(fn))
        unit = UNITS.get(layer)
        self.self_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)
        if unit is not None:
            self.units.setdefault(layer, 0)

        def open_span(args, kwargs) -> int:
            if unit is not None:
                self.units[layer] += unit(*args, **kwargs)
            return self._open(layer, name, args, kwargs)

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                index = open_span(args, kwargs)
                return self._drive(fn(*args, **kwargs), index)

            return traced_gen

        def traced(*args, **kwargs):
            index = open_span(args, kwargs)
            t0 = self._enter(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(t0)

        return traced

    def _open(self, layer, name, args, kwargs) -> int:
        parent = self._stack[-1][0] if self._stack else None
        key = _request_key(args, kwargs)
        env = _env_of(args)
        if parent is not None:
            up = self.spans[parent]
            key = key if key is not None else up.key
            env = env if env is not None else up.env
        self.calls[layer] += 1
        self.spans.append(Span(layer, name, parent, key, env))
        return len(self.spans) - 1

    def _enter(self, index: int) -> float:
        self._stack.append([index, 0.0])
        return self.clock()

    def _leave(self, t0: float) -> None:
        t1 = self.clock()
        index, child_s = self._stack.pop()
        span = self.spans[index]
        dt = t1 - t0
        own = dt - child_s
        span.busy_s += dt
        span.self_s += own
        self.self_s[span.layer] += own
        if span.wall0 is None:
            span.wall0 = t0
            if span.env is not None:
                span.sim0 = span.env.now
        span.wall1 = t1
        if span.env is not None:
            span.sim1 = span.env.now
        if self._stack:
            self._stack[-1][1] += dt

    def _drive(self, gen, index: int):
        """Delegate to ``gen`` exactly as ``yield from`` would, timing
        each resume."""
        value, exc = None, None
        while True:
            t0 = self._enter(index)
            try:
                if exc is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(exc)
            except StopIteration as stop:
                self._leave(t0)
                return stop.value
            except BaseException:
                self._leave(t0)
                raise
            self._leave(t0)
            try:
                value, exc = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:
                value, exc = None, thrown

    # -- results -----------------------------------------------------------
    def records(self) -> Iterator[dict]:
        for index, span in enumerate(self.spans):
            yield span.as_record(index)


class CreateTimer:
    """Wall seconds of each ``VMShop.create`` call, keyed by its env."""

    def __init__(self):
        self.samples: Dict[int, List[float]] = {}

    def wrap(self, create: Callable) -> Callable:
        samples = self.samples
        clock = time.perf_counter

        def timed_create(shop, *args, **kwargs):
            t0 = clock()
            try:
                ad = yield from create(shop, *args, **kwargs)
            except GeneratorExit:
                raise
            except BaseException:
                samples.setdefault(id(shop.env), []).append(clock() - t0)
                raise
            samples.setdefault(id(shop.env), []).append(clock() - t0)
            return ad

        return timed_create

    def take(self, env=None) -> List[float]:
        """Samples of one env (or of all envs), removing them."""
        if env is not None:
            return self.samples.pop(id(env), [])
        out = [x for xs in self.samples.values() for x in xs]
        self.samples.clear()
        return out


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(replacements: Sequence[Tuple[str, str, Callable]]):
    """Swap ``(module, attribute path) -> wrapper(original)`` for the
    body of the ``with``; always restores the originals."""
    saved = []
    try:
        for module, path, make in replacements:
            owner, attr = _resolve(module, path)
            raw = inspect.getattr_static(owner, attr)
            saved.append((owner, attr, raw, attr in vars(owner)))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            elif isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
        yield
    finally:
        for owner, attr, raw, own in reversed(saved):
            if own:
                setattr(owner, attr, raw)
            else:  # inherited: drop the override
                delattr(owner, attr)


def layer_patches(tracer: SpanTracer):
    """The replacements that route every layer's entry points through
    ``tracer``."""
    return [
        (module, path, lambda fn, layer=layer: tracer.wrap(fn, layer))
        for layer, targets in LAYERS.items()
        for module, path in targets
    ]
