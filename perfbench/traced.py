"""Run the ``repro`` CLI with timers around the public functions of each
layer, then write the spans out.

    python3 perfbench/traced.py SPANS.json -- [repro CLI arguments]

The program is not edited: the timers replace module attributes
(``repro.scenario.build_topology``, ``repro.core.serialize.map_to_json``,
``MapStore.from_map``, ...) before ``repro.cli.main`` runs. Spans stay in
memory and are written once, when the CLI returns. The map builder also
gets a :class:`repro.obs.Recorder` (with the default ``BuilderOptions``),
whose own spans and gauges are written alongside.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

#: ``repro.scenario`` attributes timed as world-generation steps.
WORLD_STEPS = {
    "build_topology": "world.topology",
    "build_population": "world.population",
    "deploy_cdns": "world.cdn",
    "build_traffic_matrix": "world.traffic",
    "assign_flows": "world.flows",
    "build_routers": "world.routers",
    "build_public_view": "world.public_view",
}


class Tracer:
    """Collects ``(name, start, end, parent)`` spans from any thread."""

    def __init__(self) -> None:
        self.spans = []
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               stack[-1] if stack else None, None])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, measure=None):
        """``fn`` timed as a span called ``name``; ``measure(result)``
        may add to a counter of the same name."""
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if measure is not None:
                with self._lock:
                    self.counters[name] = self.counters.get(name, 0) \
                        + measure(result)
            return result
        return timed


class _TimedFile:
    """A file whose lifetime, open to close, is one span."""

    def __init__(self, tracer: Tracer, name: str, handle) -> None:
        self._tracer = tracer
        self._handle = handle
        self._index = tracer.open(name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()
        self._tracer.close(self._index)

    def write(self, data):
        return self._handle.write(data)


def install(tracer: Tracer):
    """Replace the layer entry points with timed versions; returns the
    builder's recorder."""
    import repro
    import repro.cli as cli
    import repro.core.serialize as serialize
    import repro.scenario as scenario
    import repro.serve as serve
    import repro.serve.watch as watch
    from repro.core.mapstore import MapStore
    from repro.obs import Recorder

    for attr, name in WORLD_STEPS.items():
        setattr(scenario, attr, tracer.wrap(name, getattr(scenario, attr)))
    world = tracer.wrap("world", scenario.build_scenario)
    scenario.build_scenario = repro.build_scenario = \
        cli.build_scenario = world

    builder_recorder = Recorder()
    base = cli.MapBuilder

    class RecordedBuilder(base):
        def __init__(self, *args, recorder=None, **kwargs):
            if recorder is None or not recorder.enabled:
                recorder = builder_recorder
            super().__init__(*args, recorder=recorder, **kwargs)

    RecordedBuilder.build = tracer.wrap("map.build", base.build)
    cli.MapBuilder = RecordedBuilder

    serialize.map_to_json = tracer.wrap("serialize.to_json",
                                        serialize.map_to_json,
                                        measure=len)
    serialize.map_from_json = tracer.wrap("store.parse",
                                          serialize.map_from_json)
    MapStore.from_map = staticmethod(tracer.wrap("store.from_map",
                                                 MapStore.from_map))
    serve.load_store = tracer.wrap("store.load", serve.load_store)
    watch.load_store = tracer.wrap("serve.watch.reload", watch.load_store)
    cli.open = lambda path, *args, **kwargs: _TimedFile(
        tracer, "io.write", open(path, *args, **kwargs))
    return builder_recorder


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- [repro args]",
              file=sys.stderr)
        return 2
    out, args = argv[0], argv[2:]
    tracer = Tracer()
    index = tracer.open("proc.import")
    import repro.cli
    tracer.close(index)
    recorder = install(tracer)
    code = 1
    try:
        code = repro.cli.main(args)
    finally:
        with open(out, "w") as handle:
            json.dump({
                "t_start": T_START,
                "t_end": time.perf_counter(),
                "exit_code": code,
                "spans": tracer.spans,
                "counters": tracer.counters,
                "recorder": {
                    "spans": [[s.path, s.name, s.calls, s.wall_s]
                              for s in recorder.spans()],
                    "gauges": recorder.gauges,
                },
            }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
