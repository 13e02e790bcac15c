"""Out-of-process benchmark: build the traffic map with the ``repro`` CLI,
serve it with ``repro serve`` and query it over keep-alive HTTP.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 16 \\
        --trace 0

Run from the root of a checkout. Every run makes cold CLI builds of the
``default`` map (timed), loads the artefact in-process for the query
stream and reference answers, starts the server twice (timed), then runs
a closed-loop phase, an open-loop phase and artefact swaps on the idle
server. Workloads differ only in the query stream; see ``NOTES.md``.

The last line of standard output is one JSON object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones, from a
run whose builds and server go through ``traced.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from client import TIMEOUT_S, Connection, closed_loop, open_loop
from harness import (MIN_BEYOND, Sample, Span, covered, join_access_log,
                     lateness, midmean, percentile, percentile_or_max,
                     recorder_children, self_time)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: per-run directories and the
#: artefact cache (listed in the repository's .gitignore).
WORK = ROOT / ".perfbench"

SCALE = "default"
WORLD_SEED = 20211110
#: Artefact B: the same world measured under a fault plan, so the
#: server's re-attached world stays valid when the watcher swaps it in.
B_FAULTS = "probe_loss=0.2"
#: Open-loop arrival rate, fixed on every commit. At the commit that
#: introduced the benchmark about a tenth of requests stall for 44 ms at
#: this rate, which keeps p95 inside the stall and below the requests
#: queued behind one (NOTES.md, "Departures").
OPEN_RATE = 14.0
#: Share of ``--seconds`` spent in the closed-loop phase; the rest sets
#: the open-loop arrival count.
CLOSED_SHARE = 0.1
CONNECTIONS = min(2, os.cpu_count() or 1)
SERVER_STARTS = 2
BUILDS = 2
IDLE_SWAPS = 4
#: The generator fell behind when p90 lateness exceeds this (p90: some
#: requests wait for a connection, so fewer than 200 go out on time).
LATE_LIMIT_MS = 10.0
LATE_TAIL = 0.9
TAIL = 0.95
#: Open-loop arrivals in a run, at least: enough for MIN_BEYOND samples
#: beyond the TAIL percentile whatever ``--seconds`` is.
MIN_OPEN = round(MIN_BEYOND / (1 - TAIL))
SWAP_TIMEOUT_S = 30.0

CAMPAIGNS = ("cache-probing", "root-logs", "tls-scan", "sni-scan",
             "ecs-mapping", "catchment-probing")
WORLD_STEPS = ("topology", "population", "cdn", "traffic", "flows",
               "routers", "public_view")
ENDPOINTS = ("cdf", "outage", "anycast", "map", "health")


#: Workload name -> query mix of ``reference.py``: "hot" (the
#: seeded_queries pool) or "cold" (distinct keys).
WORKLOADS = {"serve-hot": "hot", "serve-cold": "cold"}


class Failures:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Dict[str, int] = {}

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return ok


# -- processes --------------------------------------------------------------

def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _repro(args: Sequence[str], spans: Optional[Path] = None) -> List[str]:
    """Command line of the CLI, optionally under the span tracer."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "traced.py"), str(spans), "--",
            *args]


def timed_process(cmd: Sequence[str], log: Path) -> Tuple[float, float]:
    """Run ``cmd`` to completion: ``(wall_s, peak_rss_mb)``."""
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT)
        __, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}; "
                           f"see {log}")
    return wall, usage.ru_maxrss / 1024.0


def build_cmd(out: Path, faults: Optional[str] = None,
              spans: Optional[Path] = None) -> List[str]:
    args = ["--scale", SCALE, "--seed", str(WORLD_SEED), "--workers", "1",
            "--map-json", str(out)]
    if faults is not None:
        args += ["--faults", faults]
    return _repro(args + ["summary"], spans)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest() -> str:
    """Digest of the program's sources: keys the artefact cache."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reference(artefact: Path, out: Path, mix: str, seed: int) -> Dict:
    cmd = [sys.executable, str(HERE / "reference.py"), str(artefact),
           str(out), "--scale", SCALE, "--seed", str(WORLD_SEED),
           "--mix", mix, "--bench-seed", str(seed)]
    subprocess.run(cmd, env=_env(), cwd=ROOT, check=True)
    with open(out) as handle:
        return json.load(handle)


def artefact_b() -> Tuple[Path, str]:
    """The faulted artefact and its digest, built once per source tree
    (before anything is timed) and reused by later runs."""
    cache = WORK / "cache" / source_digest()
    path, digest_file = cache / "B.json", cache / "B.digest"
    if not digest_file.exists():
        cache.mkdir(parents=True, exist_ok=True)
        tmp = cache / f"B.{os.getpid()}.json"
        timed_process(build_cmd(tmp, faults=B_FAULTS),
                      cache / f"B.{os.getpid()}.log")
        digest = reference(tmp, cache / f"B.{os.getpid()}.ref.json",
                           "digest", 0)["digest"]
        os.replace(tmp, path)
        (cache / f"B.{os.getpid()}.digest").write_text(digest)
        os.replace(cache / f"B.{os.getpid()}.digest", digest_file)
        for scratch in cache.glob(f"B.{os.getpid()}.*"):
            scratch.unlink()
    return path, digest_file.read_text().strip()


class Server:
    """A ``repro serve`` process; ``setup_s`` is spawn to first 200
    from ``/v1/readyz``."""

    def __init__(self, cmd: Sequence[str], log: Path) -> None:
        self.lines: List[str] = []
        self._port: Optional[int] = None
        self._ready = threading.Event()
        self._log = open(log, "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT,
                                     stdout=self._log,
                                     stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self._wait_ready(deadline=start + 120.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self) -> None:
        for line in self.proc.stderr:
            self.lines.append(line)
            self._log.write(line)
            if self._port is None and " on http://" in line:
                self._port = int(line.split(" on http://")[1]
                                 .split()[0].rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def _wait_ready(self, deadline: float) -> None:
        self._ready.wait(max(0.0, deadline - time.perf_counter()))
        if self._port is None:
            raise RuntimeError("server exited before listening: "
                               + "".join(self.lines[-5:]))
        while time.perf_counter() < deadline:
            conn = Connection(self._port, timeout=5.0)
            try:
                status, __, __ = conn.get("/v1/readyz", "readyz")
            except OSError:
                status = 0
            finally:
                conn.close()
            if status == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("server never became ready")

    @property
    def port(self) -> int:
        assert self._port is not None
        return self._port

    def status(self, field: str) -> float:
        """A ``kB`` field of ``/proc/<pid>/status`` (e.g. VmHWM)."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
        raise KeyError(field)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) \
            / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(timeout=10)
        self._log.close()
        return code

    def count(self, text: str) -> int:
        return sum(1 for line in self.lines if text in line)


def serve_cmd(served: Path, trace_dir: Optional[Path]) -> List[str]:
    args = ["--scale", SCALE, "--seed", str(WORLD_SEED)]
    spans = None
    if trace_dir is not None:
        args += ["--metrics", str(trace_dir / "serve-manifest.json")]
        spans = trace_dir / "serve-spans.json"
    args += ["serve", "--map-json", str(served), "--port", "0",
             "--watch", "--watch-interval", "0.1"]
    if trace_dir is not None:
        args += ["--access-log", str(trace_dir / "access.jsonl")]
    return _repro(args, spans)


def scrape(port: int) -> Dict[str, float]:
    conn = Connection(port)
    try:
        status, __, body = conn.get("/v1/metricsz?format=json", "scrape")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"metricsz answered {status}")
    return json.loads(body)["counters"]


def replace_artefact(source: Path, served: Path) -> float:
    """Atomically point ``served`` at a copy of ``source``; returns the
    replace time."""
    tmp = served.with_suffix(".swap")
    try:
        os.link(source, tmp)
    except OSError:
        shutil.copyfile(source, tmp)
    os.replace(tmp, served)
    return time.perf_counter()


# -- measurement ------------------------------------------------------------

def poisson_schedule(paths: Sequence[str], seed: int
                     ) -> List[Tuple[float, str]]:
    rng = np.random.default_rng([seed, 0xA771])
    offsets = np.cumsum(rng.exponential(1.0 / OPEN_RATE,
                                        size=len(paths)))
    return list(zip(offsets.tolist(), paths))


def swap_landed(samples: Sequence[Sample], replaced: float,
                digest: str) -> Optional[float]:
    """Seconds from the replace to the first response carrying the new
    digest, or None when none arrived."""
    done = [s.done for s in samples
            if s.done > replaced and s.digest == digest]
    return min(done) - replaced if done else None


def check_samples(samples: Sequence[Sample], digests: Sequence[str],
                  refs: Dict[str, str], digest_a: str,
                  failures: Failures) -> None:
    """Every response is a 200 carrying valid JSON and a served digest;
    sampled answers equal the in-process ones byte for byte."""
    for sample in samples:
        ok = sample.status == 200 and sample.digest in digests
        if ok:
            try:
                json.loads(sample.body)
            except ValueError:
                ok = False
        if ok and sample.digest == digest_a and sample.path in refs:
            ok = sample.body == refs[sample.path].encode()
        sample.ok = failures.check(ok, f"bad response to {sample.path}")


def latencies_ms(samples: Sequence[Sample]) -> List[float]:
    """Client latencies; a failed request misses every limit, so it
    counts as taking the client's whole timeout."""
    return [s.latency_ms if s.ok else TIMEOUT_S * 1e3 for s in samples]


def run(mix: str, seed: int, seconds: float, trace: bool,
        run_dir: Path) -> Tuple[Dict[str, Tuple[float, str]], Failures]:
    failures = Failures()
    trace_dir = run_dir if trace else None
    a_path, served = run_dir / "A.json", run_dir / "served.json"
    expected = json.loads((HERE / "expected.json").read_text())

    marks = [("start", time.perf_counter())]
    # Build: cold CLI runs, the user's first step.
    builds = []
    for attempt in range(BUILDS):
        builds.append(timed_process(build_cmd(a_path),
                                    run_dir / f"build-{attempt}.log"))
        failures.check(
            sha256(a_path) == expected[f"{SCALE}/{WORLD_SEED}"],
            "artefact sha256 differs from the recorded one")
    build_s = statistics.median(wall for wall, __ in builds)
    build_rss = max(rss for __, rss in builds)
    layers: Dict[str, Tuple[float, str]] = {}
    if trace:
        started = time.perf_counter()
        traced_wall, __ = timed_process(
            build_cmd(run_dir / "A-traced.json",
                      spans=run_dir / "build-spans.json"),
            run_dir / "build-traced.log")
        failures.check(sha256(run_dir / "A-traced.json") == sha256(a_path),
                       "traced build wrote a different artefact")
        layers.update(build_layers(run_dir / "build-spans.json",
                                   started, started + traced_wall))
        layers["trace.overhead_ratio"] = (traced_wall / build_s, "ratio")

    marks.append(("build", time.perf_counter()))
    b_path, digest_b = artefact_b()
    ref = reference(a_path, run_dir / "ref.json", mix, seed)
    marks.append(("reference", time.perf_counter()))
    digest_a, refs, paths = ref["digest"], ref["refs"], ref["paths"]
    shutil.copyfile(a_path, served)

    # Set-up: start the server several times; the last one is measured.
    setups = []
    for attempt in range(SERVER_STARTS):
        last = attempt == SERVER_STARTS - 1
        server = Server(serve_cmd(served, trace_dir if last else None),
                        run_dir / f"serve-{attempt}.log")
        setups.append(server.setup_s)
        if not last:
            failures.check(server.stop() == 0, "server exit code")

    marks.append(("setup", time.perf_counter()))
    conns = [Connection(server.port) for __ in range(CONNECTIONS)]
    swaps: List[float] = []
    try:
        # The open loop sends the head of the stream and the closed
        # loop its tail, so the open-loop queries never depend on how
        # many requests the closed loop managed.
        count = max(MIN_OPEN,
                    round(OPEN_RATE * seconds * (1 - CLOSED_SHARE)))
        if mix == "hot":
            # Every pool key once, so the timed phases hit the cache.
            warm, __ = closed_loop(conns, iter(sorted(refs)), "warm")
        else:
            warm, __ = closed_loop(conns, iter(["/v1/health"] * len(conns)),
                                   "warm")
        check_samples(warm, [digest_a], refs, digest_a, failures)
        marks.append(("warm", time.perf_counter()))
        counters0 = scrape(server.port) if trace else {}
        cpu0 = (server.cpu_s(), time.process_time())

        # Closed loop: qps.
        closed, closed_wall = closed_loop(conns, iter(paths[count:]),
                                          "closed",
                                          seconds=seconds * CLOSED_SHARE)
        check_samples(closed, [digest_a], refs, digest_a, failures)
        qps = sum(s.ok for s in closed) / closed_wall

        marks.append(("closed", time.perf_counter()))
        # Open loop: latency from due time.
        opened, __ = open_loop(conns, poisson_schedule(paths[:count], seed),
                               "open")
        check_samples(opened, [digest_a], refs, digest_a, failures)
        cpu1 = (server.cpu_s(), time.process_time())
        counters1 = scrape(server.port) if trace else {}
        timed = closed + opened

        marks.append(("open", time.perf_counter()))
        # Swaps on the idle server.
        current = digest_a
        for attempt in range(IDLE_SWAPS):
            target, source = (digest_a, a_path) if current == digest_b \
                else (digest_b, b_path)
            when = replace_artefact(source, served)
            polls: List[Sample] = []
            while time.perf_counter() - when < SWAP_TIMEOUT_S:
                polled, __ = closed_loop(conns[:1], iter(["/v1/health"]),
                                         f"swap{attempt}-{len(polls)}")
                polls += polled
                if polled[0].digest == target:
                    break
            check_samples(polls, [digest_a, digest_b], refs, digest_a,
                          failures)
            landed = swap_landed(polls, when, target)
            if failures.check(landed is not None, "swap never landed"):
                swaps.append(landed)
            current = target
        peak_rss = server.status("VmHWM") / 1024.0
        marks.append(("swap", time.perf_counter()))
    finally:
        for conn in conns:
            conn.close()
        failures.check(server.stop() == 0, "server exit code")
    marks.append(("stop", time.perf_counter()))
    failures.check(server.count("artefact reload failed") == 0,
                   "artefact reload failed")
    failures.check(server.count("hot-swapped map") == IDLE_SWAPS,
                   "server swap count")

    # When most requests waited for a busy connection (a slow server),
    # too few went out on an idle one for a p90; the largest lateness
    # then stands in for it, which only makes the check stricter.
    late_tail, __ = percentile_or_max(lateness(opened), LATE_TAIL)
    if late_tail > LATE_LIMIT_MS:
        failures.check(False, f"generator fell behind: p90 lateness "
                              f"{late_tail:.1f} ms")
    lat = latencies_ms(opened)
    # A swap that never landed is a failed check; it counts as the
    # timeout here.
    swap_s = statistics.median(swaps) if swaps else SWAP_TIMEOUT_S
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "build_rss_mb": (build_rss, "MB"),
        "peak_rss_mb": (peak_rss, "MB"),
        "qps": (qps, "req/s"),
        "p95_ms": (percentile(lat, TAIL), "ms"),
    }
    print(f"ungated: build_s {build_s:.3f} s, "
          f"swap_s {swap_s:.3f} s")
    print(f"samples: closed {len(closed)}, open {len(opened)}; "
          f"builds {', '.join(f'{w:.2f}' for w, __ in builds)} s; "
          f"setups {', '.join(f'{s:.2f}' for s in setups)} s; "
          f"swaps {', '.join(f'{s:.2f}' for s in swaps)} s; "
          f"p90 lateness {late_tail:.2f} ms; "
          f"open-loop p50 {percentile(lat, 0.5):.3f} ms, "
          f"midmean {midmean(lat):.3f} ms")
    print("timeline: " + ", ".join(
        f"{name} {end - begin:.1f} s"
        for (__, begin), (name, end) in zip(marks, marks[1:])))
    if not trace:
        return e2e, failures

    spans = json.loads((run_dir / "serve-spans.json").read_text())
    layers.update(serve_layers(spans, run_dir / "access.jsonl", opened,
                               timed, counters0, counters1, cpu0, cpu1,
                               failures))
    layers["build_s"] = (build_s, "s")
    layers["swap_s"] = (swap_s, "s")
    layers["client.late_ms.p90"] = (late_tail, "ms")
    layers["client.latency_ms.p50"] = (percentile(lat, 0.5), "ms")
    layers["client.latency_ms.mid"] = (midmean(lat), "ms")
    (run_dir / "client-spans.json").write_text(json.dumps(
        [["client.request", s.due, s.done, None, s.request_id]
         for s in timed]))
    layers["error_frac"] = (failures.failed / failures.attempted, "ratio")
    return layers, failures


# -- per-layer ------------------------------------------------------------

def _spans(raw: Sequence) -> List[Span]:
    return [Span(name, start, end if end is not None else start, parent,
                 rid) for name, start, end, parent, rid in raw]


def build_layers(path: Path, started: float, ended: float
                 ) -> Dict[str, Tuple[float, str]]:
    """Layer times of one traced CLI build (``traced.py`` output) that
    ran from ``started`` to ``ended`` on this process's clock (the same
    monotonic clock the spans use)."""
    data = json.loads(path.read_text())
    spans = _spans(data["spans"])
    # Interpreter start-up before the tracer's first line, and exit
    # (freeing the world and the map) after its last.
    spans.append(Span("proc.start", started, data["t_start"]))
    spans.append(Span("proc.exit", data["t_end"], ended))
    wall = ended - started

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    out: Dict[str, Tuple[float, str]] = {
        "proc.start_s": (total("proc.start"), "s"),
        "proc.import_s": (total("proc.import"), "s"),
        "proc.exit_s": (total("proc.exit"), "s"),
        "world.total_s": (total("world"), "s"),
    }
    for step in WORLD_STEPS:
        out[f"world.{step}_s"] = (total(f"world.{step}"), "s")
    out["world.other_s"] = (sum(self_time(spans, i)
                                for i, s in enumerate(spans)
                                if s.name == "world"), "s")
    rec = {p: wall_s for p, __, __, wall_s in data["recorder"]["spans"]}
    for stage in ("users", "services", "routes"):
        out[f"build.{stage}_s"] = (rec.get(f"build.{stage}", 0.0), "s")
    out["build.services.self_s"] = (
        rec.get("build.services", 0.0)
        - sum(rec[p] for p in recorder_children(rec, "build.services")),
        "s")
    for name in CAMPAIGNS:
        out[f"campaign.{name}_s"] = (sum(
            w for p, w in rec.items() if p.endswith(f".measure.{name}")),
            "s")
    out["routing.cache.hit_ratio"] = (
        data["recorder"]["gauges"].get("routing.cache.hit_rate", 0.0),
        "ratio")
    out["serialize.to_json_s"] = (total("serialize.to_json"), "s")
    out["serialize.bytes"] = (
        data["counters"].get("serialize.to_json", 0), "bytes")
    out["io.write_s"] = (sum(self_time(spans, i)
                             for i, s in enumerate(spans)
                             if s.name == "io.write"), "s")
    top = [(s.start, s.end) for s in spans if s.parent is None]
    out["unattributed_s"] = (wall - covered(top), "s")
    print(f"traced build: {covered(top) / wall:.1%} of {wall:.2f} s "
          f"attributed to named layers")
    return out


def serve_layers(spans_data: Dict, access_log: Path,
                 samples: Sequence[Sample], timed: Sequence[Sample],
                 counters0: Dict[str, float], counters1: Dict[str, float],
                 cpu0: Tuple[float, float], cpu1: Tuple[float, float],
                 failures: Failures) -> Dict[str, Tuple[float, str]]:
    spans = _spans(spans_data["spans"])
    loads = [i for i, s in enumerate(spans) if s.name == "store.load"]

    def under_load(name: str) -> float:
        return sum(s.duration for s in spans
                   if s.name == name and s.parent in loads[:1])

    reloads = [s.duration for s in spans if s.name == "serve.watch.reload"]
    out: Dict[str, Tuple[float, str]] = {
        "store.parse_s": (under_load("store.parse"), "s"),
        "store.from_map_s": (under_load("store.from_map"), "s"),
        "serve.watch.reload_s": (statistics.median(reloads)
                                 if reloads else 0.0, "s"),
    }
    records = [json.loads(line) for line in
               access_log.read_text().splitlines() if line.strip()]
    splits, problems = join_access_log(samples, records)
    for sample in samples:
        failures.check(sample.request_id not in problems,
                       problems.get(sample.request_id, ""))
    for name, values in (
            ("client.queue_ms", [s.queue_ms for s in splits]),
            ("serve.handler_ms", [s.handler_ms for s in splits]),
            ("serve.transport_ms", [s.transport_ms for s in splits])):
        out[f"{name}.p50"] = (percentile_or_max(values, 0.5)[0], "ms")
        value, sampled = percentile_or_max(values, TAIL)
        failures.check(sampled, f"{len(values)} joined requests are too "
                                f"few for a p{TAIL * 100:g} of {name}")
        out[f"{name}.p95"] = (value, "ms")
    for endpoint in ENDPOINTS:
        values = [s.handler_ms for s in splits if s.endpoint == endpoint]
        out[f"serve.handler_ms.{endpoint}.p50"] = (
            percentile_or_max(values, 0.5)[0], "ms")

    def delta(prefix: str) -> float:
        return sum(v - counters0.get(k, 0) for k, v in counters1.items()
                   if k == prefix or k.startswith(prefix + "."))

    hits, misses = delta("serve.cache.hits"), delta("serve.cache.misses")
    out["serve.cache.hit_ratio"] = (hits / (hits + misses)
                                    if hits + misses else 0.0, "ratio")
    out["serve.requests"] = (delta("serve.requests"), "count")
    out["serve.errors"] = (delta("serve.errors"), "count")
    out["serve.http.timeouts"] = (delta("serve.http.timeouts"), "count")
    out["serve.watch.errors"] = (counters1.get("serve.watch.errors", 0),
                                 "count")
    out["server.cpu_ms_per_req"] = ((cpu1[0] - cpu0[0]) * 1e3 / len(timed),
                                    "ms/req")
    out["client.cpu_ms_per_req"] = ((cpu1[1] - cpu0[1]) * 1e3 / len(timed),
                                    "ms/req")
    return out


# -- entry point ----------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = WORK / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics, failures = run(WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace), run_dir)
    finally:
        for name in ("A.json", "A-traced.json", "served.json"):
            (run_dir / name).unlink(missing_ok=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    if failures.failed:
        for reason, n in sorted(failures.reasons.items()):
            print(f"FAILED {n}x: {reason}")
    print(f"error_frac {failures.failed}/{failures.attempted}")
    if args.trace:
        print(f"spans and access log kept in {run_dir}")
    else:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
