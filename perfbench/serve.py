"""The ``serve-lb`` workload: the Apache trace over HTTP through the LB.

Every run starts its own origin and load-balancer processes
(``launch.py``) on a fresh state directory, replays the trace through
them with the benchmark's client, stops and reaps them, and then checks
every response and the origin's journal.  The processes a run starts are
listed in ``processes.json`` in the work directory while they live; a
run refuses to start while a process listed there is still alive.

Untraced run: ``ROUNDS`` rounds, each a set-up (fresh processes, timed
as ``setup_s``), an open loop at ``OPEN_RATE`` requests/s (latency,
printed on a readable line) and a closed loop on two keep-alive connections (``records_per_s``); the
measured seconds are split evenly over the open and closed segments.
The client, the origin and the LB share one CPU.
"""

from __future__ import annotations

import gc
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field, replace

from client import TraceClient
from common import Outcome, percentile_ms
from spans import median, self_times

from repro import urls
from repro.httpmodel.dates import format_http_date
from repro.httpmodel.messages import HttpRequest
from repro.httpmodel.piggy_codec import PiggyCodecError, parse_p_volume
from repro.httpwire.netclient import fetch_once
from repro.server.durability.journal import read_journal
from repro.workloads.synth import SERVER_PRESETS, generate_server_log

__all__ = ["run_serve"]

SCALE = 0.2  # of the Apache preset: about 18.5k records
WARMUP_REQUESTS = 500
MAXPIGGY = 10
RPV_GAP = 30.0
OPEN_RATE = 100.0
# The untraced run sets up afresh and runs an open- and a closed-loop
# segment this many times, so every figure samples the whole run rather
# than one moment of it.
ROUNDS = 6
# The traced run alternates untraced and traced closed loops this many
# times each, for the tracing overhead.
OVERHEAD_ROUNDS = 4
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
READY_TIMEOUT = 30.0


def apache_trace(seed: int, scale: float):
    """The Apache preset log at *scale* and its site; requests drawn from *seed*.

    The site is the preset's own for every seed (the preset derives the
    site seed from the log seed, so it is compensated here); only the
    sessions, sources and timing change with the seed.
    """
    base = SERVER_PRESETS["apache"]
    config = replace(
        base,
        session_count=int(base.session_count * scale),
        source_count=int(base.source_count * scale),
        seed=seed,
        site=replace(base.site, seed=base.site.seed ^ base.seed ^ seed),
    )
    return generate_server_log(config)


def _last_modified(url: str) -> float:
    """A fixed, distinct Last-Modified per resource (whole seconds)."""
    return float(800_000_000 + zlib.crc32(url.encode()) % 50_000_000)


def _write_site(site, path: str) -> dict[str, tuple[int, float]]:
    resources = [
        (r.url, r.size, r.content_type, _last_modified(r.url))
        for r in sorted(site.resources.values(), key=lambda r: r.url)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"host": site.host, "resources": resources}, handle)
    return {url: (size, modified) for url, size, _, modified in resources}


# -- processes ------------------------------------------------------------------


class _Registry:
    """The launcher processes of this run, mirrored in ``processes.json``."""

    def __init__(self, workdir: str):
        self.path = os.path.join(workdir, "processes.json")
        self.live: dict[int, subprocess.Popen] = {}

    def refuse_leftovers(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as handle:
                pids = json.load(handle)
        except (OSError, ValueError):
            return
        for pid in pids:
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    command = handle.read()
            except OSError:
                continue
            if b"launch.py" in command:
                raise SystemExit(
                    f"serve-lb: process {pid} of an earlier run is still alive; "
                    "stop it first"
                )

    def _save(self) -> None:
        with open(self.path, "w", encoding="utf-8") as handle:
            json.dump(sorted(self.live), handle)

    def spawn(self, args: list[str], stderr_path: str) -> subprocess.Popen:
        with open(stderr_path, "wb") as stderr:
            process = subprocess.Popen(
                [sys.executable, LAUNCHER, *args],
                stdout=subprocess.PIPE, stderr=stderr, stdin=subprocess.DEVNULL,
            )
        self.live[process.pid] = process
        self._save()
        return process

    def stop(self, process: subprocess.Popen) -> None:
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15.0)
        if process.stdout is not None:
            process.stdout.close()
        self.live.pop(process.pid, None)
        self._save()

    def stop_all(self) -> None:
        for process in list(self.live.values()):
            self.stop(process)


def _wait_ready(process: subprocess.Popen, label: str) -> int:
    deadline = time.monotonic() + READY_TIMEOUT
    while time.monotonic() < deadline:
        ready, _, _ = select.select([process.stdout], [], [], 0.2)
        if ready:
            line = process.stdout.readline().decode().strip()
            if line.startswith("ready "):
                return int(line.split()[1])
            if not line and process.poll() is not None:
                break
    raise RuntimeError(f"serve-lb: {label} did not start (see its .err file)")


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class _Cluster:
    """One origin and one LB, on a fresh state directory."""

    def __init__(self, registry: _Registry, workdir: str, tag: str, site_path: str,
                 host: str, traced: bool):
        self.registry = registry
        self.state_dir = os.path.join(workdir, f"state-{tag}")
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.spans = (
            {role: os.path.join(workdir, f"spans-{tag}-{role}.json") for role in ("origin", "lb")}
            if traced else {}
        )
        origin_args = ["origin", "--site", site_path, "--state-dir", self.state_dir]
        if traced:
            origin_args += ["--spans", self.spans["origin"]]
        self.origin = registry.spawn(origin_args, os.path.join(workdir, f"{tag}-origin.err"))
        self.lb = None
        self.origin_port = _wait_ready(self.origin, "origin")
        lb_args = ["lb", "--backend-port", str(self.origin_port), "--host", host]
        if traced:
            lb_args += ["--spans", self.spans["lb"]]
        self.lb = registry.spawn(lb_args, os.path.join(workdir, f"{tag}-lb.err"))
        self.lb_port = _wait_ready(self.lb, "load balancer")

    def pids(self) -> list[int]:
        return [self.origin.pid, self.lb.pid]

    def cpu_seconds(self) -> dict[str, float]:
        return {"origin": _proc_cpu_seconds(self.origin.pid), "lb": _proc_cpu_seconds(self.lb.pid)}

    def peak_rss_mb(self) -> float:
        return max(_proc_peak_rss_mb(pid) for pid in self.pids())

    def counters(self) -> dict[str, float]:
        request = HttpRequest(method="GET", target="/.repro/metrics?format=json")
        request.headers.set("Connection", "close")
        response = fetch_once("127.0.0.1", self.origin_port, request)
        return json.loads(response.body)["counters"]

    def stop(self) -> None:
        if self.lb is not None:
            self.registry.stop(self.lb)
        self.registry.stop(self.origin)

    def journal_observations(self) -> int:
        count = 0
        for name in sorted(os.listdir(self.state_dir)):
            if name.startswith("journal-"):
                records, _ = read_journal(os.path.join(self.state_dir, name))
                count += sum(1 for record in records if record.kind == "obs")
        return count


# -- checks ---------------------------------------------------------------------


def _check_exchanges(exchanges, site: dict[str, tuple[int, float]], outcome: Outcome) -> None:
    for exchange in exchanges:
        if exchange.status not in (200, 304):
            continue  # counted as failed, not as wrong output
        label = f"request {exchange.request_id} {exchange.url}"
        outcome.check(exchange.status == 200 or exchange.conditional,
                      f"{label}: 304 without If-Modified-Since")
        size, modified = site[exchange.url]
        if exchange.status == 200:
            outcome.check(exchange.body_length == size,
                          f"{label}: body {exchange.body_length} bytes, site says {size}")
        outcome.check(exchange.last_modified == format_http_date(modified),
                      f"{label}: Last-Modified {exchange.last_modified}")
        if exchange.p_volume is None:
            continue
        try:
            message = parse_p_volume(exchange.p_volume)
        except PiggyCodecError as exc:
            outcome.check(False, f"{label}: P-volume does not parse: {exc}")
            continue
        outcome.check(len(message) <= MAXPIGGY,
                      f"{label}: {len(message)} elements > maxpiggy {MAXPIGGY}")
        outcome.check(message.volume_id not in exchange.rpv,
                      f"{label}: volume {message.volume_id} is on the proxy's RPV list")
        prefix = urls.directory_prefix(exchange.url, 1)
        for element in message:
            expected = site.get(element.url)
            outcome.check(expected is not None, f"{label}: element {element.url} not on the site")
            if expected is None:
                continue
            outcome.check((element.size, element.last_modified) == expected,
                          f"{label}: element {element.url} has size/Last-Modified "
                          f"{element.size}/{element.last_modified}, site {expected}")
            outcome.check(urls.directory_prefix(element.url, 1) == prefix,
                          f"{label}: element {element.url} outside {prefix}")


def _answered(exchanges) -> int:
    return sum(1 for exchange in exchanges if exchange.status in (200, 304))


# -- the run --------------------------------------------------------------------


@dataclass
class _Session:
    """One cluster, the client replaying the trace to it, and its exchanges."""

    cluster: _Cluster
    client: TraceClient
    exchanges: list = field(default_factory=list)


class _Run:
    def __init__(self, seed: int, workdir: str, outcome: Outcome):
        self.seed = seed
        self.workdir = workdir
        self.outcome = outcome
        self.registry = _Registry(workdir)
        self.site_path = os.path.join(workdir, "site.json")
        self.sessions: list[_Session] = []
        self.setup_times: list[float] = []
        self.generate_times: list[float] = []

    def setup(self, tag: str, traced: bool) -> _Session:
        """Generate the trace, write the site, start processes, warm up; timed."""
        start = time.perf_counter()
        trace, site = apache_trace(self.seed, SCALE)
        generated = time.perf_counter()
        self.site = _write_site(site, self.site_path)
        cluster = _Cluster(self.registry, self.workdir, tag, self.site_path, site.host, traced)
        client = TraceClient("127.0.0.1", cluster.lb_port, list(trace),
                             maxpiggy=MAXPIGGY, rpv_gap=RPV_GAP)
        session = _Session(cluster, client)
        self.sessions.append(session)
        self.account(session, client.closed_loop(count=WARMUP_REQUESTS))
        self.setup_times.append(time.perf_counter() - start)
        self.generate_times.append(generated - start)
        return session

    def account(self, session: _Session, exchanges) -> None:
        session.exchanges.extend(exchanges)
        self.outcome.attempted += len(exchanges)
        self.outcome.failed += len(exchanges) - _answered(exchanges)

    def closed(self, session: _Session, seconds: float) -> tuple[float, list]:
        start = time.perf_counter()
        exchanges = session.client.closed_loop(seconds=seconds)
        elapsed = time.perf_counter() - start
        self.account(session, exchanges)
        return _answered(exchanges) / elapsed, exchanges

    def open(self, session: _Session, seconds: float, round_index: int = 0) -> list:
        exchanges = session.client.open_loop(rate=OPEN_RATE, count=int(OPEN_RATE * seconds),
                                             seed=self.seed * 1000 + round_index)
        self.account(session, exchanges)
        return exchanges

    def check_all(self) -> None:
        outcome = self.outcome
        errors = [e for session in self.sessions for e in session.exchanges if e.error]
        for exchange in errors[:3]:
            print(f"request {exchange.request_id} failed: {exchange.error}")
        for session in self.sessions:
            _check_exchanges(session.exchanges, self.site, outcome)
            observed = session.cluster.journal_observations()
            answered = _answered(session.exchanges)
            outcome.check(observed == answered,
                          f"journal in {session.cluster.state_dir} holds {observed} "
                          f"observations for {answered} GETs answered")


def _latencies(exchanges) -> tuple[list[float], list[float]]:
    latency = [
        exchange.done - exchange.due if exchange.status in (200, 304) else float("inf")
        for exchange in exchanges
    ]
    lateness = [exchange.sent - exchange.due for exchange in exchanges]
    return latency, lateness


def run_serve(seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    outcome = Outcome()
    run = _Run(seed, workdir, outcome)
    run.registry.refuse_leftovers()
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The client's own collector pauses would read as server latency.
    gc.disable()
    try:
        if traced:
            _traced(run, seconds, outcome)
        else:
            _untraced(run, seconds, outcome)
    finally:
        gc.enable()
        run.registry.stop_all()
        signal.signal(signal.SIGTERM, previous)
    run.check_all()
    return outcome


def _untraced(run: _Run, seconds: float, outcome: Outcome) -> None:
    segment = seconds / 2 / ROUNDS
    open_exchanges: list = []
    rates = []
    peaks = []
    for round_index in range(ROUNDS):
        session = run.setup(f"round{round_index}", traced=False)
        open_exchanges += run.open(session, segment, round_index)
        rates.append(run.closed(session, segment)[0])
        peaks.append(session.cluster.peak_rss_mb())
        session.cluster.stop()
    latency, _ = _latencies(open_exchanges)
    print("set-up s per round: " + " ".join(f"{t:.3f}" for t in run.setup_times))
    print("closed-loop req/s per round: " + " ".join(f"{rate:.0f}" for rate in rates))
    print(f"open-loop latency: {len(latency)} samples, "
          f"p50 {percentile_ms(latency, 0.50):.3f} ms, "
          f"p99 {percentile_ms(latency, 0.99):.3f} ms (see client.p50_ms, client.p99_ms)")
    outcome.end_to_end.update({
        "setup_s": statistics.fmean(run.setup_times),
        "records_per_s": median(rates),
        "peak_rss_mb": max(peaks),
    })


def _traced(run: _Run, seconds: float, outcome: Outcome) -> None:
    """An untraced and a traced cluster side by side.

    An open loop on the untraced cluster (a third of the seconds) gives
    the client-side figures.  Then untraced and traced closed loops of
    equal length alternate: the untraced ones give the CPU per request,
    the traced ones the spans and counters, and the ratio of their
    median rates the tracing overhead.
    """
    plain = run.setup("plain", traced=False)
    traced = run.setup("traced", traced=True)
    outcome.layers["workloads.generate_s"] = median(run.generate_times)
    latency, lateness = _latencies(run.open(plain, seconds / 3))
    outcome.layers["client.p50_ms"] = percentile_ms(latency, 0.50)
    outcome.layers["client.p99_ms"] = percentile_ms(latency, 0.99)
    outcome.layers["client.lateness_ms"] = percentile_ms(lateness, 0.99)

    segment = seconds * 2 / 3 / (2 * OVERHEAD_ROUNDS)
    plain_rates, traced_rates = [], []
    plain_answered = 0
    client_cpu = 0.0
    timed: list = []
    counters_before = traced.cluster.counters()
    cpu_before = plain.cluster.cpu_seconds()
    for _ in range(OVERHEAD_ROUNDS):
        started = time.process_time()
        rate, exchanges = run.closed(plain, segment)
        client_cpu += time.process_time() - started
        plain_rates.append(rate)
        plain_answered += _answered(exchanges)
        rate, exchanges = run.closed(traced, segment)
        traced_rates.append(rate)
        timed += exchanges
    cpu_after = plain.cluster.cpu_seconds()
    counters_after = traced.cluster.counters()
    for role in ("lb", "origin"):
        outcome.layers[f"{role}.cpu_ms_per_request"] = (
            (cpu_after[role] - cpu_before[role]) * 1000.0 / plain_answered
        )
    outcome.layers["client.cpu_ms_per_request"] = client_cpu * 1000.0 / plain_answered
    outcome.layers["tracing_overhead"] = median(plain_rates) / median(traced_rates) - 1.0
    traced.cluster.stop()
    plain.cluster.stop()

    def delta(name: str) -> float:
        return counters_after.get(name, 0.0) - counters_before.get(name, 0.0)

    answered = _answered(timed)
    hits = delta("server_piggyback_cache_hits_total")
    lookups = hits + delta("server_piggyback_cache_misses_total")
    outcome.layers["server.piggyback_cache_lookups"] = lookups
    outcome.layers["server.piggyback_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    outcome.layers["durability.fsyncs_per_request"] = (
        delta("server_journal_fsyncs_total") / answered
    )
    outcome.layers["httpmodel.p_volume_bytes_per_response"] = (
        sum(len(e.p_volume) for e in timed if e.p_volume is not None) / answered
    )
    _serving_layers(traced.cluster, timed, outcome)


def _serving_layers(cluster: _Cluster, timed, outcome: Outcome) -> None:
    """Per-call medians from the LB and origin spans of the timed requests.

    ``volumes.lookup`` is summed per request first: a request probes the
    volume's version and, when the piggyback cache misses, also takes a
    snapshot lookup.
    """
    ids = {exchange.request_id for exchange in timed}
    combined = {"client": [[e.request_id, e.sent, e.done] for e in timed]}
    covered = 0.0
    for role, path in cluster.spans.items():
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        spans = [tuple(span) for span in document["spans"] if span[5] in ids]
        combined[role] = spans
        own = self_times(spans)
        names = {span[0]: span[1] for span in spans}
        durations: dict[str, list[float]] = {}
        selfs: dict[str, list[float]] = {}
        lookups: dict[int, float] = {}
        for span in spans:
            name, elapsed = span[1], span[3] - span[2]
            if name != "lb.forward":  # the origin's spans cover its wait
                covered += own[span[0]]
            if name == "volumes.lookup":
                if names.get(span[4]) == name:
                    continue  # the version probe inside a snapshot lookup
                lookups[span[5]] = lookups.get(span[5], 0.0) + elapsed
            durations.setdefault(name, []).append(elapsed)
            selfs.setdefault(name, []).append(own[span[0]])
        if role == "lb":
            outcome.layers["lb.relay_us"] = median(selfs.get("lb.handle", [])) * 1e6
            outcome.layers["lb.backend_wait_us"] = median(durations.get("lb.forward", [])) * 1e6
            outcome.layers["lb.handle_calls"] = len(durations.get("lb.handle", []))
            continue
        for name, values in (
            ("httpwire.parse", durations["httpwire.parse"]),
            ("server.handle", selfs["server.handle"]),
            ("volumes.lookup", list(lookups.values())),
            ("httpmodel.encode", durations.get("httpmodel.encode", [])),
            ("durability.journal_append", durations["durability.journal_append"]),
            ("httpwire.serialize", durations["httpwire.serialize"]),
        ):
            outcome.layers[f"{name}_us"] = median(values) * 1e6
            outcome.layers[f"{name}_calls"] = len(durations.get(name, []))
        counts = [count for request, count in document["candidates"] if request in ids]
        outcome.layers["volumes.candidates_per_lookup"] = (
            sum(counts) / len(counts) if counts else 0.0
        )
    client_total = sum(e.done - e.sent for e in timed)
    outcome.layers["other_share"] = 1.0 - covered / client_total
    with open(os.path.join(os.path.dirname(cluster.state_dir), "spans-serve-lb.json"),
              "w", encoding="utf-8") as handle:
        json.dump(combined, handle)
