"""Start the serve-lb origin or load balancer as a process of its own.

    python3 perfbench/launch.py origin --site SITE.json --state-dir DIR [--spans OUT]
    python3 perfbench/launch.py lb --backend-port PORT --host HOST [--spans OUT]

Both bind an ephemeral loopback port, print ``ready <port>`` and serve
until SIGINT.  The origin is a threaded durable ``PiggybackHttpServer``
over level-1 directory volumes whose journal fsyncs every access; the
load balancer is ``repro serve --lb`` with one shard and one replica.
Untraced and traced runs start them identically; with ``--spans`` the
launcher also enables the process's metrics registry, wraps the public
calls each layer is measured by at the name its caller looks it up, and
writes the spans to OUT on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Recorder  # noqa: E402

REQUEST_HEADER = "X-Bench-Request"


def _trace_parse(recorder: Recorder) -> None:
    """Time ``read_request`` as ``repro.httpwire.connbase`` looks it up.

    The wrapper first waits for the request's first byte, so the span
    covers parsing, not the idle wait on a keep-alive connection.
    """
    from repro.httpwire import connbase

    original = connbase.read_request

    def read_request(stream):
        if not stream.peek(1):
            return original(stream)  # end of stream: raises EOFError
        start = time.perf_counter()
        request = original(stream)
        end = time.perf_counter()
        tag = request.headers.get(REQUEST_HEADER) or ""
        recorder.set_request(int(tag) if tag.isdigit() else 0)
        recorder.record("httpwire.parse", start, end)
        return request

    connbase.read_request = read_request


def _trace_origin(recorder: Recorder, extras: dict) -> None:
    from repro.httpmodel.messages import HttpResponse
    from repro.server import server
    from repro.server.durability.journal import JournalWriter
    from repro.volumes.base import VolumeStore
    from repro.volumes.directory import DirectoryVolumeStore

    candidates = extras["candidates"] = []

    def count_candidates(snapshot):
        if snapshot is not None:
            candidates.append((recorder.current_request(), len(snapshot[0].candidates)))
        return snapshot

    _trace_parse(recorder)
    recorder.wrap(server.PiggybackServer, "handle", "server.handle")
    recorder.wrap(VolumeStore, "snapshot_lookup", "volumes.lookup", adapt=count_candidates)
    recorder.wrap(DirectoryVolumeStore, "lookup_version", "volumes.lookup")
    recorder.wrap(server, "format_p_volume", "httpmodel.encode")
    recorder.wrap(JournalWriter, "append_observation", "durability.journal_append")
    recorder.wrap(HttpResponse, "serialize_into", "httpwire.serialize")


def _trace_lb(recorder: Recorder, extras: dict) -> None:
    from repro.lb.balancer import LoadBalancerApp
    from repro.lb.forward import Forwarder

    _trace_parse(recorder)
    recorder.wrap(LoadBalancerApp, "handle_request", "lb.handle")
    recorder.wrap(Forwarder, "forward", "lb.forward")


def _serve_origin(args) -> int:
    from repro.httpwire.netserver import PiggybackHttpServer
    from repro.server.durability import DurableState
    from repro.server.resources import ResourceStore
    from repro.server.server import PiggybackServer
    from repro.volumes.directory import DirectoryVolumeConfig, DirectoryVolumeStore

    with open(args.site, encoding="utf-8") as handle:
        site = json.load(handle)
    resources = ResourceStore()
    for url, size, content_type, last_modified in site["resources"]:
        resources.add(url, size=size, content_type=content_type, last_modified=last_modified)
    state = DurableState(
        args.state_dir,
        lambda: DirectoryVolumeStore(DirectoryVolumeConfig(level=1)),
        resources=resources,
        sync=True,
    )
    engine = PiggybackServer(resources, state.store)
    try:
        with PiggybackHttpServer(
            engine, site_host=site["host"], address="127.0.0.1", port=0,
            durable_state=state,
        ) as origin:
            print(f"ready {origin.port}", flush=True)
            try:
                while True:
                    time.sleep(0.2)
            except KeyboardInterrupt:
                pass
    finally:
        state.close()
    return 0


def _serve_lb(args) -> int:
    from repro.cli import main as repro_main

    # ``repro serve --lb`` prints its bound address; relay it as "ready".
    class _Announce(io.TextIOBase):
        def write(self, text: str) -> int:
            if text.startswith("load balancer on "):
                port = text.split()[3].rsplit(":", 1)[1]
                sys.__stdout__.write(f"ready {port}\n")
                sys.__stdout__.flush()
            return len(text)

    with contextlib.redirect_stdout(_Announce()):
        return repro_main([
            "serve", "--lb", "--backends", f"0:127.0.0.1:{args.backend_port}",
            "--host", args.host, "--address", "127.0.0.1", "--port", "0",
        ])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("origin", "lb"))
    parser.add_argument("--site")
    parser.add_argument("--state-dir")
    parser.add_argument("--backend-port", type=int)
    parser.add_argument("--host")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    # A parent started in the background may hand SIGINT down ignored;
    # the benchmark stops these processes with it.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    recorder = None
    extras: dict = {}
    if args.spans:
        from repro.telemetry import REGISTRY

        REGISTRY.enable()
        recorder = Recorder()
        (_trace_origin if args.role == "origin" else _trace_lb)(recorder, extras)
    try:
        return _serve_origin(args) if args.role == "origin" else _serve_lb(args)
    finally:
        if recorder is not None:
            recorder.dump(args.spans, extras)


if __name__ == "__main__":
    sys.exit(main())
