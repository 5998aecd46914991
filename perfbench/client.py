"""The serve-lb load generator: a trace-driven client of the piggyback protocol.

One process, two keep-alive connections, each on its own thread.  The
client replays trace records in trace order; every trace source acts as
one proxy: it names itself in ``X-Proxy-Name``, sends a ``Piggy-filter``
with ``maxpiggy`` and its own list of recently piggybacked volumes (RPV),
and sends ``If-Modified-Since`` for records the trace logged as 304.
Proxies keep their RPV lists in trace time, so a 30 s gap means 30 s of
the logged traffic.

Two phases drive it:

* :meth:`TraceClient.closed_loop` -- each connection sends its next
  request as soon as the previous answer is in (capacity);
* :meth:`TraceClient.open_loop` -- requests fall due on a seeded Poisson
  schedule; each is timed from when it was due, so a stall also delays
  the requests queued behind it, and the generator's own lateness (send
  time minus due time) is kept.

Each exchange is kept as an :class:`Exchange` for the output checks,
which run after the timed phase.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.core.filters import ProxyFilter
from repro.core.rpv import RpvList
from repro.httpmodel.dates import format_http_date
from repro.httpmodel.headers import Headers
from repro.httpmodel.messages import HttpRequest
from repro.httpmodel.piggy_codec import (
    P_VOLUME_HEADER,
    PIGGY_FILTER_HEADER,
    format_piggy_filter,
)
from repro.httpwire.netclient import HttpConnection

__all__ = ["Exchange", "TraceClient"]

CONNECTIONS = 2
REQUEST_HEADER = "X-Bench-Request"
# Separates laps when the replay wraps round the trace, so trace time
# keeps increasing and RPV entries from the previous lap have expired.
_LAP_GAP = 86_400.0


@dataclass(slots=True)
class Exchange:
    """One request and what came back (status 0: no response)."""

    request_id: int
    source: str
    url: str
    conditional: bool
    rpv: frozenset[int]
    status: int = 0
    body_length: int = 0
    last_modified: str | None = None
    p_volume: str | None = None
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    error: str | None = None


class TraceClient:
    """Replays *records* (``LogRecord`` s of one site) against host:port."""

    def __init__(self, address: str, port: int, records, *, maxpiggy: int, rpv_gap: float):
        self.address = address
        self.port = port
        self.records = records
        self.maxpiggy = maxpiggy
        self.rpv_gap = rpv_gap
        self._span = records[-1].timestamp - records[0].timestamp + _LAP_GAP
        self._proxies: dict[str, RpvList] = {}
        self._lock = threading.Lock()
        self.next_id = 1  # request ids are positions in the replay, from 1

    # -- one exchange -------------------------------------------------------

    def _prepare(self, position: int) -> tuple[HttpRequest, Exchange, float]:
        records = self.records
        record = records[position % len(records)]
        now = record.timestamp + (position // len(records)) * self._span
        with self._lock:
            rpv = self._proxies.get(record.source)
            if rpv is None:
                rpv = self._proxies[record.source] = RpvList(timeout=self.rpv_gap, max_entries=64)
            listed = rpv.active_ids(now)
        host, _, path = record.url.partition("/")
        headers = Headers()
        headers.set("Host", host)
        headers.set("X-Proxy-Name", record.source)
        headers.set(REQUEST_HEADER, str(position + 1))
        headers.set(
            PIGGY_FILTER_HEADER,
            format_piggy_filter(ProxyFilter(max_elements=self.maxpiggy, recently_piggybacked=listed)),
        )
        conditional = record.status == 304
        if conditional:
            headers.set("If-Modified-Since", format_http_date(record.last_modified or record.timestamp))
        exchange = Exchange(position + 1, record.source, record.url, conditional, listed)
        return HttpRequest(method="GET", target="/" + path, headers=headers), exchange, now

    def _exchange(self, connection: HttpConnection, position: int, due: float | None) -> Exchange:
        request, exchange, now = self._prepare(position)
        if due is not None:
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        exchange.sent = time.perf_counter()
        exchange.due = exchange.sent if due is None else due
        try:
            response = connection.request_once(request)
        except (OSError, EOFError, ValueError) as exc:  # ValueError: HttpParseError
            exchange.done = time.perf_counter()
            exchange.error = f"{type(exc).__name__}: {exc}"
            return exchange
        exchange.done = time.perf_counter()
        exchange.status = response.status
        exchange.body_length = len(response.body)
        exchange.last_modified = response.headers.get("Last-Modified")
        value = response.trailers.get(P_VOLUME_HEADER)
        exchange.p_volume = value
        if value is not None and value.startswith("id="):
            volume_id = value[3:].split(";", 1)[0]
            if volume_id.isdigit():
                with self._lock:
                    self._proxies[exchange.source].record(int(volume_id), now)
        return exchange

    # -- phases -------------------------------------------------------------

    def _take(self) -> int:
        with self._lock:
            position = self.next_id - 1
            self.next_id += 1
        return position

    def _run_threads(self, body) -> list[Exchange]:
        results: list[list[Exchange]] = [[] for _ in range(CONNECTIONS)]
        threads = [
            threading.Thread(target=body, args=(results[index],), name=f"client-{index}")
            for index in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = [exchange for part in results for exchange in part]
        merged.sort(key=lambda exchange: exchange.request_id)
        return merged

    def closed_loop(self, *, seconds: float | None = None, count: int | None = None) -> list[Exchange]:
        """Send back to back on every connection, for *seconds* or *count* requests."""
        deadline = None if seconds is None else time.perf_counter() + seconds
        last = None if count is None else self.next_id - 1 + count

        def body(out: list[Exchange]) -> None:
            with HttpConnection(self.address, self.port, timeout=10.0) as connection:
                while deadline is None or time.perf_counter() < deadline:
                    position = self._take()
                    if last is not None and position >= last:
                        return
                    out.append(self._exchange(connection, position, None))

        exchanges = self._run_threads(body)
        if last is not None:
            self.next_id = last + 1
        return exchanges

    def open_loop(self, *, rate: float, count: int, seed: int) -> list[Exchange]:
        """Send *count* requests due on a seeded Poisson schedule at *rate*/s."""
        rng = random.Random(seed)
        offsets = []
        clock = 0.0
        for _ in range(count):
            clock += rng.expovariate(rate)
            offsets.append(clock)
        first = self.next_id - 1
        self.next_id = first + count + 1
        cursor = iter(range(count))
        cursor_lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def body(out: list[Exchange]) -> None:
            with HttpConnection(self.address, self.port, timeout=10.0) as connection:
                while True:
                    with cursor_lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    out.append(self._exchange(connection, first + index, start + offsets[index]))

        return self._run_threads(body)
