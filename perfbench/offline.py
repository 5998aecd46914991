"""The offline workload, ``offline-stream``.

It alternates set-ups and whole batch passes over a seeded trace for the
measured time and reports the mean set-up and the median pass.  Each
pass is one operation; its records are the trace records it consumed.  In a traced run, untraced and traced passes
alternate, so the tracing overhead is the ratio of their medians.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import replace

from common import Outcome, timed_setup
from spans import Recorder, median, self_times

from repro import urls
from repro.analysis.fastreplay import replay_interned_multi
from repro.analysis.prediction import ReplayConfig
from repro.traces.chunked import open_chunked_trace
from repro.traces.intern import ChunkedCompiledTrace
from repro.volumes.directory import DirectoryVolumeConfig
from repro.volumes.interned import InternedDirectoryStore
from repro.volumes.probability import (
    PairwiseConfig,
    build_probability_volumes,
    estimate_pairwise,
)
from repro.workloads.internet import InternetConfig, write_internet_trace

__all__ = ["run_offline_stream"]

# -- offline-stream -----------------------------------------------------------

STREAM_RECORDS = 50_000
# Several chunks per trace, so the chunk reader streams frames as it
# would on a large trace instead of decoding one frame.
STREAM_CHUNK_RECORDS = 8_192
PAIRWISE = PairwiseConfig(window=30.0, same_directory_level=1, sample_counters=True, seed=1)
PROBABILITY_THRESHOLD = 0.1
STREAM_MAX_ELEMENTS = 10
# The brute-force recount of p(s|r) runs on this prefix of the trace.
RECOUNT_RECORDS = 3_000


def _internet_config(seed: int) -> InternetConfig:
    return InternetConfig(
        record_count=STREAM_RECORDS,
        origin_count=120,
        client_count=2_000_000,
        sessions_per_second=2.0,
        bot_fraction=0.05,
        seed=seed,
    )


def _stream_entries(volumes):
    return [
        (DirectoryVolumeConfig(level=1), ReplayConfig(max_elements=STREAM_MAX_ELEMENTS)),
        (
            volumes,
            ReplayConfig(max_elements=STREAM_MAX_ELEMENTS, enable_probability=0.9, seed=7),
        ),
    ]


def _timed_chunks(recorder: Recorder, chunks):
    """Yield *chunks*, timing each frame read and decode as a span."""
    while True:
        try:
            chunk = recorder.call("traces.decode", next, chunks)
        except StopIteration:
            return
        yield chunk


def _stream_pass(path: str, recorder: Recorder | None):
    trace = open_chunked_trace(path)
    if recorder is None:
        estimator = estimate_pairwise(trace, PAIRWISE)
        volumes = build_probability_volumes(estimator, PROBABILITY_THRESHOLD)
        metrics = replay_interned_multi(trace, _stream_entries(volumes))
    else:
        estimator = recorder.call("volumes.estimate", estimate_pairwise, trace, PAIRWISE)
        volumes = recorder.call(
            "volumes.build", build_probability_volumes, estimator, PROBABILITY_THRESHOLD
        )
        metrics = recorder.call(
            "analysis.replay", replay_interned_multi, trace, _stream_entries(volumes)
        )
    return volumes, metrics, estimator.counter_count


def _brute_force_probabilities(records) -> dict[tuple[str, str], float]:
    """p(s|r) recounted by definition, with no sampling.

    For each occurrence of r: is s requested later by the same source
    within the window (and in r's level-1 directory)?  Each occurrence
    credits each s at most once.
    """
    window = PAIRWISE.window
    level = PAIRWISE.same_directory_level
    by_source: dict[str, list[tuple[float, str]]] = {}
    occurrences: dict[str, int] = {}
    credits: dict[tuple[str, str], int] = {}
    for record in records:
        by_source.setdefault(record.source, []).append((record.timestamp, record.url))
        occurrences[record.url] = occurrences.get(record.url, 0) + 1
    for requests in by_source.values():
        for index, (start, antecedent) in enumerate(requests):
            prefix = urls.directory_prefix(antecedent, level)
            followers = set()
            for timestamp, consequent in requests[index + 1:]:
                if timestamp - start > window:
                    break
                if consequent != antecedent and urls.directory_prefix(consequent, level) == prefix:
                    followers.add(consequent)
            for consequent in followers:
                key = (antecedent, consequent)
                credits[key] = credits.get(key, 0) + 1
    return {key: count / occurrences[key[0]] for key, count in credits.items()}


def _check_stream(path: str, volumes, metrics, outcome: Outcome) -> None:
    trace = open_chunked_trace(path)
    decoded = 0
    last_time = float("-inf")
    ordered = True
    prefix_records = []
    for record in trace.records():
        decoded += 1
        if record.timestamp < last_time:
            ordered = False
        last_time = record.timestamp
        if len(prefix_records) < RECOUNT_RECORDS:
            prefix_records.append(record)
    outcome.check(decoded == STREAM_RECORDS,
                  f"decoded {decoded} records, generated {STREAM_RECORDS}")
    outcome.check(ordered, "decoded timestamps decrease somewhere")

    level = PAIRWISE.same_directory_level
    for antecedent in volumes.antecedents():
        for consequent, probability in volumes.members_of(antecedent):
            outcome.check(
                probability >= PROBABILITY_THRESHOLD,
                f"implication {antecedent} -> {consequent} has p={probability}",
            )
            outcome.check(
                urls.directory_prefix(antecedent, level)
                == urls.directory_prefix(consequent, level),
                f"implication {antecedent} -> {consequent} crosses directories",
            )

    exact = estimate_pairwise(
        ChunkedCompiledTrace.from_records(prefix_records, chunk_records=1_000),
        replace(PAIRWISE, sample_counters=False),
    )
    expected = _brute_force_probabilities(prefix_records)
    found = {
        (imp.antecedent, imp.consequent): imp.probability
        for imp in exact.implications(0.0)
    }
    outcome.check(
        found == expected,
        f"p(s|r) on the first {RECOUNT_RECORDS} records differs from the recount "
        f"({len(found)} estimated pairs, {len(expected)} recounted)",
    )
    for item in metrics:
        for fraction in (
            item.fraction_predicted,
            item.true_prediction_fraction,
            item.piggyback_message_rate,
            item.update_fraction,
        ):
            outcome.check(0.0 <= fraction <= 1.0, f"replay fraction {fraction} outside [0, 1]")
        outcome.check(
            item.mean_piggyback_size <= STREAM_MAX_ELEMENTS,
            f"mean piggyback size {item.mean_piggyback_size} > {STREAM_MAX_ELEMENTS}",
        )
    outcome.check(metrics[0].piggyback_messages > 0, "directory replay sent no piggybacks")


def run_offline_stream(seed: int, seconds: float, traced: bool, workdir: str) -> Outcome:
    outcome = Outcome()
    config = _internet_config(seed)
    path = os.path.join(workdir, "internet.rpchunk")

    def setup() -> dict[str, float]:
        if os.path.exists(path):
            os.unlink(path)
        start = time.perf_counter()
        write_internet_trace(config, path, chunk_records=STREAM_CHUNK_RECORDS)
        return {"workloads.generate_s": time.perf_counter() - start}

    recorder = Recorder()
    candidates = {"calls": 0, "pulled": 0}

    def instrument() -> None:
        recorder.wrap(ChunkedCompiledTrace, "chunks", None,
                      adapt=lambda chunks: _timed_chunks(recorder, chunks))
        _count_directory_candidates(recorder, candidates)

    plain, traced_times, first = _run_passes(
        seconds, setup, recorder, instrument if traced else None,
        lambda tracer: _stream_pass(path, tracer), STREAM_RECORDS, outcome,
    )
    outcome.end_to_end.update(_pass_metrics(plain, STREAM_RECORDS))

    volumes, metrics, counters = first
    if traced:
        _offline_layers(recorder, len(traced_times), outcome,
                        ("volumes.estimate", "volumes.build", "analysis.replay",
                         "traces.decode"))
        _candidates_per_lookup(candidates, outcome)
        outcome.layers["volumes.estimate_us_per_record"] = (
            outcome.layers["volumes.estimate_s"] / STREAM_RECORDS * 1e6
        )
        outcome.layers["volumes.pair_counters"] = counters
        outcome.layers["tracing_overhead"] = median(traced_times) / median(plain) - 1.0
        recorder.dump(os.path.join(workdir, "spans.json"))
    _check_stream(path, volumes, metrics, outcome)
    return outcome


# -- shared -------------------------------------------------------------------


def _run_passes(seconds: float, setup, recorder: Recorder, instrument, one_pass, records: int,
                outcome: Outcome) -> tuple[list[float], list[float], object]:
    """Set up and run whole passes until *seconds* have gone by.

    Before each pass *setup* runs once; ``setup_s`` is the mean of all
    these set-ups (see ``timed_setup``), and each part *setup* returns (a
    per-layer metric's name and seconds) the median of that part.
    ``one_pass(tracer)`` runs one pass, timing its layers with *tracer*
    when that is not None.  With *instrument* (which installs wrappers on
    *recorder*), untraced and traced passes alternate; only traced passes
    run wrapped, and traced pass ``n`` runs as request ``n`` inside a
    ``pass`` span.  At least one pass is untraced.  Returns the untraced
    and traced pass times and the first pass's result.
    """
    plain: list[float] = []
    traced: list[float] = []
    setups: list[float] = []
    parts: dict[str, list[float]] = {}
    first = None
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        timed_setup(setup, setups, parts)
        if instrument is not None and len(traced) < len(plain):
            instrument()
            recorder.set_request(len(traced) + 1)
            start = time.perf_counter()
            result = recorder.call("pass", one_pass, recorder)
            traced.append(time.perf_counter() - start)
            recorder.unwrap_all()
        else:
            start = time.perf_counter()
            result = one_pass(None)
            plain.append(time.perf_counter() - start)
        if first is None:
            first = result
        outcome.attempted += records
    outcome.end_to_end["setup_s"] = statistics.fmean(setups)
    for name, values in parts.items():
        outcome.layers[name] = median(values)
    return plain, traced, first


def _count_directory_candidates(recorder: Recorder, counts: dict[str, int]) -> None:
    """Count candidates pulled from each ``InternedDirectoryStore.lookup_id``."""

    def counted(entries):
        pulled = 0
        try:
            for entry in entries:
                pulled += 1
                yield entry
        finally:
            counts["pulled"] += pulled

    def adapt(result):
        counts["calls"] += 1
        if result is None:
            return None
        volume_id, entries = result
        return volume_id, counted(entries)

    recorder.wrap(InternedDirectoryStore, "lookup_id", None, adapt=adapt)


def _candidates_per_lookup(counts: dict[str, int], outcome: Outcome) -> None:
    outcome.layers["volumes.dir_candidates_per_lookup"] = (
        counts["pulled"] / counts["calls"] if counts["calls"] else 0.0
    )


def _pass_metrics(times: list[float], records: int) -> dict[str, float]:
    """End-to-end figures of a batch workload from its untraced pass times."""
    return {
        "records_per_s": records / median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _offline_layers(recorder: Recorder, passes: int, outcome: Outcome, names) -> None:
    """Median per-pass self time of each layer, and the uncovered share."""
    own = self_times(recorder.spans)
    per_pass: dict[int, dict[str, float]] = {p: {} for p in range(1, passes + 1)}
    for span in recorder.spans:
        bucket = per_pass.get(span[5])
        if bucket is not None:
            bucket[span[1]] = bucket.get(span[1], 0.0) + own[span[0]]
    metric = {
        "volumes.estimate": "volumes.estimate_s",
        "volumes.build": "volumes.build_s",
        "analysis.replay": "analysis.replay_s",
        "traces.decode": "traces.decode_s",
    }
    for name in names:
        outcome.layers[metric[name]] = median(b.get(name, 0.0) for b in per_pass.values())
    totals = {span[5]: span[3] - span[2] for span in recorder.spans if span[1] == "pass"}
    outcome.layers["other_share"] = median(
        bucket.get("pass", 0.0) / totals[p] for p, bucket in per_pass.items()
    )
