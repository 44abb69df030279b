"""End-to-end benchmark of the XPush filtering library.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload protein-cold --seed 1 --seconds 25 --trace 0

One closed-loop client in this process drives the library through its
public API: the next call is sent only when the previous one returned.
Every timed slice (one setup, one warm pass, 16 documents of a cold
pass, or eight update rounds) is scaled to reference host speed by the
calibration loop timed just before and after it (see ``calib.py``);
raw wall-clock figures are printed beside the normalized ones as
diagnostics.  Outputs are checked against a
serial machine and, on a seeded sample, against the reference
evaluator.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is non-zero when any operation failed or any answer was
wrong, and when the checkout holds no library to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
import traceback
from array import array
from collections import defaultdict
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("protein-cold", "nasa-warm", "auction-churn", "protein-sharded")
MB = 1e6
#: A one-element document: setup ends with one call carrying it, so the
#: engine is built (serial engines build lazily) and workers are up.
PROBE = b"<probe/>"
#: Setups per run where a workload does not set up once per round.
SETUPS = {"nasa-warm": 5, "auction-churn": 5, "protein-sharded": 6}
ROUND_DOCS = 8
#: Update rounds per timed slice of the churn workload.
GROUP_ROUNDS = 8
SHARDS = 2
#: Documents per timed slice of a cold pass (a second-long pass is too
#: coarse to follow the drift), and per batch the sharded engine fans
#: out.  A call to the sharded engine carries ``queue_depth`` batches,
#: so its pipeline is full: with one batch per call, each reply waited
#: out the parent's idle-poll backoff (2, 4, 8 ms, ...) and the batch
#: latency jumped between those steps.
BATCH_DOCS = 16


def _import_library() -> None:
    """Put this checkout's ``src`` first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"error: no library to measure under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


@dataclass
class Slice:
    kind: str
    traced: bool
    raw: float = 0.0
    factor: float = 1.0
    layers: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.raw * self.factor


class Bench:
    """Calibrated slice timing, failure counts and trace bookkeeping."""

    def __init__(self, seconds: int, trace: bool):
        from calib import Calibrator
        from spans import Tracer

        self.calibrator = Calibrator()
        for _ in range(10):
            self.calibrator.measure()
        self.calibrator.samples_ms.clear()
        self.tracer = Tracer() if trace else None
        self.seconds = seconds
        self.deadline = 0.0
        self.attempted = 0
        self.failed = 0
        self.slices: list[Slice] = []
        self._toggle: dict[str, int] = defaultdict(int)

    def start_clock(self) -> None:
        self.deadline = time.perf_counter() + self.seconds

    def time_left(self) -> bool:
        return time.perf_counter() < self.deadline

    def traced_next(self, kind: str) -> bool:
        """Trace every other slice of a kind (never with --trace 0)."""
        self._toggle[kind] += 1
        return self.tracer is not None and self._toggle[kind] % 2 == 0

    def run(self, kind: str, work, traced: bool = False, collect: bool = True):
        """Run *work* as one timed slice: collect garbage, calibrate,
        time it, calibrate again.  Returns ``(result, slice)``.

        A pass or epoch timed as several slices collects only before
        its first one (*collect* false for the rest): the collector
        then runs inside it as often as the program's allocations make
        it run, rather than as often as the benchmark slices it."""
        from calib import scale

        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
            mark = tracer.mark()
        if collect:
            gc.collect()
        before = self.calibrator.measure()
        started = time.perf_counter()
        try:
            result = work()
        finally:
            raw = time.perf_counter() - started
            after = self.calibrator.measure()
            if tracer is not None:
                tracer.uninstall()
        piece = Slice(kind, traced, raw, scale(before, after))
        if tracer is not None:
            piece.layers = tracer.totals(mark, piece.factor)
        self.slices.append(piece)
        return result, piece

    def check(self, got, expected) -> None:
        """Count one mismatch per differing answer."""
        if len(got) != len(expected):
            self.failed += 1
            return
        self.failed += sum(1 for a, b in zip(got, expected) if a != b)

    def of_kind(self, kind: str, traced: bool | None = None) -> list[Slice]:
        return [
            s for s in self.slices if s.kind == kind and (traced is None or s.traced == traced)
        ]


def _setup(bench: Bench, make, may_trace: bool = True):
    """One timed setup: build the engine and send it the probe."""

    def work():
        engine = make()
        engine.filter_stream(PROBE)
        return engine

    bench.attempted += 1
    traced = bench.traced_next("setup") and may_trace
    engine, _ = bench.run("setup", work, traced)
    return engine


# ----------------------------------------------------------------------
# Workloads.  Each fills a State: per-unit throughput (a unit is a pass,
# or an epoch of update rounds), latency samples and checks to run later.
# ----------------------------------------------------------------------


def _samples() -> array:
    # Packed doubles: a list of floats would grow the client's peak RSS
    # by 32 bytes per sample, so rss_mb would follow the number of
    # passes a run fits in, i.e. the host's speed.
    return array("d")


@dataclass
class State:
    doc_latency: array = field(default_factory=_samples)  # normalized seconds
    doc_latency_raw: array = field(default_factory=_samples)
    unit_mb_s: list[float] = field(default_factory=list)
    unit_mb_s_raw: list[float] = field(default_factory=list)
    unit_seconds: dict[bool, list[float]] = field(default_factory=lambda: {True: [], False: []})
    update_latency: array = field(default_factory=_samples)
    unit_layers: list[dict] = field(default_factory=list)
    unit_bytes: int = 0
    cpu_seconds: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    first_answers: list | None = None
    deferred: list = field(default_factory=list)


def _record_unit(state: State, slices: list[Slice], nbytes: int, traced: bool) -> None:
    seconds = sum(s.seconds for s in slices)
    state.unit_seconds[traced].append(seconds)
    if not traced:
        state.unit_mb_s.append(nbytes / MB / seconds)
        state.unit_mb_s_raw.append(nbytes / MB / sum(s.raw for s in slices))
        return
    merged: dict = defaultdict(lambda: defaultdict(float))
    for piece in slices:
        for name, entry in piece.layers.items():
            for key, value in entry.items():
                merged[name][key] += value
    state.unit_layers.append(merged)


def _pass(bench: Bench, state: State, engine, calls: list[tuple[bytes, int]], per_slice: int, timed: bool = True):
    """Send each ``(payload, documents)`` call in order, timed as slices
    of *per_slice* calls; a document's latency is that of the call
    carrying it.  Returns the answers, one per document."""
    traced = timed and bench.traced_next("pass")
    answers: list = []
    pieces = []
    for start in range(0, len(calls), per_slice):
        part = calls[start : start + per_slice]
        latencies: list[float] = []

        def work():
            out = []
            clock = time.perf_counter
            cpu_started = time.process_time()
            for payload, documents in part:
                began = clock()
                # Looked up per call, so trace wrappers are seen.
                out.extend(engine.filter_stream(payload))
                latencies.extend([clock() - began] * documents)
            state.cpu_seconds.append(time.process_time() - cpu_started)
            return out

        got, piece = bench.run("pass", work, traced, collect=start == 0)
        answers.extend(got)
        pieces.append(piece)
        if timed and not traced:
            state.doc_latency.extend(x * piece.factor for x in latencies)
            state.doc_latency_raw.extend(latencies)
    bench.attempted += len(calls)
    if timed:
        _record_unit(state, pieces, sum(len(payload) for payload, _ in calls), traced)
    return answers


def _reordered(count: int, seed: int, unit: int) -> list[int]:
    """The document order of one pass: the input order first, then a
    fresh seeded shuffle per pass, so the tail is averaged over many
    arrival orders rather than set by the few documents that happen to
    arrive first (or to share a batch) in one order."""
    order = list(range(count))
    if unit:
        random.Random(seed * 1_000_003 + unit).shuffle(order)
    return order


def _in_input_order(order: list[int], answers: list) -> list:
    out: list = [None] * len(order)
    for position, index in enumerate(order):
        out[index] = answers[position]
    return out


def _check_pass(bench: Bench, state: State, answers: list) -> None:
    """The first pass is kept (and checked after timing); every later
    pass must equal it."""
    if state.first_answers is None:
        state.first_answers = answers
    else:
        bench.check(answers, state.first_answers)


def protein_cold(bench: Bench, inputs, seed: int) -> State:
    from repro import create_engine
    from inputs import CONFIG

    documents = inputs.documents
    state = State(unit_bytes=inputs.stream_bytes)
    bench.start_clock()
    unit = 0
    while unit < 2 or bench.time_left():
        order = _reordered(len(documents), seed, unit)
        engine = _setup(bench, lambda: create_engine(CONFIG, inputs.sources))
        answers = _pass(bench, state, engine, [(documents[i], 1) for i in order], BATCH_DOCS)
        engine.close()
        del engine
        _check_pass(bench, state, _in_input_order(order, answers))
        unit += 1
    return state


def nasa_warm(bench: Bench, inputs, seed: int) -> State:
    from repro import create_engine
    from inputs import CONFIG

    calls = [(doc, 1) for doc in inputs.documents]
    state = State(unit_bytes=inputs.stream_bytes)
    bench.start_clock()
    engine = None
    for _ in range(SETUPS["nasa-warm"]):
        if engine is not None:
            engine.close()
        engine = None
        engine = _setup(bench, lambda: create_engine(CONFIG, inputs.sources))
    # The completing pass is not timed.
    _check_pass(bench, state, _pass(bench, state, engine, calls, len(calls), timed=False))
    while len(state.unit_mb_s) < 2 or bench.time_left():
        _check_pass(bench, state, _pass(bench, state, engine, calls, len(calls)))
    engine.close()
    return state


def protein_sharded(bench: Bench, inputs, seed: int) -> State:
    from repro import create_engine
    from inputs import CONFIG

    config = CONFIG.with_engine("sharded", shards=SHARDS, batch_size=BATCH_DOCS)
    per_call = BATCH_DOCS * config.queue_depth
    documents = inputs.documents
    state = State(unit_bytes=inputs.stream_bytes)
    bench.start_clock()
    engine = None
    for index in range(SETUPS["protein-sharded"]):
        if engine is not None:
            engine.close()
        engine = None
        # The kept engine's workers must not inherit trace wrappers.
        last = index == SETUPS["protein-sharded"] - 1
        engine = _setup(bench, lambda: create_engine(config, inputs.sources), not last)
    unit = 0
    while unit < 3 or bench.time_left():
        order = _reordered(len(documents), seed, unit)
        calls = [
            (b"".join(documents[j] for j in order[i : i + per_call]), len(order[i : i + per_call]))
            for i in range(0, len(order), per_call)
        ]
        # The first pass completes the workers' tables and is not timed.
        answers = _pass(bench, state, engine, calls, len(calls), timed=unit > 0)
        _check_pass(bench, state, _in_input_order(order, answers))
        unit += 1
    stats = engine.stats()
    engine.close()
    from stats import median

    state.extra.update(
        {
            "service.batch_p50_ms": stats["batch_latency"]["p50_ms"],
            "service.critical_path_p50_ms": stats["critical_path_latency"]["p50_ms"],
            "service.imbalance": stats["imbalance"],
            "service.worker_restarts": stats["worker_restarts"],
            "service.parent_cpu_s": median(state.cpu_seconds[1:]),
            "service.worker_busy_s": sum(e["busy_s"] for e in stats["per_shard"]) / unit,
        }
    )
    return state


def auction_churn(bench: Bench, inputs, seed: int) -> State:
    from repro import create_engine
    from inputs import CONFIG

    config = CONFIG.with_engine("layered")
    state = State()
    bench.start_clock()
    engine = None
    for _ in range(SETUPS["auction-churn"]):
        engine = None
        engine = _setup(bench, lambda: create_engine(config, inputs.sources))
    rng = random.Random(seed * 7919 + 1)
    live = dict(inputs.sources)
    fresh = iter(inputs.fresh)
    threshold = config.compact_threshold
    groups = threshold // GROUP_ROUNDS
    documents = inputs.documents
    epoch = 0
    while epoch < 2 or (bench.time_left() and len(inputs.fresh) >= (epoch + 1) * threshold):
        traced = bench.traced_next("epoch")
        pieces = []
        epoch_bytes = 0
        for group in range(groups):
            rounds = []
            for _ in range(GROUP_ROUNDS):
                oid, text = next(fresh)
                victim = rng.choice(sorted(live))
                picks = [documents[rng.randrange(len(documents))] for _ in range(ROUND_DOCS)]
                rounds.append((oid, text, victim, picks))
                live[oid] = text
                del live[victim]
            epoch_bytes += sum(len(d) for r in rounds for d in r[3])
            updates: list[float] = []
            latencies: list[float] = []

            def work():
                clock = time.perf_counter
                out = []
                for oid, text, victim, picks in rounds:
                    began = clock()
                    engine.subscribe(oid, text)
                    updates.append(clock() - began)
                    engine.unsubscribe(victim)
                    for doc in picks:
                        began = clock()
                        out.append(engine.filter_stream(doc)[0])
                        latencies.append(clock() - began)
                return out

            if epoch == 0 and group == groups - 1:
                state.extra["layered.delta_states"] = engine.stats()["delta_states"]
            answers, piece = bench.run("rounds", work, traced, collect=group == 0)
            pieces.append(piece)
            bench.attempted += len(rounds) * (2 + ROUND_DOCS)
            if not traced:
                state.update_latency.extend(x * piece.factor for x in updates)
                state.doc_latency.extend(x * piece.factor for x in latencies)
                state.doc_latency_raw.extend(latencies)
            if group == groups - 1 or (epoch == 0 and group == 0):
                # After every compaction (the epoch's last subscribe
                # fires it), and once with delta and tombstones live:
                # checked against a serial machine after timing.
                state.deferred.append((dict(live), rounds[-1][3], answers[-ROUND_DOCS:]))
        if epoch == 0:
            state.extra["layered.compactions"] = engine.stats()["compactions"]
        _record_unit(state, pieces, epoch_bytes, traced)
        state.unit_bytes = epoch_bytes
        epoch += 1
    engine.close()
    return state


RUNNERS = {
    "protein-cold": ("protein", protein_cold),
    "nasa-warm": ("nasa", nasa_warm),
    "auction-churn": ("auction", auction_churn),
    "protein-sharded": ("protein", protein_sharded),
}


# ----------------------------------------------------------------------
# Verification, metrics, output
# ----------------------------------------------------------------------


def verify(bench: Bench, state: State, inputs, seed: int):
    """Checks run after timing: the first pass against a fresh serial
    machine, a seeded sample against the reference evaluator, and every
    deferred churn check against a serial engine over the live set."""
    from repro import create_engine
    from inputs import CONFIG, reference_pass, semantic_mismatches

    reference = reference_pass(inputs.sources, inputs.documents)
    if state.first_answers is not None:
        bench.check(state.first_answers, reference.answers)
    bench.failed += semantic_mismatches(inputs.sources, inputs.documents, reference.answers, seed)
    for index, (live, picks, answers) in enumerate(state.deferred):
        serial = create_engine(CONFIG, live)
        expected = [serial.filter_stream(doc)[0] for doc in picks]
        serial.close()
        bench.check(answers, expected)
        if index < 2:
            bench.failed += semantic_mismatches(live, picks, answers, seed + index)
    return reference


def _median_seconds(bench: Bench, kind: str, work) -> float:
    """Median normalized seconds of five slices of *work*."""
    from stats import median

    return median([bench.run(kind, work)[1].seconds for _ in range(5)])


def end_to_end(bench: Bench, state: State, rss_mb: float) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the diagnostics printed
    beside them: raw figures and the latency tail.  The tail is not a
    bounded metric: across seeds its quartiles spread by 6-17% of the
    median on this host, more than a third of any allowed bound."""
    from stats import median, tail_percentile

    setups = bench.of_kind("setup", traced=False)
    tail = tail_percentile(state.doc_latency)
    tail_raw = tail_percentile(state.doc_latency_raw)
    metrics = {
        "setup_s": (median([s.seconds for s in setups]), "s"),
        "mb_s": (median(state.unit_mb_s), "MB/s"),
        "doc_p50_ms": (median(state.doc_latency) * 1e3, "ms"),
        "rss_mb": (rss_mb, "MB"),
    }
    diagnostics = {
        "raw": {
            "setup_s": median([s.raw for s in setups]),
            "mb_s": median(state.unit_mb_s_raw),
            "doc_p50_ms": median(state.doc_latency_raw) * 1e3,
            f"doc_p{tail_raw[0]}_ms": tail_raw[1] * 1e3,
        },
        f"doc_p{tail[0]}_ms": tail[1] * 1e3,
        "samples": {
            "setups": len(setups),
            "units": len(state.unit_mb_s),
            "documents": len(state.doc_latency),
        },
    }
    return metrics, diagnostics


def per_layer(bench: Bench, state: State, inputs, reference, workload: str, rss_children_mb: float) -> dict:
    from inputs import CONFIG, null_parse
    from stats import median, tail_percentile

    units = state.unit_layers
    stream = inputs.stream_bytes

    def layer(name: str, key: str = "total") -> float:
        if not units:
            return 0.0
        return sum(unit.get(name, {}).get(key, 0.0) for unit in units) / len(units)

    setups = [s.layers for s in bench.of_kind("setup", traced=True)]

    def setup_layer(name: str) -> float:
        if not setups:
            return 0.0
        return sum(s.get(name, {}).get("total", 0.0) for s in setups) / len(setups)

    documents = inputs.documents
    parse_pass = _median_seconds(bench, "parse", lambda: [null_parse(d) for d in documents])
    parse_unit = parse_pass * state.unit_bytes / stream
    machine = reference.machine
    serial_pass = _median_seconds(
        bench,
        "serial",
        lambda: [machine.filter_stream(d, backend=CONFIG.backend) for d in documents],
    )
    engine_total = layer("engine.filter_stream")
    engine_self = layer("engine.filter_stream", "self")
    lookup_s = layer("afa.index.lookup")
    if workload == "protein-sharded":
        self_s = state.extra["service.worker_busy_s"] - SHARDS * parse_unit
    else:
        self_s = engine_total - engine_self - parse_unit - lookup_s
    updates = state.update_latency
    p99 = tail_percentile(updates) if updates else None
    samples = bench.calibrator.samples_ms
    stats = machine.stats
    values = {
        "host.calib_ms": (median(samples), "ms"),
        "host.drift": (max(samples) / min(samples), "ratio"),
        "trace.overhead": (
            median(state.unit_seconds[True]) / median(state.unit_seconds[False]),
            "ratio",
        ),
        "xmlstream.parse_s": (parse_unit, "s"),
        "xmlstream.events": (reference.fingerprint["xmlstream.events"], "count"),
        "xmlstream.dom_parse_s": (layer("xmlstream.parse_forest"), "s"),
        "xmlstream.serialize_s": (layer("xmlstream.document_to_xml"), "s"),
        "xpath.parse_s": (setup_layer("xpath.parse"), "s"),
        "afa.build_s": (setup_layer("afa.build_workload_automata"), "s"),
        "afa.index.freeze_s": (setup_layer("afa.index.freeze"), "s"),
        "afa.index.lookup_calls": (layer("afa.index.lookup", "calls"), "count"),
        "afa.index.lookup_s": (lookup_s, "s"),
        "afa.index.hit_ratio": (
            machine.index.hits / machine.index.lookups if machine.index.lookups else 0.0,
            "ratio",
        ),
        "xpush.push_computed": (stats.push_computed, "count"),
        "xpush.value_computed": (stats.value_computed, "count"),
        "xpush.pop_computed": (stats.pop_computed, "count"),
        "xpush.add_computed": (stats.add_computed, "count"),
        "xpush.hit_ratio": (stats.hit_ratio, "ratio"),
        "xpush.states": (machine.state_count, "count"),
        "xpush.resident_bytes": (machine.store.resident_bytes, "bytes"),
        "xpush.self_s": (self_s, "s"),
        "engine.wrapper_s": (engine_self, "s"),
        "layered.insert_s": (layer("layered.insert") - layer("layered.compact"), "s"),
        "layered.compact_s": (layer("layered.compact"), "s"),
        "layered.compactions": (state.extra.get("layered.compactions", 0), "count"),
        "layered.delta_states": (state.extra.get("layered.delta_states", 0), "count"),
        "layered.update_p50_ms": (median(updates) * 1e3 if updates else 0.0, "ms"),
        "layered.update_tail_ms": (p99[1] * 1e3 if p99 else 0.0, "ms"),
        "service.batch_p50_ms": (state.extra.get("service.batch_p50_ms", 0.0), "ms"),
        "service.critical_path_p50_ms": (
            state.extra.get("service.critical_path_p50_ms", 0.0),
            "ms",
        ),
        "service.imbalance": (state.extra.get("service.imbalance", 1.0), "ratio"),
        "service.worker_restarts": (state.extra.get("service.worker_restarts", 0), "count"),
        "service.parent_cpu_s": (state.extra.get("service.parent_cpu_s", 0.0), "s"),
        "service.serial_mb_s": (stream / MB / serial_pass, "MB/s"),
        "service.worker_rss_mb": (rss_children_mb, "MB"),
    }
    if p99:
        print(f"updates: {p99[2]} samples, tail percentile p{p99[0]}")
    return values


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    from inputs import make_inputs
    from stats import median

    dataset, runner = RUNNERS[args.workload]
    bench = Bench(args.seconds, bool(args.trace))
    inputs = make_inputs(dataset, args.seed)
    try:
        state = runner(bench, inputs, args.seed)
    except Exception:  # noqa: BLE001 - reported, counted and fatal
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(1, bench.attempted), "failed": bench.failed + 1, "metrics": {}}))
        return 1
    rss_self = _rss_mb(resource.RUSAGE_SELF)
    # Shard workers are the only children the benchmark starts.
    rss_children = _rss_mb(resource.RUSAGE_CHILDREN) if args.workload == "protein-sharded" else 0.0
    reference = verify(bench, state, inputs, args.seed)
    fingerprint = dict(reference.fingerprint)
    fingerprint["layered.compactions"] = state.extra.get("layered.compactions", 0)
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    samples = bench.calibrator.samples_ms
    print(
        f"host: calib median {median(samples):.3f} ms, drift x{max(samples) / min(samples):.3f}, "
        f"nproc {os.cpu_count()}, python {sys.version.split()[0]}"
    )
    metrics, diagnostics = end_to_end(bench, state, max(rss_self, rss_children))
    print("diagnostics: " + json.dumps(diagnostics, sort_keys=True))
    if args.trace:
        metrics = per_layer(bench, state, inputs, reference, args.workload, rss_children)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        bench.tracer.write(
            path,
            [
                {"index": i, "kind": s.kind, "traced": s.traced, "raw": s.raw, "factor": s.factor}
                for i, s in enumerate(bench.slices)
            ],
        )
        print(f"spans: {len(bench.tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
