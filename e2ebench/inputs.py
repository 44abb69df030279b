"""Seeded inputs and the reference checks the benchmark runs after timing.

Everything the library under test receives is made here from the run's
seed: XPath filter sources (text) and XML documents (UTF-8 bytes).  The
generators and reference evaluator are the repository's own; they run
outside every timed slice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import EngineConfig, XPushMachine, parse_document, parse_xpath
from repro.bench.workloads import standard_workload
from repro.data import AuctionDataset, NasaDataset
from repro.data.protein import document_to_xml
from repro.xmlstream.parser import parse_into
from repro.xpath.generator import GeneratorConfig, QueryGenerator
from repro.xpath.semantics import matching_oids

FILTERS = 1000
CORPUS_SEED = 0
STREAM_BYTES = 400_000
#: Fresh filters generated for the churn workload's subscribes.
FRESH_FILTERS = 1500
#: Documents per workload checked against the reference evaluator.
SAMPLE_DOCUMENTS = 6
#: The library's default engine settings, with the parser pinned.
CONFIG = EngineConfig(backend="expat")


@dataclass
class Inputs:
    sources: dict[str, str]
    documents: list[bytes]
    fresh: list[tuple[str, str]] = field(default_factory=list)

    @property
    def stream_bytes(self) -> int:
        return sum(len(doc) for doc in self.documents)


def _documents(dataset, target_bytes: int) -> list[bytes]:
    out: list[bytes] = []
    total = 0
    for document in dataset.documents(1 << 30):
        text = document_to_xml(document).encode("utf-8")
        out.append(text)
        total += len(text)
        if total >= target_bytes:
            return out
    return out


def _generated(dataset, count: int, seed: int) -> list[str]:
    generator = QueryGenerator(
        dataset.dtd,
        dataset.value_pool,
        GeneratorConfig(seed=seed, mean_predicates=1.15, path_depth_min=2, path_depth_max=4),
    )
    return [str(f) for f in generator.generate(count)]


def make_inputs(dataset: str, seed: int) -> Inputs:
    """The filters and documents of one workload, from *seed* alone.

    As in the paper's experiments, the documents are a fixed corpus
    (generated from :data:`CORPUS_SEED`) and the seed draws the filter
    workload and the order the documents arrive in.  Redrawing the
    corpus per seed would move the tail latencies by the sampling
    variance of a few hundred document sizes (the 99th-percentile
    document size spreads by a fifth across seeds), which no
    regression bound could absorb.
    """
    if dataset == "protein":
        filters, data = standard_workload(FILTERS, seed=seed, dataset_seed=CORPUS_SEED)
        texts = [str(f) for f in filters]
    elif dataset == "nasa":
        data = NasaDataset(seed=CORPUS_SEED)
        texts = _generated(data, FILTERS, seed)
    elif dataset == "auction":
        data = AuctionDataset(seed=CORPUS_SEED)
        texts = _generated(data, FILTERS + FRESH_FILTERS, seed)
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    sources = {f"f{i}": text for i, text in enumerate(texts[:FILTERS])}
    fresh = [(f"s{i}", text) for i, text in enumerate(texts[FILTERS:])]
    documents = _documents(data, STREAM_BYTES)
    random.Random(seed).shuffle(documents)
    return Inputs(sources, documents, fresh)


class _Counter:
    """A parse handler that only counts SAX events."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events = 0

    def start_document(self) -> None:
        self.events += 1

    def start_element(self, label: str) -> None:
        self.events += 1

    def text(self, value: str) -> None:
        self.events += 1

    def end_element(self, label: str) -> None:
        self.events += 1

    def end_document(self) -> None:
        self.events += 1


def null_parse(document: bytes) -> int:
    """Parse one document into a handler that only counts events."""
    counter = _Counter()
    parse_into(document, counter, backend=CONFIG.backend)
    return counter.events


@dataclass
class Reference:
    """A bare serial machine's first pass over a workload's stream."""

    answers: list[frozenset[str]]
    machine: XPushMachine
    fingerprint: dict[str, int]


def reference_pass(sources: dict[str, str], documents: list[bytes]) -> Reference:
    """One cold pass of a fresh serial machine, one document per call."""
    machine = XPushMachine.from_xpath(sources, CONFIG.options)
    answers = [machine.filter_stream(doc, backend=CONFIG.backend)[0] for doc in documents]
    stats = machine.stats
    fingerprint = {
        "bytes": sum(len(doc) for doc in documents),
        "documents": len(documents),
        "xmlstream.events": sum(null_parse(doc) for doc in documents),
        "xpush.states": machine.state_count,
        "xpush.push_computed": stats.push_computed,
        "xpush.value_computed": stats.value_computed,
        "xpush.pop_computed": stats.pop_computed,
        "xpush.add_computed": stats.add_computed,
        "afa.index.lookup_calls": machine.index.lookups,
    }
    return Reference(answers, machine, fingerprint)


def semantic_mismatches(
    sources: dict[str, str], documents: list[bytes], answers: list[frozenset[str]], seed: int
) -> int:
    """Mismatches between *answers* and the reference evaluator on a
    seeded sample of the documents."""
    filters = [parse_xpath(text, oid) for oid, text in sources.items()]
    rng = random.Random(seed)
    picks = rng.sample(range(len(documents)), min(SAMPLE_DOCUMENTS, len(documents)))
    bad = 0
    for index in picks:
        expected = matching_oids(filters, parse_document(documents[index].decode("utf-8")))
        if set(answers[index]) != expected:
            bad += 1
    return bad
