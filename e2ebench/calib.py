"""Host-drift calibration: a fixed loop timed around every timed slice.

The host this benchmark was tuned on changes speed by tens of percent
over seconds, on both vCPUs alike, so raw wall-clock slices of one
program spread by more than any useful regression bound.  Timing a
fixed loop just before and just after each slice measures the host's
current speed; scaling the slice by ``REFERENCE_MS / mean(before,
after)`` reports it at the speed the reference was recorded at.

The loop imports nothing from the program under test, so no change to
the program can move it.  Its shape follows the filtering hot path,
because a pure-interpreter loop was found to track the host's drift
much worse (run medians spread x1.30 against x1.05 for this loop): the
stdlib expat parser drives Python callbacks that walk a memo table
keyed by (state, label) and (state, text) tuples.
"""

from __future__ import annotations

import random
import statistics
import time
import xml.parsers.expat

#: Calibration time (ms) on the reference host (2-vCPU x86-64 VM,
#: CPython 3.11); normalized slice times are expressed at this speed.
REFERENCE_MS = 0.6

#: Parses of the fixed document per calibration.
PARSES = 5
#: States of the memo walk (the table grows to a bounded size).
STATES = 500


def _element(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return f"<v>{rng.randrange(1000)}</v>"
    tag = f"t{rng.randrange(30)}"
    children = "".join(_element(rng, depth - 1) for _ in range(rng.randrange(1, 3)))
    return f'<{tag} a="{rng.randrange(50)}">{children}</{tag}>'


def calibration_document(seed: int = 7) -> bytes:
    """The fixed XML document the loop parses (about 6 KB)."""
    rng = random.Random(seed)
    return ("<r>" + "".join(_element(rng, 4) for _ in range(40)) + "</r>").encode()


class _MemoWalk:
    __slots__ = ("state", "stack", "table")

    def __init__(self) -> None:
        self.state = 0
        self.stack: list[int] = []
        self.table: dict[tuple, int] = {}

    def start(self, name: str, _attrs: dict) -> None:
        self.stack.append(self.state)
        key = (self.state, name)
        nxt = self.table.get(key)
        if nxt is None:
            nxt = self.table[key] = len(self.table) % STATES
        self.state = nxt

    def end(self, _name: str) -> None:
        self.state = self.stack.pop()

    def data(self, text: str) -> None:
        key = (self.state, text)
        if self.table.get(key) is None:
            self.table[key] = 1


class Calibrator:
    """The fixed loop plus every timing it took in this process."""

    def __init__(self) -> None:
        self._document = calibration_document()
        self._walk = _MemoWalk()
        self.samples_ms: list[float] = []

    def measure(self) -> float:
        """Time the loop; returns and records milliseconds.

        The loop is timed as ``PARSES`` single parses and the median
        is kept, so one interrupt cannot move a calibration."""
        walk = self._walk
        clock = time.perf_counter
        times = []
        for _ in range(PARSES):
            started = clock()
            parser = xml.parsers.expat.ParserCreate()
            parser.StartElementHandler = walk.start
            parser.EndElementHandler = walk.end
            parser.CharacterDataHandler = walk.data
            parser.Parse(self._document, True)
            times.append(clock() - started)
        elapsed = statistics.median(times) * 1e3
        self.samples_ms.append(elapsed)
        return elapsed


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that maps a raw slice time to reference host speed."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2.0)
