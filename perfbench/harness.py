"""Timing and verification of workload operations.

``Runner.op`` times one call with ``perf_counter``, converts the time to
speed-normalised seconds (see ``speed.py``) and checks the answer
outside the timed region.  The first round checks every answer with the
workload's check; later rounds must reproduce the first round's answers
exactly.  A call that raises, or whose answer fails, counts as failed.
"""

from __future__ import annotations

import sys
import traceback
from time import perf_counter

import speed

from gdag_lab.classify import Certificate
from gdag_lab.cones import Cone
from gdag_lab.dsep import CISet
from gdag_lab.enumeration import CensusReport
from gdag_lab.models import Distribution, IndependenceReport


def canon(x) -> str:
    """A deterministic text form of an answer, for comparing rounds and
    for the fingerprint of a run."""
    if isinstance(x, CensusReport):
        return x.csv_row() + "".join(g.to_json() for g in x.survivors)
    if isinstance(x, (Cone, CISet, Distribution)):
        return x.to_json()
    if isinstance(x, Certificate):
        # The search removes a node's parents in frozenset order, which
        # varies with the string hash seed; compare the step multiset and
        # the final edge set instead.
        return repr(sorted(map(repr, x.steps))) + repr((x.final.nodes, sorted(x.final.edges)))
    if isinstance(x, IndependenceReport):
        return f"holds={x.holds}"
    if isinstance(x, float):
        return f"{round(x, 6) + 0.0:.6f}"
    if isinstance(x, tuple):
        return "(" + ",".join(map(canon, x)) + ")"
    return repr(x)


class Runner:
    """Runs the operations of a workload round by round."""

    def __init__(self, meter) -> None:
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []  # every untraced operation, normalised seconds
        self.round_walls: list[float] = []  # sum of normalised operation times per untraced round
        self.raw_walls: list[float] = []  # the same sums in raw seconds
        self.reference: list[tuple[str, bool]] = []  # first-round (canon, ok) per operation
        self.begin_round()

    def begin_round(self, tracer=None) -> None:
        self.tracer = tracer
        self.results: list = []  # answers of the current round
        self._index = 0
        self._timings: list[tuple[float, int, int]] = []  # (raw s, first, last sample)

    def end_round(self) -> tuple[float, float]:
        """(normalised, raw) seconds spent in the round's operations.
        Normalising waits for the round's end, when every operation has
        speed samples after it."""
        for _ in range(speed.MARGIN):
            self.meter.sample()
        normalised = [self.meter.normalise(*t) for t in self._timings]
        wall = sum(normalised)
        raw = sum(t[0] for t in self._timings)
        if self.tracer is None:
            self.latencies.extend(normalised)
            self.round_walls.append(wall)
            self.raw_walls.append(raw)
        self.tracer = None
        return wall, raw

    def op(self, label: str, call, check):
        """Time ``call()``; return its answer, or None if it raised."""
        index = self._index
        self._index += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(index)
        error = None
        first = self.meter.mark()
        t0 = perf_counter()
        try:
            result = call()
        except Exception:  # a raising operation is counted, not fatal
            result = None
            error = traceback.format_exc()
        raw = perf_counter() - t0
        last = self.meter.mark()
        if tracer is not None:
            tracer.end_op()
        self._timings.append((raw, first, last))
        self.results.append(result)

        self.attempted += 1
        ok = error is None and self._verified(index, result, check)
        if not ok:
            self.failed += 1
            print(f"FAILED operation {index} ({label})", file=sys.stderr)
            if error:
                print(error, file=sys.stderr)
        return result

    def _verified(self, index: int, result, check) -> bool:
        text = canon(result)
        if index < len(self.reference):
            ref_text, ref_ok = self.reference[index]
            return ref_ok and text == ref_text
        try:
            ok = bool(check(result))
        except Exception:  # a check that cannot run on the answer fails it
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.reference.append((text, ok))
        return ok
