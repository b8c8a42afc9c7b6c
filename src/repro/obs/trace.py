"""Per-lookup decision tracing.

:class:`~repro.core.engine.LookupTrace` (the *cost* view: memory reads
and compute cycles, replayed by the simulator) answers "what does this
lookup cost"; :class:`DecisionTrace` answers "*why*" — which nodes the
walk visited, which field/stride each level cut, what every HABS
POP_COUNT returned, how long each leaf linear search ran.  The paper's
headline explanations (worst-case depth 13, one POP_COUNT vs ~100 RISC
ops, HiCuts stalling on leaf scans) are assertions about exactly this
decision path, so tests and the ``harness profile`` experiment consume
it directly.

Usage::

    trace = DecisionTrace()
    rule = clf.classify(header, trace=trace)
    assert trace.result == rule
    print(trace.pretty())

ExpCuts, HiCuts, HyperCuts and linear search record these steps from
inside their ``access_trace(header, trace)``, the same walk npsim
charges; the other classifiers record a generic trace derived from
their :meth:`access_trace`.  The traced result is always identical to
the untraced one (property-tested per algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from ..core.engine import LookupTrace

#: Step kinds (``TraceStep.kind``).
STEP_NODE = "node"        # one internal-node visit (tree descent)
STEP_LEAF = "leaf"        # terminal node reached
STEP_LINEAR = "linear"    # one rule compared during a leaf/table scan
STEP_READ = "read"        # generic memory reference (fallback tracing)
STEP_NOTE = "note"        # free-form annotation (overlay hits, fallbacks)


@dataclass(frozen=True)
class TraceStep:
    """One recorded step of a lookup's decision path."""

    kind: str
    region: str = ""
    addr: int = -1
    words: int = 0
    detail: dict = field(default_factory=dict)

    def describe(self) -> str:
        extras = " ".join(f"{k}={v}" for k, v in self.detail.items())
        loc = f"{self.region}[{self.addr}]" if self.region else ""
        return " ".join(p for p in (f"{self.kind:6s}", loc, extras) if p)


@dataclass
class DecisionTrace:
    """The structured decision path of one classified packet."""

    algorithm: str | None = None
    header: tuple[int, ...] | None = None
    steps: list[TraceStep] = field(default_factory=list)
    result: int | None = None

    # -- recording (called by instrumented classifiers) -------------------

    def begin(self, algorithm: str, header: Sequence[int]) -> None:
        self.algorithm = algorithm
        self.header = tuple(int(v) for v in header)

    def node(self, region: str, addr: int, words: int = 1, **detail) -> None:
        self.steps.append(TraceStep(STEP_NODE, region, addr, words, detail))

    def leaf(self, region: str, addr: int, words: int = 0, **detail) -> None:
        self.steps.append(TraceStep(STEP_LEAF, region, addr, words, detail))

    def linear(self, region: str, addr: int, words: int, **detail) -> None:
        self.steps.append(TraceStep(STEP_LINEAR, region, addr, words, detail))

    def read(self, region: str, addr: int, words: int, **detail) -> None:
        self.steps.append(TraceStep(STEP_READ, region, addr, words, detail))

    def note(self, **detail) -> None:
        self.steps.append(TraceStep(STEP_NOTE, detail=detail))

    def finish(self, result: int | None) -> int | None:
        self.result = result
        return result

    def record_lookup(self, algorithm: str, header: Sequence[int],
                      lookup: "LookupTrace") -> int | None:
        """Generic fallback: derive the trace from an access trace.

        Used by classifiers whose access trace records no decision path
        — every memory reference becomes a ``read`` step, so aggregate
        views (accesses, words touched) stay exact even when the
        semantic labels (node/leaf/linear) are unavailable.
        """
        self.begin(algorithm, header)
        for read in lookup.reads:
            self.read(read.region, read.addr, read.nwords,
                      compute=read.compute_before)
        return self.finish(lookup.result)

    # -- derived views ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Internal nodes visited (tree algorithms; 0 for table lookups)."""
        return sum(1 for s in self.steps if s.kind == STEP_NODE)

    @property
    def linear_search_length(self) -> int:
        """Rules compared in leaf/table linear scans."""
        return sum(1 for s in self.steps if s.kind == STEP_LINEAR)

    @property
    def total_accesses(self) -> int:
        """Memory references touched (words-bearing steps)."""
        return sum(1 for s in self.steps if s.words > 0)

    @property
    def total_words(self) -> int:
        return sum(s.words for s in self.steps)

    @property
    def popcounts(self) -> list[int]:
        """Every HABS POP_COUNT result along the path (ExpCuts)."""
        return [s.detail["popcount"] for s in self.steps if "popcount" in s.detail]

    # -- rendering ---------------------------------------------------------

    def pretty(self) -> str:
        """A terminal-friendly rendering of the decision path."""
        head = (
            f"{self.algorithm or '?'} lookup"
            + (f" of {self.header}" if self.header is not None else "")
            + f" -> rule {self.result}"
        )
        lines = [head, "-" * min(len(head), 78)]
        for idx, step in enumerate(self.steps):
            lines.append(f"  {idx:3d} {step.describe()}")
        lines.append(
            f"  depth={self.depth} linear={self.linear_search_length} "
            f"accesses={self.total_accesses} words={self.total_words}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-friendly dump (profile reports embed sample traces)."""
        return {
            "algorithm": self.algorithm,
            "header": list(self.header) if self.header is not None else None,
            "result": self.result,
            "depth": self.depth,
            "linear_search_length": self.linear_search_length,
            "total_accesses": self.total_accesses,
            "total_words": self.total_words,
            "steps": [
                {"kind": s.kind, "region": s.region, "addr": s.addr,
                 "words": s.words, **({"detail": s.detail} if s.detail else {})}
                for s in self.steps
            ],
        }
