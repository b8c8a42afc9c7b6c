"""`FloodGuard`: connection-aware front line for a classification service.

The admission gate and breakers (:mod:`repro.serve.admission`,
:mod:`repro.serve.breaker`) defend against *volume*; they are blind to
*connection semantics*, which is exactly where a SYN flood lives — every
flood packet is cheap, well-formed, and individually indistinguishable
from a legitimate handshake opener.  The guard sits in front of a
classify callable and applies the stateful checks a hardware gateway
performs before spending classification work:

1. **Checksum verification** — a packet flagged ``checksum_ok=False``
   is shed (``bad_checksum``) before anything else; corrupt payloads
   must never consume lookup capacity.
2. **Half-open accounting** — every admitted SYN opens a bounded LRU
   half-open entry; the handshake-completing ACK retires it into the
   established table.  When the half-open table reaches its budget the
   guard *engages*.
3. **SYN authentication while engaged** — the first SYN of an unknown
   connection is shed (``syn_unproven``) and its connection key
   recorded; a *retransmitted* SYN finds the record and is admitted.
   Real clients retransmit lost SYNs (that is TCP); spoofed flood
   sources never see the loss and never retransmit, so the flood sheds
   at the guard while legitimate flows pay one extra round trip.  This
   is the classic syn-cookie/syn-authentication trade made explicit.

Non-SYN packets of unknown connections pass through (mid-flow packets
on asymmetric paths are normal for a classifier-in-the-middle) — which
is deliberately *not* a defense against ACK scans; those are caught by
flow-cache attribution (:meth:`repro.npsim.flowcache.FlowCache.class_report`)
instead, because shedding them would also shed legitimate asymmetric
traffic.

Every decision is counted under the guard's metric scope, globally
(``<scope>.shed.<reason>``) and per traffic class
(``<scope>.class.<klass>.offered/served/shed``), so scenario-level
attribution — "who was shed, and why" — is a metrics query, not a
forensic exercise.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Sequence

from ..core.errors import AdmissionRejected, ConfigurationError
from ..obs.metrics import MetricScope
from ..traffic.scenarios import ACK, FIN, FINACK, SYN

#: Default half-open budget: how many un-ACKed handshakes the guard
#: tolerates before engaging SYN authentication.
HALF_OPEN_BUDGET = 64

#: Default capacity of the proof table (shed-SYN records awaiting a
#: retransmission).  Bounded because a spoofed flood writes one entry
#: per packet — the table must not become the memory attack itself.
PROOF_CAPACITY = 4096

#: Capacity of the established-connection table.
ESTABLISHED_CAPACITY = 8192


class FloodGuard:
    """Stateful TCP-aware policing in front of a classify callable.

    ``classify`` is whatever answers a header —
    :meth:`~repro.serve.service.ClassificationService.classify`, a bare
    classifier's ``classify``, or a fabric's.  The guard never alters
    an answer; it only decides whether the packet deserves one.
    """

    def __init__(self, classify: Callable[[Sequence[int]], int | None],
                 scope: MetricScope, *,
                 half_open_budget: int = HALF_OPEN_BUDGET,
                 proof_capacity: int = PROOF_CAPACITY) -> None:
        if half_open_budget < 1:
            raise ConfigurationError("half_open_budget must be >= 1")
        if proof_capacity < 1:
            raise ConfigurationError("proof_capacity must be >= 1")
        self._classify = classify
        self._scope = scope
        self._offered = scope.bind("offered")
        self._served = scope.bind("served")
        self._handshakes = scope.bind("handshakes_completed")
        self._syn_proven = scope.bind("syn_proven")
        #: Per traffic class: (offered, served, class scope), built on
        #: the class's first packet.
        self._classes: dict[str, tuple] = {}
        self._budget = half_open_budget
        self._proof_capacity = proof_capacity
        self._half_open: OrderedDict[tuple, None] = OrderedDict()
        self._proof: OrderedDict[tuple, None] = OrderedDict()
        self._established: OrderedDict[tuple, None] = OrderedDict()
        self._engagements = 0

    # -- connection identity ----------------------------------------------

    @staticmethod
    def connection_key(header: Sequence[int]) -> tuple:
        """Direction-independent connection identity.

        Both directions of one connection (SYN out, SYN/ACK back) must
        map to the same key, so the endpoints are ordered canonically.
        """
        a = (int(header[0]), int(header[2]))
        b = (int(header[1]), int(header[3]))
        lo, hi = (a, b) if a <= b else (b, a)
        return (lo, hi, int(header[4]))

    # -- state ------------------------------------------------------------

    @property
    def engaged(self) -> bool:
        """SYN authentication active (half-open table at budget)?"""
        return len(self._half_open) >= self._budget

    @property
    def half_open_count(self) -> int:
        return len(self._half_open)

    @property
    def established_count(self) -> int:
        return len(self._established)

    def report(self) -> dict:
        return {
            "half_open": len(self._half_open),
            "established": len(self._established),
            "proof_pending": len(self._proof),
            "engaged": self.engaged,
            "engagements": self._engagements,
        }

    # -- the decision path -------------------------------------------------

    def submit(self, header: Sequence[int], kind: str = "DATA",
               checksum_ok: bool = True,
               klass: str = "default") -> int | None:
        """Police one packet, then classify it.

        Raises :class:`AdmissionRejected` with reason ``bad_checksum``
        or ``syn_unproven`` when the packet is shed; otherwise returns
        whatever the wrapped ``classify`` returns (or raises).
        """
        self._offered.inc()
        entry = self._classes.get(klass)
        if entry is None:
            klass_scope = self._scope.scope(f"class.{klass}")
            entry = self._classes[klass] = (klass_scope.bind("offered"),
                                            klass_scope.bind("served"),
                                            klass_scope)
        klass_offered, klass_served, klass_scope = entry
        klass_offered.inc()
        if not checksum_ok:
            self._shed("bad_checksum", klass_scope)
        # Only handshake and teardown packets read connection state, so
        # DATA and SYNACK packets never build the key.
        if kind == SYN:
            self._police_syn(self.connection_key(header), klass_scope)
        elif kind == ACK:
            key = self.connection_key(header)
            if key in self._half_open:
                del self._half_open[key]
                self._remember(self._established, key, ESTABLISHED_CAPACITY)
                self._handshakes.inc()
        elif kind in (FIN, FINACK):
            key = self.connection_key(header)
            self._half_open.pop(key, None)
            self._established.pop(key, None)
        result = self._classify(header)
        self._served.inc()
        klass_served.inc()
        return result

    def _police_syn(self, key: tuple, klass_scope: MetricScope) -> None:
        if key in self._established:
            return  # stray SYN on a live connection; let it through
        if key in self._half_open:
            self._half_open.move_to_end(key)
            return  # retransmission of an already-open handshake
        if self.engaged:
            if key in self._proof:
                # Proven by retransmission: a real client came back.
                del self._proof[key]
                self._syn_proven.inc()
                self._open(key)
                return
            self._remember(self._proof, key, self._proof_capacity)
            self._shed("syn_unproven", klass_scope)
        self._open(key)

    def _open(self, key: tuple) -> None:
        self._half_open[key] = None
        if len(self._half_open) > self._budget:
            # Reclaim the oldest half-open entry (the timeout a real
            # stack would apply), keeping the table exactly at budget.
            self._half_open.popitem(last=False)
        if len(self._half_open) >= self._budget:
            self._engagements += 1

    @staticmethod
    def _remember(table: OrderedDict, key: tuple, capacity: int) -> None:
        table[key] = None
        if len(table) > capacity:
            table.popitem(last=False)

    def _shed(self, reason: str, klass_scope: MetricScope) -> None:
        self._scope.counter(f"shed.{reason}").inc()
        klass_scope.counter("shed").inc()
        klass_scope.counter(f"shed.{reason}").inc()
        raise AdmissionRejected(reason)
