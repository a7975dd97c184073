"""In-process simulated-MPI message fabric.

The PULSAR Runtime's proxy thread needs only six MPI calls (paper Section
IV-B): ``MPI_Isend``, ``_Irecv``, ``_Test``, ``_Get_count``, ``_Barrier``,
``_Cancel``.  :class:`Fabric` provides that surface for a set of *ranks*
living inside one OS process:

* non-blocking tagged point-to-point sends returning :class:`SendRequest`
  handles that complete asynchronously;
* per-``(source, destination, tag)`` FIFO ordering (the MPI guarantee the
  channel-numbering scheme relies on);
* payloads are deep-copied at send time, enforcing distributed-memory
  semantics — a rank can never observe another rank's later mutations;
* optional delivery jitter, which delays and interleaves deliveries across
  (src, dst) pairs to shake out ordering assumptions in tests;
* optional *fault injection*: a seeded :class:`~repro.faults.FaultPlan`
  makes the fabric lose, duplicate, or delay individual sends
  deterministically.  Jitter shakes out ordering bugs; faults shake out
  *loss* bugs — the ack/retransmit protocol in the PULSAR proxy
  (:mod:`repro.pulsar.runtime`) exists to survive exactly these.

A dropped send still completes its :class:`SendRequest` — as on a real
lossy network, the sender cannot tell; a delayed or duplicated delivery
deliberately breaks per-stream FIFO (the duplicate arrives late), so
consumers running under a fault plan must sequence-number their traffic.
Fault events are counted on the fabric (``dropped_messages``...) and, when
an observability recorder is installed, under the ``fault.*`` counters.

This is the substitution for Cray MPICH2 (see DESIGN.md): the runtime above
it is agnostic to whether messages cross a SeaStar2+ link or a queue.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from ..obs import record as _obs_record
from ..obs.record import K_FAULT_DELAY, K_FAULT_DROP, K_FAULT_DUPLICATE
from ..util.errors import NetworkError, TagError
from ..util.validation import check_nonnegative_int, check_positive_int

__all__ = ["Message", "SendRequest", "Fabric", "MAX_TAG"]

#: Minimum MPI-guaranteed tag upper bound the paper cites (16K "should be
#: more than enough for the foreseeable future").
MAX_TAG = 16 * 1024


def _copy_payload(payload: object) -> object:
    """Deep-copy a payload as a network transfer would.

    NumPy arrays are copied buffer-wise, keeping their memory order (a
    column-major tile stays column-major); containers recursively.  This is
    what makes rank isolation real inside one process.
    """
    if isinstance(payload, np.ndarray):
        return payload.copy(order="K")
    if isinstance(payload, (list, tuple)):
        out = [_copy_payload(p) for p in payload]
        return tuple(out) if isinstance(payload, tuple) else out
    if isinstance(payload, dict):
        return {k: _copy_payload(v) for k, v in payload.items()}
    return copy.deepcopy(payload)


@dataclass(frozen=True)
class Message:
    """A delivered message as seen by the receiving proxy."""

    source: int
    tag: int
    payload: object
    nbytes: int


@dataclass
class SendRequest:
    """Handle for a non-blocking send (``MPI_Isend`` analogue)."""

    _done: threading.Event = field(default_factory=threading.Event)
    cancelled: bool = False

    def test(self) -> bool:
        """Non-blocking completion check (``MPI_Test``)."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the send buffer may be reused."""
        return self._done.wait(timeout)

    def cancel(self) -> None:
        """Best-effort cancel (``MPI_Cancel``); completed sends stay sent."""
        if not self._done.is_set():
            self.cancelled = True
            self._done.set()


class Fabric:
    """A message fabric connecting ``n_ranks`` simulated nodes.

    Parameters
    ----------
    n_ranks:
        Number of ranks (one per simulated node).
    jitter:
        If positive, deliveries are shuffled in *delivery order across
        different (src, dst) pairs* using a deterministic pseudo-random
        delay in ``[0, jitter)`` "ticks"; ordering within one
        ``(src, dst, tag)`` stream is always preserved.
    seed:
        Seed for the jitter stream.
    max_tag:
        Upper bound on accepted tags (defaults to the 16K the paper cites).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; when it can inject
        fabric faults, each send consults it (keyed by the per-stream send
        ordinal) and may be dropped, duplicated, or delayed.  ``None`` or
        an all-zero plan costs nothing on the send path.
    """

    def __init__(
        self,
        n_ranks: int,
        *,
        jitter: float = 0.0,
        seed: int | None = None,
        max_tag: int = MAX_TAG,
        fault_plan=None,
    ):
        check_positive_int(n_ranks, "n_ranks")
        self.n_ranks = n_ranks
        self.max_tag = check_positive_int(max_tag, "max_tag")
        # Keep the no-fault fast path free of hashing: a plan that can
        # never fire is the same as no plan.
        self._plan = fault_plan if fault_plan is not None and fault_plan.faulty_fabric else None
        self._send_ordinal: dict[tuple[int, int, int], int] = {}
        self.dropped_messages = 0
        self.duplicated_messages = 0
        self.delayed_messages = 0
        self._lock = threading.Lock()
        self._mailboxes: list[list[Message]] = [[] for _ in range(n_ranks)]
        # Jitter state: a per-destination priority queue keyed by an
        # artificial delivery time; within a (src, tag) stream times are
        # non-decreasing so FIFO order survives.
        self._jitter = float(jitter)
        self._rng = np.random.default_rng(seed)
        self._pending: list[list[tuple[float, int, Message]]] = [[] for _ in range(n_ranks)]
        self._clock = itertools.count()
        self._last_time: dict[tuple[int, int, int], float] = {}
        self._shutdown = False
        self.sent_messages = 0
        self.sent_bytes = 0

    # -- sending -----------------------------------------------------------

    def isend(self, source: int, dest: int, tag: int, payload: object) -> SendRequest:
        """Post a non-blocking send; the payload is copied immediately.

        Returns a :class:`SendRequest` that is complete as soon as the copy
        is taken (an eager-protocol MPI send); the message becomes visible
        to the destination's :meth:`poll` atomically.
        """
        self._check_rank(source, "source")
        self._check_rank(dest, "dest")
        check_nonnegative_int(tag, "tag")
        if tag >= self.max_tag:
            raise TagError(f"tag {tag} exceeds the guaranteed MPI range [0, {self.max_tag})")
        nbytes = payload_nbytes(payload)
        msg = Message(source=source, tag=tag, payload=_copy_payload(payload), nbytes=nbytes)
        req = SendRequest()
        with self._lock:
            if self._shutdown:
                raise NetworkError("fabric has been shut down")
            self.sent_messages += 1
            self.sent_bytes += nbytes
            plan = self._plan
            if plan is None:
                self._enqueue(source, dest, tag, msg)
            else:
                key = (source, dest, tag)
                ordinal = self._send_ordinal.get(key, 0)
                self._send_ordinal[key] = ordinal + 1
                if plan.drop(source, dest, tag, ordinal):
                    # Lost on the wire: the send "completes" (the sender
                    # cannot tell), the message never arrives.
                    self.dropped_messages += 1
                    self._count_fault(K_FAULT_DROP)
                    req._done.set()
                    return req
                extra = plan.delay(source, dest, tag, ordinal)
                if extra > 0.0:
                    self.delayed_messages += 1
                    self._count_fault(K_FAULT_DELAY)
                self._enqueue(source, dest, tag, msg, extra=extra)
                if plan.duplicate(source, dest, tag, ordinal):
                    self.duplicated_messages += 1
                    self._count_fault(K_FAULT_DUPLICATE)
                    dup = Message(
                        source=source, tag=tag,
                        payload=_copy_payload(msg.payload), nbytes=nbytes,
                    )
                    self._enqueue(source, dest, tag, dup, extra=plan.delay_ticks)
        req._done.set()
        return req

    def _enqueue(self, source: int, dest: int, tag: int, msg: Message, extra: float = 0.0) -> None:
        """Queue one delivery (lock held).  ``extra`` is a fault delay in
        ticks; it bypasses the per-stream FIFO clamp on purpose — breaking
        arrival order is the fault being injected."""
        if self._jitter > 0.0 or extra > 0.0:
            base = next(self._clock)
            t = base + extra
            if self._jitter > 0.0:
                t += float(self._rng.uniform(0.0, self._jitter))
                if extra == 0.0:
                    key = (source, dest, tag)
                    t = max(t, self._last_time.get(key, -1.0) + 1e-9)
                    self._last_time[key] = t
            heapq.heappush(self._pending[dest], (t, base, msg))
        else:
            self._mailboxes[dest].append(msg)

    def _count_fault(self, key: str) -> None:
        rec = _obs_record._RECORDER
        if rec is not None:
            rec.count(key)

    # -- receiving ---------------------------------------------------------

    def poll(self, rank: int) -> Message | None:
        """Pop the next delivered message for ``rank`` (``Irecv``+``Test``).

        Returns ``None`` when nothing is currently deliverable.  With jitter
        enabled, pending messages "arrive" a few polls late, in shuffled
        cross-stream order.
        """
        self._check_rank(rank, "rank")
        with self._lock:
            if self._pending[rank]:
                now = next(self._clock)
                while self._pending[rank] and self._pending[rank][0][0] <= now:
                    self._mailboxes[rank].append(heapq.heappop(self._pending[rank])[2])
            if self._mailboxes[rank]:
                return self._mailboxes[rank].pop(0)
            return None

    def drain(self, rank: int) -> list[Message]:
        """Pop everything currently deliverable for ``rank``."""
        out = []
        while (msg := self.poll(rank)) is not None:
            out.append(msg)
        return out

    def pending_count(self, rank: int) -> int:
        """Messages queued (delivered or in flight) for ``rank``."""
        with self._lock:
            return len(self._mailboxes[rank]) + len(self._pending[rank])

    def quiescent(self) -> bool:
        """True when no message is queued anywhere (used for termination)."""
        with self._lock:
            return all(not m for m in self._mailboxes) and all(not p for p in self._pending)

    def flush_jitter(self) -> None:
        """Force all jittered in-flight messages to become deliverable."""
        with self._lock:
            for rank in range(self.n_ranks):
                while self._pending[rank]:
                    self._mailboxes[rank].append(heapq.heappop(self._pending[rank])[2])

    def shutdown(self) -> None:
        """Refuse further sends (receives drain normally)."""
        with self._lock:
            self._shutdown = True

    def _check_rank(self, rank: int, name: str) -> None:
        if not isinstance(rank, (int, np.integer)) or not 0 <= rank < self.n_ranks:
            raise NetworkError(f"{name} {rank!r} out of range [0, {self.n_ranks})")


def payload_nbytes(payload: object) -> int:
    """Approximate wire size of a payload (used for traffic accounting)."""
    if isinstance(payload, np.ndarray):
        return payload.nbytes
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(v) for v in payload.values())
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return 64  # nominal envelope for scalars / small objects
