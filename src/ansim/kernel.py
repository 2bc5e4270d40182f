"""Discrete-event kernel: millisecond clock, ordered event queue, links,
fault injection and trace emission.

Determinism contract: the kernel owns the only random number generator in a
run. Event ordering is lexicographic on (time, sequence number), so two runs
with the same seed and the same call sequence produce byte-identical traces.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Optional

from .model import (
    BROADCAST,
    DATA_PACKET_KINDS,
    Envelope,
    SimError,
)


class SchedulingInPast(SimError):
    pass


class UnknownReceiver(SimError):
    pass


# A str Enum, so that a kind compares equal to its name in the scenario schema.
class FaultKind(str, Enum):
    DROP_NEXT_N = "drop_next_n"
    CRASH = "crash"
    RESTORE = "restore"


@dataclass(frozen=True)
class FaultSpec:
    """A scheduled fault against one node.

    drop_next_n: the node's radio drops its next ``n`` outbound data packets
    (sensor data and status broadcasts only). The defect is considered present
    until an explicit restore, even after the counter is exhausted, which is
    what keeps diagnostic probes unanswered in the meantime.
    crash: the node stops sending and processing entirely.
    restore: clears any crash or drop defect.
    """

    target: int
    kind: FaultKind
    at_ms: int
    n: int = 0

    def __post_init__(self) -> None:
        if self.kind is FaultKind.DROP_NEXT_N and self.n <= 0:
            raise SimError("drop_next_n fault requires n > 0")


@dataclass(frozen=True)
class LinkOverride:
    """The link parameters of one directed pair."""

    src: int
    dst: int
    latency_ms: int
    jitter_ms: int
    loss_probability: float


@dataclass(frozen=True)
class LinksConfig:
    """The default link parameters, and the directed pairs that differ."""

    latency_ms: int = 10
    jitter_ms: int = 0
    loss_probability: float = 0.0
    overrides: tuple[LinkOverride, ...] = ()


def timer_label(owner: int, tag: str) -> str:
    """The tail of a timer's trace line; ``run_until`` inlines it."""
    return f"\ttimer/{tag}\t{owner}\t-\t0"


@dataclass
class KernelStats:
    scheduled: int = 0
    dispatched: int = 0


class Engine:
    """Event loop plus the physical layer (links, faults, randomness).

    The queue is a heap of the distinct pending times plus, per time, a list
    of its ``(sequence number, body)`` entries. Sequence numbers only grow,
    so each list is already in order, and scheduling at a time that is
    pending is a dict lookup and a list append. A delivery's body is its
    Envelope, a timer's the tuple ``(owner, tag, data)`` and a fault's its
    FaultSpec.

    A deadline is the pair ``(guard, gen)``, live only while ``guard.gen
    == gen``; ``guard.label`` is its trace line after the sequence number,
    as ``timer_label`` writes it. Only a live deadline is handed to
    ``on_deadline(guard)``; a superseded one is skipped at dispatch, as a
    cancelled event would be, but traced and counted all the same. A
    deadline run is the list ``[guards, first_gen]``: the deadlines
    ``(guards[i], first_gen + i)`` due at one time, queued as one entry
    that reserves one sequence number per guard. Its lines, one per guard
    under consecutive sequence numbers, are all written first; then each
    guard is checked in turn, after the ones before it have acted. If the
    hook raises, the whole run counts as dispatched and none stays queued.
    """

    def __init__(self, seed: int, links: LinksConfig,
                 node_ids: Iterable[int], recorder=None,
                 trace: Optional[list[str]] = None):
        self.now = 0
        self.rng = random.Random(seed)
        self.links = links
        self._overrides: dict[tuple[int, int], LinkOverride] = {
            (ov.src, ov.dst): ov for ov in links.overrides}
        self.recorder = recorder
        self.trace = trace
        # ``scheduled`` doubles as the next event's sequence number
        self.stats = KernelStats()
        self._times: list[int] = []
        self._buckets: dict[int, list[tuple[int, object]]] = {}
        self._send_seq = 0
        self._known: set[int] = set(node_ids)
        # ids of the nodes crashed and not yet restored; read, never written,
        # outside the kernel
        self.crashed: set[int] = set()
        # nodes with an injected defect not yet restored, crashed ones too
        self._defective: set[int] = set()
        # node -> data packets its radio still drops, for counts above 0
        self._drops: dict[int, int] = {}
        # test hook: sequence numbers of the sends to lose; see force_lose
        self._forced_losses: set[int] = set()
        self.on_deliver: Callable[[Envelope], None] = lambda env: None
        self.on_timer: Callable[[int, str, int], None] = lambda o, t, d: None
        self.on_deadline: Callable[[object], None] = lambda guard: None

    # ---------------------------------------------------------------- queue

    def schedule(self, at: int, body: object, count: int = 1) -> None:
        """Queue ``body`` at ``at`` under the next ``count`` sequence
        numbers; only a deadline run reserves more than one."""
        if at < self.now:
            raise SchedulingInPast(
                f"cannot schedule at t={at}, clock is at t={self.now}")
        stats = self.stats
        seq = stats.scheduled
        stats.scheduled = seq + count
        buckets = self._buckets
        bucket = buckets.get(at)
        if bucket is None:
            buckets[at] = [(seq, body)]
            heappush(self._times, at)
        else:
            bucket.append((seq, body))

    def schedule_timer(self, at: int, owner: int, tag: str, data: int = 0) -> None:
        self.schedule(at, (owner, tag, data))

    def pending(self) -> int:
        """Events queued and not yet dispatched; a run counts per guard."""
        stats = self.stats
        return stats.scheduled - stats.dispatched

    def run_until(self, t_end: int) -> None:
        """Dispatch every event with time <= t_end, then advance the clock.

        Deliveries, timers and deadlines, nearly every event, are
        dispatched inline; ``on_deliver``, ``on_timer`` and ``on_deadline``
        are read at each event, and at each live deadline of a run, so a
        callback replaced during the run takes effect at the next one. An
        event scheduled at the current time during dispatch joins the end
        of the list being drained, which is its (time, sequence number)
        place, after any run being dispatched. If a handler raises, the
        events dispatched so far are gone, the one that raised with them,
        and the rest stay queued.
        """
        times = self._times
        buckets = self._buckets
        trace = self.trace
        stats = self.stats
        while times and times[0] <= t_end:
            at = heappop(times)
            self.now = at
            bucket = buckets[at]
            # entries dispatched from this bucket are the events dispatched
            # less the extra deadlines of its runs
            first = stats.dispatched
            stamp = f"{at}\t"
            try:
                for seq, body in bucket:
                    stats.dispatched += 1
                    cls = type(body)
                    if cls is Envelope:
                        if trace is not None:
                            recv = ("*" if body.receiver == BROADCAST
                                    else body.receiver)
                            trace.append(
                                f"{stamp}{seq}\t{body.kind._value_}\t"
                                f"{body.sender}\t{recv}\t{body.wire_len}")
                        self.on_deliver(body)
                    elif cls is tuple and len(body) == 2:
                        guard, gen = body
                        try:
                            label, live = guard.label, guard.gen == gen
                        except AttributeError:
                            raise SimError(f"unknown event body {body!r}")
                        if trace is not None:
                            trace.append(f"{stamp}{seq}{label}")
                        if live:
                            self.on_deadline(guard)
                    elif cls is tuple and len(body) == 3:
                        owner, tag, data = body
                        if trace is not None:
                            trace.append(f"{stamp}{seq}\ttimer/{tag}\t"
                                         f"{owner}\t-\t0")
                        self.on_timer(owner, tag, data)
                    elif cls is list:
                        guards, gen = body
                        extra = len(guards) - 1
                        stats.dispatched += extra
                        first += extra
                        if trace is not None:
                            trace.extend([
                                f"{stamp}{i}{guard.label}"
                                for i, guard in enumerate(guards, seq)])
                        for gen, guard in enumerate(guards, gen):
                            if guard.gen == gen:
                                self.on_deadline(guard)
                    else:
                        self._dispatch_fault(at, seq, body)
            finally:
                done = stats.dispatched - first
                if done < len(bucket):
                    del bucket[:done]
                    heappush(times, at)
                else:
                    del buckets[at]
        if t_end > self.now:
            self.now = t_end

    def _dispatch_fault(self, at: int, seq: int, body: object) -> None:
        if not isinstance(body, FaultSpec):
            raise SimError(f"unknown event body {body!r}")
        if self.trace is not None:
            self.trace.append(
                f"{at}\t{seq}\tfault/{body.kind.value}\t{body.target}\t-\t0")
        self._apply_fault(body)

    # ---------------------------------------------------------------- links

    def send(self, env: Envelope) -> bool:
        """Transmit one wrapped envelope.

        Returns True when a delivery was scheduled, False when the envelope
        was lost (radio defect or probabilistic loss). A crashed sender
        transmits nothing at all and nothing is recorded for it.

        What a send takes from the generator: one ``random()`` on a lossy
        link, then, if the envelope survives on a jittered link, exactly
        the ``getrandbits`` draws of ``randint(0, jitter)``.
        """
        sender = env.sender
        receiver = env.receiver
        if receiver != BROADCAST and receiver not in self._known:
            raise UnknownReceiver(f"receiver {receiver} is not a known node")
        if env.wire_len < len(env.payload):
            raise SimError("envelope must be wrapped before sending")
        if sender in self.crashed:
            return False

        seq = self._send_seq = self._send_seq + 1
        drops = self._drops
        forced = self._forced_losses
        if drops and sender in drops and env.kind in DATA_PACKET_KINDS:
            if drops[sender] > 1:
                drops[sender] -= 1
            else:
                del drops[sender]
            delivered = False
        elif forced and seq in forced:
            forced.remove(seq)
            delivered = False
        else:
            overrides = self._overrides
            spec = (overrides.get((sender, receiver), self.links)
                    if overrides else self.links)
            loss = spec.loss_probability
            delivered = not (loss > 0 and self.rng.random() < loss)
            if delivered:
                latency = spec.latency_ms
                span = spec.jitter_ms + 1
                if span > 1:
                    # randint(0, jitter)'s draws, without its three Python
                    # frames
                    bits = span.bit_length()
                    draw = self.rng.getrandbits
                    extra = draw(bits)
                    while extra >= span:
                        extra = draw(bits)
                    latency += extra
                self.schedule(self.now + latency, env)
        recorder = self.recorder
        if recorder is not None:
            recorder.record_send(seq, env, delivered)
        return delivered

    def force_lose(self, *seqs: int) -> None:
        """Fault-injection hook: lose the sends numbered ``seqs``. Sends are
        numbered from 1 in the order they are made, as the recorder sees
        them; a crashed sender's attempts take no number."""
        self._forced_losses.update(seqs)

    # ---------------------------------------------------------------- faults

    def inject(self, fault: FaultSpec) -> None:
        self.schedule(fault.at_ms, fault)

    def _apply_fault(self, fault: FaultSpec) -> None:
        target = fault.target
        if fault.kind is FaultKind.RESTORE:
            self.crashed.discard(target)
            self._defective.discard(target)
            self._drops.pop(target, None)
            return
        self._defective.add(target)
        if fault.kind is FaultKind.DROP_NEXT_N:
            self._drops[target] = self._drops.get(target, 0) + fault.n
        elif fault.kind is FaultKind.CRASH:
            self.crashed.add(target)

    def is_responsive(self, node: int) -> bool:
        """A node answers diagnostics only while free of any injected defect."""
        return node not in self._defective
