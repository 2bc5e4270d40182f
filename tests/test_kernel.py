"""Event kernel: ordering, links, loss, faults, trace."""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ansim.kernel import (
    Engine,
    FaultKind,
    FaultSpec,
    LinkOverride,
    LinksConfig,
    SchedulingInPast,
    UnknownReceiver,
    timer_label,
)
from ansim.model import BROADCAST, CMU_ID, Envelope, EnvelopeKind, SimError
from ansim.runner import build_simulation, run_scenario
from ansim.scenario import load_scenario


def make_engine(seed=1, latency=10, jitter=0, loss=0.0, nodes=(1, 2, 3),
                recorder=None, trace=None):
    links = LinksConfig(latency_ms=latency, jitter_ms=jitter,
                        loss_probability=loss)
    return Engine(seed=seed, links=links, node_ids=[CMU_ID, *nodes],
                  recorder=recorder, trace=trace)


def data_env(sender=1, receiver=2, at=0, kind=EnvelopeKind.SENSOR_DATA,
             length=20):
    payload = b"d" * length
    return Envelope(kind=kind, sender=sender, receiver=receiver,
                    payload=payload, sent_at=at, wire_len=length)


class Guard:
    """A deadline's guard as the kernel reads it: a trace label and the
    generation of its live deadline."""

    def __init__(self, owner, tag, gen):
        self.owner = owner
        self.label = timer_label(owner, tag)
        self.gen = gen


class SpyRecorder:
    def __init__(self):
        self.calls = []

    def record_send(self, seq, env, delivered):
        self.calls.append((seq, env, delivered))


def test_timers_fire_in_time_then_insertion_order():
    eng = make_engine()
    fired = []
    eng.on_timer = lambda owner, tag, data: fired.append((eng.now, tag))
    eng.schedule_timer(50, 1, "b")
    eng.schedule_timer(20, 1, "a")
    eng.schedule_timer(50, 1, "c")
    eng.run_until(100)
    assert fired == [(20, "a"), (50, "b"), (50, "c")]
    assert eng.now == 100


def test_run_until_advances_clock_even_when_idle():
    eng = make_engine()
    eng.run_until(500)
    assert eng.now == 500
    with pytest.raises(SchedulingInPast):
        eng.schedule_timer(499, 1, "late")


def test_send_delivers_after_latency():
    eng = make_engine(latency=25)
    seen = []
    eng.on_deliver = lambda env: seen.append((eng.now, env.kind))
    assert eng.send(data_env(at=0)) is True
    eng.run_until(100)
    assert seen == [(25, EnvelopeKind.SENSOR_DATA)]


def test_callbacks_are_read_at_each_event():
    # run_until must not cache on_deliver or on_timer: a callback replaced
    # by the handler of one event takes the next, even at the same time
    eng = make_engine()
    seen = []
    eng.on_deliver = lambda env: seen.append(("old", eng.now))

    def swap(owner, tag, data):
        eng.on_deliver = lambda env: seen.append(("new", eng.now))
        eng.on_timer = lambda owner, tag, data: seen.append((tag, eng.now))

    eng.on_timer = swap
    eng.send(data_env())
    eng.schedule_timer(10, 1, "swap")
    eng.send(data_env())
    eng.schedule_timer(30, 1, "after")
    eng.run_until(100)
    assert seen == [("old", 10), ("new", 10), ("after", 30)]


def test_send_to_unknown_receiver_rejected():
    eng = make_engine(nodes=(1, 2))
    with pytest.raises(UnknownReceiver):
        eng.send(data_env(receiver=9))


def test_unwrapped_envelope_rejected():
    eng = make_engine()
    bare = Envelope(kind=EnvelopeKind.SENSOR_DATA, sender=1, receiver=2,
                    payload=b"d" * 20, sent_at=0)
    with pytest.raises(SimError):
        eng.send(bare)


def test_zero_loss_consumes_no_randomness():
    # with loss and jitter both zero the rng is never consulted, so the
    # delivery schedule is the same for any seed
    times = []
    for seed in (1, 99):
        eng = make_engine(seed=seed)
        got = []
        eng.on_deliver = lambda env, got=got: got.append(eng.now)
        for _ in range(5):
            eng.send(data_env())
        eng.run_until(50)
        times.append(got)
    assert times[0] == times[1] == [10, 10, 10, 10, 10]


def test_total_loss_drops_everything():
    rec = SpyRecorder()
    eng = make_engine(loss=1.0, recorder=rec)
    seen = []
    eng.on_deliver = lambda env: seen.append(env)
    for _ in range(10):
        eng.send(data_env())
    eng.run_until(1000)
    assert seen == []
    assert len(rec.calls) == 10
    assert all(delivered is False for _, _, delivered in rec.calls)


def test_link_override_changes_one_pair():
    links = LinksConfig(latency_ms=10, overrides=(
        LinkOverride(src=1, dst=2, latency_ms=40, jitter_ms=0,
                     loss_probability=0.0),))
    eng = Engine(seed=1, links=links, node_ids=[CMU_ID, 1, 2, 3])
    seen = []
    eng.on_deliver = lambda env: seen.append((eng.now, env.receiver))
    eng.send(data_env(sender=1, receiver=2))
    eng.send(data_env(sender=1, receiver=3))
    eng.run_until(100)
    assert seen == [(10, 3), (40, 2)]


def test_crashed_sender_transmits_nothing():
    rec = SpyRecorder()
    eng = make_engine(recorder=rec)
    eng.inject(FaultSpec(target=1, kind=FaultKind.CRASH, at_ms=5))
    eng.run_until(5)
    assert 1 in eng.crashed
    assert eng.send(data_env(sender=1, at=5)) is False
    assert rec.calls == []
    # a crashed node still receives at the link level; gating is protocol work
    assert eng.send(data_env(sender=2, receiver=1, at=5)) is True


def test_drop_next_n_swallows_exactly_n_data_packets():
    rec = SpyRecorder()
    eng = make_engine(recorder=rec)
    eng.inject(FaultSpec(target=1, kind=FaultKind.DROP_NEXT_N, at_ms=0,
                         n=3))
    eng.run_until(0)
    outcomes = []
    for _ in range(4):
        outcomes.append(eng.send(data_env(sender=1)))
    # the fourth data packet goes through, but the defect itself persists
    assert outcomes == [False, False, False, True]
    assert [d for _, _, d in rec.calls] == [False, False, False, True]
    assert not eng.is_responsive(1)
    eng.inject(FaultSpec(target=1, kind=FaultKind.RESTORE, at_ms=0))
    eng.run_until(0)
    assert eng.is_responsive(1)


def test_drop_fault_spares_non_data_kinds():
    eng = make_engine()
    eng.inject(FaultSpec(target=1, kind=FaultKind.DROP_NEXT_N, at_ms=0,
                         n=2))
    eng.run_until(0)
    pong = Envelope(kind=EnvelopeKind.PONG, sender=1, receiver=2,
                    payload=b"p" * 16, sent_at=0, wire_len=16)
    assert eng.send(pong) is True
    # both drop charges remain for actual data packets
    assert eng.send(data_env(sender=1)) is False
    assert eng.send(data_env(sender=1)) is False
    assert eng.send(data_env(sender=1)) is True


def test_drop_fault_requires_positive_n():
    with pytest.raises(SimError):
        FaultSpec(target=1, kind=FaultKind.DROP_NEXT_N, at_ms=0, n=0)


def test_forced_loss_hook():
    eng = make_engine()
    seen = []
    eng.on_deliver = lambda env: seen.append(env.receiver)
    eng.force_lose(1)
    assert eng.send(data_env(sender=1, receiver=2)) is False
    assert eng.send(data_env(sender=1, receiver=2)) is True
    eng.run_until(50)
    assert seen == [2]


def test_forced_losses_pick_sends_by_sequence_number():
    rec = SpyRecorder()
    eng = make_engine(recorder=rec)
    eng.force_lose(2, 4, 7)
    eng.inject(FaultSpec(target=3, kind=FaultKind.CRASH, at_ms=0))
    eng.run_until(0)
    sends = [(1, 2), (2, 1), (3, 1), (1, 3), (1, 2), (2, 3), (1, 2)]
    outcomes = [eng.send(data_env(sender=s, receiver=r)) for s, r in sends]
    # crashed node 3's attempt takes no number, so 1 -> 3 is send 3 and the
    # last 1 -> 2 is send 6; whatever the pair, only the numbered sends go
    assert outcomes == [True, False, False, True, False, True, True]
    assert [(seq, d) for seq, _, d in rec.calls] == [
        (1, True), (2, False), (3, True), (4, False), (5, True), (6, True)]
    # send 7 is still to come
    assert eng.send(data_env(sender=2, receiver=1)) is False
    assert eng.send(data_env(sender=2, receiver=1)) is True


def test_trace_line_format():
    trace = []
    eng = make_engine(trace=trace)
    eng.schedule_timer(5, 1, "tick", 7)
    eng.send(data_env(sender=1, receiver=BROADCAST, length=12))
    eng.inject(FaultSpec(target=2, kind=FaultKind.CRASH, at_ms=8))
    eng.run_until(20)
    assert any(line.split("\t")[2:] == ["timer/tick", "1", "-", "0"]
               for line in trace)
    deliver = [line for line in trace
               if line.split("\t")[2] == "sensor_data"]
    assert len(deliver) == 1
    fields = deliver[0].split("\t")
    assert fields[0] == "10" and fields[3] == "1" and fields[4] == "*"
    assert fields[5] == "12"
    assert any(line.split("\t")[2] == "fault/crash" for line in trace)


def test_same_seed_same_schedule_under_loss():
    def run(seed):
        eng = make_engine(seed=seed, loss=0.3, jitter=3)
        seen = []
        eng.on_deliver = lambda env: seen.append(eng.now)
        for i in range(50):
            eng.send(data_env(at=0))
        eng.run_until(100)
        return seen

    assert run(7) == run(7)
    assert run(7) != run(8)


@pytest.mark.parametrize("loss", [0.0, 0.3])
@pytest.mark.parametrize("seed", [1, 7, 2024])
def test_jitter_draw_is_randints_draw(seed, loss):
    # Engine.send draws jitter with getrandbits itself; it must take exactly
    # what Random.randint(0, jitter) takes, in order with the loss draws.
    # Every jitter but 1, 3, 7 and 63 needs rejections (jitter + 1 is no
    # power of two).
    for jitter in (1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 1000):
        eng = make_engine(seed=seed, latency=10, jitter=jitter, loss=loss)
        ref = random.Random(seed)
        arrived = {}
        eng.on_deliver = lambda env, eng=eng: arrived.setdefault(
            env.sent_at, eng.now)
        expected = {}
        for i in range(300):
            if i % 100 == 50:
                eng.run_until(eng.now + 1500)
            kept = not (loss > 0 and ref.random() < loss)
            if kept:
                expected[i] = eng.now + 10 + ref.randint(0, jitter)
            assert eng.send(data_env(at=i)) is kept
        eng.run_until(eng.now + 2000)
        assert arrived == expected
        assert eng.rng.getstate() == ref.getstate()


# ------------------------------------------------- callers that swap hooks

def test_every_schedule_goes_through_the_class_attribute(monkeypatch):
    # instrumentation swaps Engine.schedule; inlined scheduling would
    # bypass it
    calls = reserved = 0
    schedule = Engine.schedule

    def counting_schedule(self, at, body, count=1):
        nonlocal calls, reserved
        calls += 1
        reserved += count
        return schedule(self, at, body, count)

    monkeypatch.setattr(Engine, "schedule", counting_schedule)
    result = run_scenario(load_scenario("fire-sensor-dropout"),
                          profile="auth-encap")
    # deadline runs reserve a sequence number per deadline
    assert result.engine.stats.scheduled == reserved > calls > 0
    assert result.engine.stats.dispatched <= reserved


def test_unknown_event_body_raises():
    eng = make_engine()
    fired = []
    eng.on_timer = lambda owner, tag, data: fired.append(tag)
    eng.schedule_timer(5, 1, "before")
    eng.schedule(5, object())
    eng.schedule_timer(5, 1, "after")
    with pytest.raises(SimError):
        eng.run_until(10)
    assert fired == ["before"]
    eng.run_until(10)
    assert fired == ["before", "after"]
    assert eng.pending() == 0


@pytest.mark.parametrize("body", [(1, "short"), (1, "long", 0, 0)],
                         ids=["2-tuple", "4-tuple"])
def test_malformed_timer_tuple_raises(body):
    # a timer is queued as (owner, tag, data); any other tuple is unknown
    eng = make_engine()
    fired = []
    eng.on_timer = lambda owner, tag, data: fired.append(tag)
    eng.schedule(5, body)
    eng.schedule_timer(5, 1, "after")
    with pytest.raises(SimError):
        eng.run_until(10)
    assert fired == []
    eng.run_until(10)
    assert fired == ["after"]


# ------------------------------------------------------------ event queue

# A queue program: events scheduled up front; per event id, the events its
# handler schedules; the run_until stops; and, before each stop, events
# scheduled from outside the loop. Each scheduling is (time or delay, size):
# size 1 queues one timer or, for an odd id, one deadline, and a larger size
# a deadline run of that many. Delays of spawned events count from the
# spawning event's time, those from outside from the clock. Ids are handed
# out in scheduling order, one per event, so an event's id is its sequence
# number.
sized = st.integers(1, 3)
queue_programs = st.tuples(
    st.lists(st.tuples(st.integers(0, 30), sized), max_size=25),
    st.lists(st.lists(st.tuples(st.integers(0, 4), sized), max_size=3),
             max_size=40),
    st.lists(st.integers(0, 60), min_size=1, max_size=6).map(sorted),
    st.lists(st.lists(st.tuples(st.integers(0, 3), sized), max_size=3),
             min_size=6, max_size=6),
)
SPAWNING_IDS = 100


def spawned(children, event_id):
    if event_id >= SPAWNING_IDS or not children:
        return []
    return children[event_id % len(children)]


def reference_queue(program):
    """The dispatch order and the pending count after each stop, from a
    heap of (time, id) pairs, a run being its deadlines one by one."""
    initial, children, stops, between = program
    heap, order, pending, now = [], [], [], 0

    def push(at, size):
        for _ in range(size):
            heapq.heappush(heap, (at, push.next_id))
            push.next_id += 1
    push.next_id = 0

    for at, size in initial:
        push(at, size)
    for stop, outside in zip(stops, between):
        for delay, size in outside:
            push(now + delay, size)
        while heap and heap[0][0] <= stop:
            now, event_id = heapq.heappop(heap)
            order.append((now, event_id))
            for delay, size in spawned(children, event_id):
                push(now + delay, size)
        now = max(now, stop)
        pending.append(len(heap))
    return order, pending


@settings(max_examples=300, deadline=None)
@given(queue_programs)
def test_queue_dispatches_in_time_then_sequence_order(program):
    # timers, deadlines and deadline runs mix; a run's deadlines keep their
    # own sequence numbers and trace lines, and whatever on_deadline
    # schedules at the same time goes after the whole run
    initial, children, stops, between = program
    trace = []
    eng = make_engine(trace=trace)
    order, pending = [], []
    next_id = 0

    def schedule(at, size):
        nonlocal next_id
        guards = [Guard(1000 + i, "q", i)
                  for i in range(next_id, next_id + size)]
        if size > 1:
            eng.schedule(at, [guards, next_id], size)
        elif next_id % 2:
            eng.schedule(at, (guards[0], next_id))
        else:
            eng.schedule_timer(at, 1000 + next_id, "q", next_id)
        next_id += size

    def fire(owner, event_id):
        assert owner == 1000 + event_id
        order.append((eng.now, event_id))
        for delay, size in spawned(children, event_id):
            schedule(eng.now + delay, size)

    eng.on_timer = lambda owner, tag, event_id: fire(owner, event_id)
    eng.on_deadline = lambda guard: fire(guard.owner, guard.gen)
    for at, size in initial:
        schedule(at, size)
    for stop, outside in zip(stops, between):
        for delay, size in outside:
            schedule(eng.now + delay, size)
        eng.run_until(stop)
        pending.append(eng.pending())
        assert eng.pending() == (eng.stats.scheduled
                                 - eng.stats.dispatched)
    assert (order, pending) == reference_queue(program)
    assert [line.split("\t")[1:3] for line in trace] == [
        [str(event_id), "timer/q"] for _, event_id in order]
    assert [int(line.split("\t")[3]) for line in trace] == [
        1000 + event_id for _, event_id in order]


def test_only_live_deadlines_reach_on_deadline_and_every_one_is_traced():
    trace = []
    eng = make_engine(trace=trace)
    fired = []
    eng.on_timer = lambda owner, tag, data: fired.append((owner, tag, data))

    def first_hook(guard):
        # the hook is read again at each live deadline of a run
        fired.append(("first", guard.owner))
        eng.on_deadline = lambda guard: fired.append(("second", guard.owner))

    eng.on_deadline = first_hook
    # the run's deadlines have generations 7, 8 and 9; 3's guard moved on
    run = [Guard(2, "mon/4", 7), Guard(3, "mon/4", 12), Guard(5, "mon/4", 9)]
    eng.schedule_timer(10, 1, "a")
    eng.schedule(10, [run, 7], 3)
    eng.schedule(10, (Guard(6, "mon/4", 3), 2))
    eng.schedule(10, (Guard(7, "mon/4", 4), 4))
    eng.schedule_timer(10, 1, "b")
    eng.run_until(10)
    assert fired == [(1, "a", 0), ("first", 2), ("second", 5),
                     ("second", 7), (1, "b", 0)]
    # a run's lines fall under consecutive sequence numbers, and a stale
    # deadline writes its line as a live one does
    assert trace == ["10\t0\ttimer/a\t1\t-\t0",
                     "10\t1\ttimer/mon/4\t2\t-\t0",
                     "10\t2\ttimer/mon/4\t3\t-\t0",
                     "10\t3\ttimer/mon/4\t5\t-\t0",
                     "10\t4\ttimer/mon/4\t6\t-\t0",
                     "10\t5\ttimer/mon/4\t7\t-\t0",
                     "10\t6\ttimer/b\t1\t-\t0"]
    assert eng.stats.scheduled == eng.stats.dispatched == 7


def test_a_run_whose_hook_raises_is_dispatched_as_a_unit():
    trace = []
    eng = make_engine(trace=trace)
    fired = []
    eng.on_timer = lambda owner, tag, data: fired.append(tag)

    def on_deadline(guard):
        fired.append(guard.owner)
        # scheduled before the raise, so it must survive it
        eng.schedule_timer(eng.now, 1, "late")
        raise RuntimeError("deadline hook failed")

    eng.on_deadline = on_deadline
    eng.schedule_timer(10, 1, "before")
    eng.schedule(10, [[Guard(o, "run", o - 2) for o in (2, 3, 4)], 0], 3)
    eng.schedule_timer(10, 1, "after")
    with pytest.raises(RuntimeError):
        eng.run_until(30)
    # every deadline of the run is traced and dispatched, none stays
    # queued, and the hook was not called past the one that raised
    assert fired == ["before", 2]
    assert eng.stats.dispatched == 4
    assert eng.pending() == 2
    eng.run_until(30)
    assert fired == ["before", 2, "after", "late"]
    assert [line.split("\t")[1:4] for line in trace] == [
        ["0", "timer/before", "1"], ["1", "timer/run", "2"],
        ["2", "timer/run", "3"], ["3", "timer/run", "4"],
        ["4", "timer/after", "1"], ["5", "timer/late", "1"]]
    assert eng.pending() == 0 and eng.now == 30


@pytest.mark.parametrize("k", [1, 3, 5])
def test_handler_raising_mid_bucket_leaves_the_rest_queued_once(k):
    eng = make_engine()
    fired = []

    def on_timer(owner, tag, data):
        fired.append((eng.now, tag))
        if tag == f"e{k}" and fired.count((eng.now, tag)) == 1:
            # scheduled before the raise, so it must survive it
            eng.schedule_timer(eng.now, 1, "late")
            raise RuntimeError("handler failed")

    eng.on_timer = on_timer
    for i in range(1, 6):
        eng.schedule_timer(10, 1, f"e{i}")
    eng.schedule_timer(20, 1, "next")
    with pytest.raises(RuntimeError):
        eng.run_until(30)
    assert fired == [(10, f"e{i}") for i in range(1, k + 1)]
    assert eng.pending() == 7 - k
    eng.run_until(30)
    assert fired == ([(10, f"e{i}") for i in range(1, 6)]
                     + [(10, "late"), (20, "next")])
    assert eng.stats.dispatched == eng.stats.scheduled == 7
    assert eng.pending() == 0 and eng.now == 30


def test_hooks_replaced_after_build_see_every_live_timer_and_deadline(
        monkeypatch):
    cfg = load_scenario("admin-failover")
    due = 0  # deadlines queued at or before the run's end
    schedule = Engine.schedule

    def counting_schedule(self, at, body, count=1):
        nonlocal due
        if at <= cfg.duration_ms and (
                type(body) is list or type(body) is tuple and len(body) == 2):
            due += count
        return schedule(self, at, body, count)

    monkeypatch.setattr(Engine, "schedule", counting_schedule)
    engine, _, _, trace = build_simulation(cfg, with_trace=True)
    fired = []
    deadlines = 0
    on_timer, on_deadline = engine.on_timer, engine.on_deadline

    def recording(owner, tag, data):
        fired.append(f"timer/{tag}\t{owner}")
        on_timer(owner, tag, data)

    def recording_deadline(ms):
        nonlocal deadlines
        deadlines += 1
        fired.append(f"timer/mon/{ms.watched}\t{ms.watcher}")
        on_deadline(ms)

    engine.on_timer = recording
    engine.on_deadline = recording_deadline
    engine.run_until(cfg.duration_ms)
    timers = ["\t".join(line.split("\t")[2:4]) for line in trace
              if line.split("\t")[2].startswith("timer/")]
    mon = [line for line in timers if line.startswith("timer/mon/")]
    # the hooks saw the traced timers in order, leaving out only
    # superseded deadlines
    assert [line for line in timers if not line.startswith("timer/mon/")] \
        == [line for line in fired if not line.startswith("timer/mon/")]
    traced = iter(timers)
    assert all(line in traced for line in fired)
    # every deadline due, superseded or not, wrote its line
    assert len(mon) == due > deadlines > 0
    assert len(trace) == engine.stats.dispatched
    families = {line.split("\t")[0].split("/")[1] for line in fired}
    assert {"bootstrap", "mon", "probe", "rtt", "confirm"} <= families
