"""Event kernel: ordering, links, loss, faults, trace."""

import pytest

from ansim.kernel import (
    Engine,
    FaultKind,
    FaultSpec,
    LinkModel,
    LinkSpec,
    SchedulingInPast,
    TimerFire,
    UnknownReceiver,
)
from ansim.model import BROADCAST, CMU_ID, Envelope, EnvelopeKind, SimError
from ansim.runner import build_simulation, run_scenario
from ansim.scenario import load_scenario


def make_engine(seed=1, latency=10, jitter=0, loss=0.0, nodes=(1, 2, 3),
                recorder=None, trace=None):
    links = LinkModel(default=LinkSpec(latency_ms=latency, jitter_ms=jitter,
                                       loss_probability=loss))
    return Engine(seed=seed, links=links, node_ids=[CMU_ID, *nodes],
                  recorder=recorder, trace=trace)


def data_env(sender=1, receiver=2, at=0, kind=EnvelopeKind.SENSOR_DATA,
             length=20):
    payload = b"d" * length
    return Envelope(kind=kind, sender=sender, receiver=receiver,
                    payload=payload, sent_at=at, wire_len=length)


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
    links = LinkModel(default=LinkSpec(latency_ms=10),
                      overrides={(1, 2): LinkSpec(latency_ms=40)})
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
    eng.inject(FaultSpec(target=1, kind=FaultKind.CRASH, at=5))
    eng.run_until(5)
    assert eng.is_crashed(1)
    assert eng.send(data_env(sender=1, at=5)) is False
    assert rec.calls == []
    # a crashed node still receives at the link level; gating is protocol work
    assert eng.send(data_env(sender=2, receiver=1, at=5)) is True


def test_drop_next_n_swallows_exactly_n_data_packets():
    rec = SpyRecorder()
    eng = make_engine(recorder=rec)
    eng.inject(FaultSpec(target=1, kind=FaultKind.DROP_NEXT_N, at=0, n=3))
    eng.run_until(0)
    outcomes = []
    for _ in range(4):
        outcomes.append(eng.send(data_env(sender=1)))
    # the fourth data packet goes through, but the defect itself persists
    assert outcomes == [False, False, False, True]
    assert [d for _, _, d in rec.calls] == [False, False, False, True]
    assert not eng.is_responsive(1)
    eng.inject(FaultSpec(target=1, kind=FaultKind.RESTORE, at=0))
    eng.run_until(0)
    assert eng.is_responsive(1)


def test_drop_fault_spares_non_data_kinds():
    eng = make_engine()
    eng.inject(FaultSpec(target=1, kind=FaultKind.DROP_NEXT_N, at=0, n=2))
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
        FaultSpec(target=1, kind=FaultKind.DROP_NEXT_N, at=0, n=0)


def test_forced_loss_hook():
    eng = make_engine()
    seen = []
    eng.on_deliver = lambda env: seen.append(env.receiver)
    eng.force_lose_next(1, 2, count=1)
    eng.send(data_env(sender=1, receiver=2))
    eng.send(data_env(sender=1, receiver=2))
    eng.run_until(50)
    assert seen == [2]


def test_trace_line_format():
    trace = []
    eng = make_engine(trace=trace)
    eng.schedule_timer(5, 1, "tick", 7)
    eng.send(data_env(sender=1, receiver=BROADCAST, length=12))
    eng.inject(FaultSpec(target=2, kind=FaultKind.CRASH, at=8))
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


# ------------------------------------------------- callers that swap hooks

def test_every_schedule_goes_through_the_class_attribute(monkeypatch):
    # instrumentation swaps Engine.schedule; inlined scheduling would
    # bypass it
    calls = 0
    schedule = Engine.schedule

    def counting_schedule(self, at, body):
        nonlocal calls
        calls += 1
        return schedule(self, at, body)

    monkeypatch.setattr(Engine, "schedule", counting_schedule)
    result = run_scenario(load_scenario("fire-sensor-dropout"),
                          profile="auth-encap")
    assert result.engine.stats.scheduled == calls > 0
    assert result.engine.stats.dispatched <= calls


def test_unknown_event_body_raises():
    eng = make_engine()
    eng.schedule(5, object())
    with pytest.raises(SimError):
        eng.run_until(10)


def test_on_timer_replaced_after_build_receives_every_timer():
    cfg = load_scenario("admin-failover")
    engine, _, _, trace = build_simulation(cfg, with_trace=True)
    fired = []
    on_timer = engine.on_timer

    def recording(owner, tag, data):
        fired.append(f"timer/{tag}\t{owner}")
        on_timer(owner, tag, data)

    engine.on_timer = recording
    engine.run_until(cfg.duration_ms)
    timers = ["\t".join(line.split("\t")[2:4]) for line in trace
              if line.split("\t")[2].startswith("timer/")]
    assert fired == timers
    families = {line.split("\t")[0].split("/")[1] for line in fired}
    assert {"bootstrap", "mon", "probe", "rtt", "confirm"} <= families
