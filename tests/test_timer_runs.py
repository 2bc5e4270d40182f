"""A monitor deadline guarded by its own monitor behaves as one checked
against the monitor table.

The engine hands a deadline on only while the ``gen`` of the
``MonitorState`` that queued it still names it, and
``Network._sync_watches`` zeroes the ``gen`` of every monitor it drops. The
reference path here checks each deadline as the table says instead: every
deadline, a run's split out one by one, is queued as its own
``mon/<watched>`` timer, and when it fires it looks up
``net.monitors[watcher].get(watched)`` and compares that monitor's
generation. Both paths must give the same report, trace and sends, byte for
byte, on the distinct bundled runs and on every single lost send of a small
network: a lost status broadcast leaves the deadlines of the next run live,
the one path where a run hands members on.
"""

import weakref

import pytest

from ansim import protocol
from ansim.kernel import Engine
from ansim.runner import PROFILE_ORDER

from helpers import (
    DISTINCT_RUNS,
    bundled_digests,
    single_loss_digests,
    straight_bundled_digests,
    straight_single_loss_digests,
)


def look_up_each_deadline(monkeypatch):
    """From the next network built on, queue each deadline as a timer
    checked against the monitor table when it fires. Returns a counter of
    the runs split and of their deadlines still live when their turn
    comes, each of which the run would have handed on."""
    schedule = Engine.schedule
    build = protocol.Network.__init__
    split_gens = weakref.WeakKeyDictionary()  # engine -> generations
    counts = {"runs": 0, "live": 0}

    def as_timers(self, at, body, count=1):
        if type(body) is list:
            counts["runs"] += 1
            guards, first = body
            split_gens.setdefault(self, set()).update(
                range(first, first + len(guards)))
        elif type(body) is tuple and len(body) == 2:
            guards, first = body[:1], body[1]
        else:
            return schedule(self, at, body, count)
        for gen, ms in enumerate(guards, first):
            schedule(self, at, (ms.watcher, f"mon/{ms.watched}", gen))

    def built(net, engine, **kwargs):
        build(net, engine, **kwargs)
        routed = engine.on_timer

        def on_timer(owner, tag, data):
            if not tag.startswith("mon/"):
                return routed(owner, tag, data)
            ms = net.monitors[owner].get(int(tag[4:]))
            if ms is not None and ms.gen == data:
                counts["live"] += data in split_gens.get(net.engine, ())
                net._on_monitor_deadline(ms)

        engine.on_timer = on_timer

    monkeypatch.setattr(Engine, "schedule", as_timers)
    monkeypatch.setattr(protocol.Network, "__init__", built)
    return counts


@pytest.mark.parametrize("name,profile", DISTINCT_RUNS)
def test_bundled_runs_are_unchanged_by_looking_up_each_deadline(
        name, profile, monkeypatch):
    guarded = straight_bundled_digests(name, profile)
    counts = look_up_each_deadline(monkeypatch)
    assert bundled_digests(name, profile) == guarded
    assert counts["runs"]


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_every_single_loss_is_unchanged_by_looking_up_each_deadline(
        profile, monkeypatch):
    guarded = straight_single_loss_digests(profile)
    counts = look_up_each_deadline(monkeypatch)
    assert single_loss_digests(profile) == guarded
    assert counts["runs"] and counts["live"]
