"""A timer run behaves as its timers would, queued one by one.

``Network._deliver_each`` queues the monitor deadlines one broadcast
re-arms as one timer run. Splitting every run back into its timers at
``Engine.schedule`` queues each deadline on its own, dispatched through
``on_timer``. Both paths must give the same report, trace and sends, byte
for byte, on the distinct bundled runs and on every single lost send of a
small network: a lost status broadcast leaves the deadlines of the next
run live, the one path where ``Network._on_timers`` hands members on.
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


def split_runs(monkeypatch):
    """Queue each timer of every run on its own from the next network
    built on. Returns a counter of the runs split and of their deadlines
    still live when their turn comes, each of which the run would have
    handed on to ``Network._on_monitor_deadline``."""
    schedule = Engine.schedule
    deadline = protocol._NODE_TIMERS["mon"]
    split_gens = weakref.WeakKeyDictionary()  # engine -> generations
    split = {"runs": 0, "live": 0}

    def one_by_one(self, at, body, count=1):
        if count == 1:
            return schedule(self, at, body)
        split["runs"] += 1
        tag, owners, first = body
        split_gens.setdefault(self, set()).update(
            range(first, first + len(owners)))
        for data, owner in enumerate(owners, first):
            schedule(self, at, (owner, tag, data))

    def counting(self, watcher, watched, gen):
        # the check _on_timers makes before it hands a member on
        ms = self.monitors[watcher].get(watched)
        split["live"] += (ms is not None and ms.gen == gen
                          and gen in split_gens.get(self.engine, ()))
        deadline(self, watcher, watched, gen)

    monkeypatch.setattr(Engine, "schedule", one_by_one)
    # a Network routes its per-node timer tags from this table when built
    monkeypatch.setitem(protocol._NODE_TIMERS, "mon", counting)
    return split


@pytest.mark.parametrize("name,profile", DISTINCT_RUNS)
def test_bundled_runs_are_unchanged_by_splitting_runs(name, profile,
                                                      monkeypatch):
    together = straight_bundled_digests(name, profile)
    split = split_runs(monkeypatch)
    assert bundled_digests(name, profile) == together
    assert split["runs"]


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_every_single_loss_is_unchanged_by_splitting_runs(profile,
                                                          monkeypatch):
    together = straight_single_loss_digests(profile)
    split = split_runs(monkeypatch)
    assert single_loss_digests(profile) == together
    assert split["runs"] and split["live"]
