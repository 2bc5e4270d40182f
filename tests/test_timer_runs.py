"""A timer run behaves as its timers would, queued one by one.

``Network._deliver_each`` queues the monitor deadlines one broadcast
re-arms as one timer run. Splitting every run back into its timers at
``Engine.schedule`` queues each deadline on its own, dispatched through
``on_timer``. Both paths must give the same report and trace, byte for
byte, on the bundled runs, and the same report, trace and sends on every
single lost send of a small network: a lost status broadcast leaves the deadlines of the next run
live, the one path where ``Network._on_timers`` hands members on.
"""

import pytest

from ansim.kernel import Engine
from ansim.protocol import Network
from ansim.runner import PROFILE_ORDER
from ansim.scenario import builtin_scenario_names, load_scenario

from helpers import five_nodes, load_script, single_loss_digests

regen = load_script("regen_golden")


def split_runs(monkeypatch):
    """Queue each timer of every run on its own from now on; the returned
    list counts the runs split."""
    schedule = Engine.schedule
    split = []

    def one_by_one(self, at, body, count=1):
        if count == 1:
            return schedule(self, at, body)
        split.append(count)
        tag, owners, first = body
        for data, owner in enumerate(owners, first):
            schedule(self, at, (owner, tag, data))

    monkeypatch.setattr(Engine, "schedule", one_by_one)
    return split


@pytest.mark.parametrize("name,profile", [
    (name, profile) for name in builtin_scenario_names()
    for profile in PROFILE_ORDER])
def test_bundled_runs_are_unchanged_by_splitting_runs(name, profile,
                                                      monkeypatch):
    cfg = load_scenario(name)
    together = regen.run_digest(cfg, profile)
    split = split_runs(monkeypatch)
    assert regen.run_digest(cfg, profile) == together
    assert split


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_every_single_loss_is_unchanged_by_splitting_runs(profile,
                                                          monkeypatch):
    cfg = five_nodes(profile)
    # _on_timers calls the method through the class; a single timer goes
    # through _NODE_TIMERS, which holds the original function
    handed_on = 0
    deadline = Network._on_monitor_deadline

    def counting(self, watcher, watched, gen):
        nonlocal handed_on
        handed_on += 1
        deadline(self, watcher, watched, gen)

    monkeypatch.setattr(Network, "_on_monitor_deadline", counting)
    together = single_loss_digests(cfg, profile)
    assert handed_on > 0
    split = split_runs(monkeypatch)
    assert single_loss_digests(cfg, profile) == together
    assert split
