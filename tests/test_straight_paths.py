"""A unicast delivered in one step, and a duty send put straight on the
wire, behave as they would through the general paths.

``Network._on_deliver`` runs the checks every receiver shares itself,
takes a unicast's steps itself, for its one receiver, and leaves the
receiver loop ``Network._deliver_each`` to broadcasts. The duty timers
wrap and send a status broadcast, and a sensor reading under a profile
that does not seal or once its pair's handshake is done, themselves,
without the handshake check of ``Network._post``, which could not defer
them; only a sealed reading whose pair has no finished handshake goes
through ``_post``. Routing every unicast back through the loop as a
one-receiver set, after the shared checks as a separate reference writes
them, and every duty send back through ``_post``, must give the same
report, trace and sends, byte for byte, on the distinct bundled runs and
on every single lost send of a small network.
"""

import pytest

from ansim import protocol, security
from ansim.model import (
    BROADCAST,
    CMU_ID,
    EnvelopeKind,
    LRN_ROLES,
    NodeStatus,
    Role,
    SimError,
)
from ansim.protocol import Network
from ansim.runner import PROFILE_ORDER

from helpers import (
    DISTINCT_RUNS,
    bundled_digests,
    single_loss_digests,
    straight_bundled_digests,
    straight_single_loss_digests,
)


def through_general_paths(monkeypatch):
    """Route every unicast through the receiver loop and every duty send
    through ``_post`` from the next network built on; the returned dict
    counts the unicasts and duty sends so routed."""
    routed = {"unicasts": 0, "duty sends": 0}
    on_deliver = Network._on_deliver

    # the checks every receiver shares, written apart from _on_deliver
    def readers_of(self, env):
        try:
            security.unwrap(env, self.profile, self.keys)
        except SimError:
            return frozenset()
        if env.sender != CMU_ID and env.sender not in self._granted:
            return frozenset()
        return (security.key_holders(env, self.profile, self.keys)
                if self._sealed else None)

    def through_loop(self, env):
        if env.receiver == BROADCAST:
            on_deliver(self, env)
            return
        routed["unicasts"] += 1
        rec = protocol._DELIVERY[env.kind]
        readers = None if rec.bootstrap else readers_of(self, env)
        acting = self._acting_receivers(env) if rec.pruned else None
        self._deliver_each(env, (env.receiver,), readers, acting)

    # the duty timers as they were before they bypassed _post
    def status_through_post(self, node, _arg, gen):
        st = self.nodes[node]
        if (gen != st.duty_gen or not st.authorized
                or st.role is not Role.ADMINISTRATOR
                or st.status is not NodeStatus.ACTIVE):
            return
        routed["duty sends"] += 1
        self._post(EnvelopeKind.STATUS_BROADCAST, node, BROADCAST)
        self.engine.schedule(self.engine.now + self.timers.status_period_ms,
                             (node, "status", gen))

    def sensor_through_post(self, node, _arg, gen):
        st = self.nodes[node]
        if (gen != st.duty_gen or not st.authorized
                or st.role not in LRN_ROLES
                or st.status is not NodeStatus.ACTIVE):
            return
        target = st.known_admin if st.known_admin is not None else CMU_ID
        if target != node:
            routed["duty sends"] += 1
            self._post(EnvelopeKind.SENSOR_DATA, node, target)
        self.engine.schedule(
            self.engine.now + self.timers.sensor_data_period_ms,
            (node, "sensor", gen))

    monkeypatch.setattr(Network, "_on_deliver", through_loop)
    # a Network routes its fixed timer tags from this table when built
    monkeypatch.setitem(protocol._FIXED_TIMERS, "status", status_through_post)
    monkeypatch.setitem(protocol._FIXED_TIMERS, "sensor", sensor_through_post)
    return routed


@pytest.mark.parametrize("name,profile", DISTINCT_RUNS)
def test_bundled_runs_are_unchanged_by_the_general_paths(name, profile,
                                                         monkeypatch):
    straight = straight_bundled_digests(name, profile)
    routed = through_general_paths(monkeypatch)
    assert bundled_digests(name, profile) == straight
    assert routed["unicasts"] and routed["duty sends"]


@pytest.mark.parametrize("profile", PROFILE_ORDER)
def test_every_single_loss_is_unchanged_by_the_general_paths(profile,
                                                             monkeypatch):
    straight = straight_single_loss_digests(profile)
    routed = through_general_paths(monkeypatch)
    assert single_loss_digests(profile) == straight
    assert routed["unicasts"] and routed["duty sends"]
