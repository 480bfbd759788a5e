"""The simulated and the wire backend run one protocol.

Both drive the same :class:`~repro.transport.server.ServerTransport`
round rule, so on a loss-free channel they must agree on everything the
daemon's report carries: one multicast round of the same packets, no
NACK and no unicast.
"""

from repro.core.config import GroupConfig
from repro.core.server import GroupKeyServer
from repro.service.members import MemberFleet
from repro.service.transports import IN_DEADLINE, SessionDelivery
from repro.sim.topology import LossParameters
from repro.wire.delivery import WireDelivery


def test_sim_and_wire_agree_without_loss():
    config = GroupConfig(
        block_size=5,
        seed=3,
        nack_window_seconds=0.2,
        loss=LossParameters(alpha=0.0, p_high=0.0, p_low=0.0, p_source=0.0),
    )
    server = GroupKeyServer(["m%02d" % i for i in range(12)], config=config)
    sim_fleet = MemberFleet.register_all(server)
    wire_fleet = MemberFleet.register_all(server)
    leaver = sorted(server.users)[0]
    server.request_leave(leaver)
    sim_fleet.evict(leaver)
    wire_fleet.evict(leaver)
    _, message = server.rekey()

    sim = SessionDelivery(config, seed=4).deliver(message, sim_fleet)
    with WireDelivery(config, seed=4) as backend:
        wire = backend.deliver(message, wire_fleet)
        wire_packets = sum(backend.records[-1]["packets_per_round"])
    sim_fleet.check_agreement(server)
    wire_fleet.check_agreement(server)

    for report in (sim, wire):
        assert report.multicast_rounds == 1
        assert report.first_round_nacks == 0
        assert report.unicast_served == 0
        assert report.decision == IN_DEADLINE
    assert sim.detail["multicast_packets"] == wire_packets > 0
