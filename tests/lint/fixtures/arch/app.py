"""Arch fixture, *app* layer: wires the stack and sets per-node scale."""

import eng
import net
from proto_clean import NodeAgent
from proto_slotless import Beacon
from proto_strkeys import Tally

DEFAULT_POPULATION = 8


def build(population=DEFAULT_POPULATION):
    sim = eng.Simulator()
    network = net.Network()
    agents = [NodeAgent(sim, network, i) for i in range(population)]
    beacons = [Beacon(i) for i in range(population)]
    tallies = [Tally(i) for i in range(population)]
    return sim, network, agents, beacons, tallies
