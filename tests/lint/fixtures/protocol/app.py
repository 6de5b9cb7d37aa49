"""Protocol fixture, *app* layer (clean): wires the stack per node.

Every per-node object is a fresh per-iteration construction; the engine
and the transport are the only objects every node shares.
"""

import eng
import net
from proto_chain import Flooder
from proto_identity import Chooser
from proto_own_clean import Agent

DEFAULT_POPULATION = 8


def build(population=DEFAULT_POPULATION):
    sim = eng.Simulator()
    network = net.Network()
    agents = [Agent(sim, network, i) for i in range(population)]
    choosers = [Chooser(sim, i) for i in range(population)]
    flooders = [Flooder(network, i) for i in range(population)]
    return sim, network, agents, choosers, flooders
