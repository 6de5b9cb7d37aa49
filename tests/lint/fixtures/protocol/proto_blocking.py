"""Protocol fixture, *proto* layer (bad): host clock and host I/O.

``settle`` waits on the host clock directly; ``converge`` reaches the
same wait through a call chain, and ``load_peers`` reads a host file.
Neither the wait nor the file is fixed by the master seed, so the call
chain and the file read are REP002's call-chain part.
"""

import time


def settle():
    time.sleep(0.01)  # the wait itself is no finding


def converge(rounds):  # REP002: inherits the wall-clock wait
    for _ in range(rounds):
        settle()


def load_peers(path):
    with open(path) as handle:  # REP002: host I/O in protocol code
        return handle.read().split()
