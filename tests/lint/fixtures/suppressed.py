"""Violations silenced by inline and file-level suppressions.

The file-level directive below turns REP002 off everywhere in this file;
the line-level directives silence individual findings in place.
"""
# repro-lint: disable-file=REP002

import time


def timestamp():
    return time.time()


def deliver_all(subscribers, event):
    for node in set(subscribers):  # repro-lint: disable=REP003
        node.deliver(event)


def everything_off(nodes):
    return sorted(nodes, key=lambda n: id(n))  # repro-lint: disable
