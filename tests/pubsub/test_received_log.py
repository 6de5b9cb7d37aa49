"""ReceivedLog: differential equivalence with the ``set`` it replaces.

Dispatchers keep a plain ``set`` of received ids at paper scale and a
``ReceivedLog`` bitmap over a shared ``EventIdRegistry`` at N >= 1000.
Only the end-to-end classic-vs-compact signature test reached the
bitmap side before; these tests drive a log and a reference ``set`` with
the same operation stream and compare every observable: membership
(including values that are not ``EventId``\\ s), ``len``, ``bool`` and
iteration, which follows the registry's first-interned order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.pubsub.event import EventId, EventIdRegistry, ReceivedLog

_ids = st.builds(
    EventId,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=12),
)
#: Values a caller might probe with that are not event ids; none of them
#: may ever test as a member, whatever the log holds.
_foreign = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=20),
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=1, max_value=12),
    ),
    st.text(max_size=3),
)
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 1), _ids),
        st.tuples(st.just("discard"), st.integers(0, 1), _ids),
        st.tuples(st.just("contains"), st.integers(0, 1), _ids),
        st.tuples(st.just("foreign"), st.integers(0, 1), _foreign),
    ),
    max_size=80,
)


def _assert_same(log: ReceivedLog, reference: set, interned: list) -> None:
    assert len(log) == len(reference)
    assert bool(log) == bool(reference)
    assert set(log) == reference
    # Iteration follows the shared registry's first-interned order.
    assert list(log) == [eid for eid in interned if eid in reference]


@settings(max_examples=200, deadline=None)
@given(ops=_ops)
def test_matches_a_set_under_any_operation_stream(ops):
    # Two logs share one registry, as every dispatcher of a compact run
    # does: one log's adds intern ids the other one iterates by.
    registry = EventIdRegistry()
    logs = (ReceivedLog(registry), ReceivedLog(registry))
    references: tuple = (set(), set())
    interned: list = []
    for op, which, value in ops:
        log, reference = logs[which], references[which]
        if op == "add":
            if value not in interned:
                interned.append(value)
            log.add(value)
            reference.add(value)
        elif op == "discard":
            log.discard(value)
            reference.discard(value)
        elif op == "contains":
            assert (value in log) == (value in reference)
        else:
            assert value not in log
            assert value not in reference
        _assert_same(log, reference, interned)
    for log, reference in zip(logs, references):
        _assert_same(log, reference, interned)


def test_discard_and_probe_do_not_intern():
    registry = EventIdRegistry()
    log = ReceivedLog(registry)
    log.discard(EventId(0, 1))
    assert EventId(0, 2) not in log
    assert len(registry) == 0
    assert not log


def test_readd_after_discard_keeps_first_interned_position():
    log = ReceivedLog()
    first, second = EventId(1, 1), EventId(0, 1)
    log.add(first)
    log.add(second)
    log.discard(first)
    assert list(log) == [second]
    log.add(first)
    assert list(log) == [first, second]
    assert len(log) == 2


def test_private_registry_when_none_is_shared():
    log = ReceivedLog()
    log.add(EventId(3, 9))
    assert EventId(3, 9) in log
    assert (3, 9) not in log
    other = ReceivedLog()
    other.add(EventId(0, 1))
    assert list(log) == [EventId(3, 9)]
    assert list(other) == [EventId(0, 1)]
