"""Tests for the subscription table."""

from __future__ import annotations

import pytest

from repro.pubsub.pattern import LOCAL
from repro.pubsub.subscription import SubscriptionTable


class TestDirections:
    def test_add_returns_first_flag(self):
        table = SubscriptionTable(16)
        assert table.add(5, 2) is True
        assert table.add(5, 3) is False
        assert table.add(6, 2) is True

    def test_directions_sorted(self):
        table = SubscriptionTable(16)
        table.add(5, 3)
        table.add(5, LOCAL)
        table.add(5, 1)
        assert table.directions(5) == [LOCAL, 1, 3]
        assert table.neighbor_directions(5) == [1, 3]

    def test_remove_drops_empty_pattern(self):
        table = SubscriptionTable(16)
        table.add(5, 1)
        table.remove(5, 1)
        assert not table.has_pattern(5)
        assert table.directions(5) == []
        table.remove(5, 1)  # idempotent

    def test_local_queries(self):
        table = SubscriptionTable(16)
        table.add(5, LOCAL)
        table.add(6, 2)
        assert table.is_local(5)
        assert not table.is_local(6)
        assert table.local_patterns() == [5]
        assert table.patterns() == [5, 6]

    def test_clear(self):
        table = SubscriptionTable(16)
        table.add(5, 1)
        table.mark_forwarded(5, 2)
        table.load({}, {})
        assert len(table) == 0
        assert not table.was_forwarded(5, 2)


class TestMatching:
    def test_matching_directions_is_union(self):
        table = SubscriptionTable(16)
        table.add(5, 1)
        table.add(6, 2)
        table.add(6, LOCAL)
        table.add(7, 1)
        assert table.matching_directions((5, 6)) == {1, 2, LOCAL}
        assert table.matching_directions((7,)) == {1}
        assert table.matching_directions((9,)) == set()

    def test_matches_locally(self):
        table = SubscriptionTable(16)
        table.add(5, 1)
        table.add(6, LOCAL)
        assert table.matches_locally((6, 9))
        assert not table.matches_locally((5, 9))


class TestForwardingMarks:
    def test_mark_forwarded_once(self):
        table = SubscriptionTable(16)
        assert table.mark_forwarded(5, 1) is True
        assert table.mark_forwarded(5, 1) is False
        assert table.mark_forwarded(5, 2) is True

    def test_unmark_allows_reforwarding(self):
        table = SubscriptionTable(16)
        table.mark_forwarded(5, 1)
        table.unmark_forwarded(5, 1)
        assert table.mark_forwarded(5, 1) is True

    def test_remove_pattern_keeps_marks(self):
        # Marks record what neighbors were told; removing the last
        # direction must not silently "untell" them (the unsubscription
        # protocol does that explicitly via unmark_forwarded).
        table = SubscriptionTable(16)
        table.add(5, 1)
        table.mark_forwarded(5, 2)
        table.remove(5, 1)
        assert table.was_forwarded(5, 2)

    def test_iteration_is_deterministic(self):
        table = SubscriptionTable(16)
        table.add(7, 2)
        table.add(5, 1)
        table.add(5, LOCAL)
        assert list(table) == [(5, [LOCAL, 1]), (7, [2])]


class TestDenseSparseOverflow:
    """A hub with more than 64 directions (scale-free overlays concentrate
    degree) keeps growing: its masks outgrow a machine word, and every
    query answers as it did before the 65th direction arrived."""

    def _hub_table(self, directions: int) -> SubscriptionTable:
        table = SubscriptionTable(n_patterns=8)
        for direction in range(directions):
            table.add(direction % 8, direction)
        return table

    def test_overflow_switches_layout_and_preserves_state(self):
        table = self._hub_table(directions=64)
        before = {p: table.directions(p) for p in table.patterns()}
        table.add(0, 64)  # 65th distinct live direction
        for pattern, directions in before.items():
            expected = sorted(directions + [64]) if pattern == 0 else directions
            assert table.directions(pattern) == expected

    def test_sparse_table_keeps_growing_past_64(self):
        table = self._hub_table(directions=200)
        assert table.directions(0) == list(range(0, 200, 8))
        assert len(table) == 8

    def test_forwarded_marks_survive_migration(self):
        table = self._hub_table(directions=64)
        table.mark_forwarded(3, 1)
        table.add(0, 64)
        assert table.was_forwarded(3, 1)
        assert table.mark_forwarded(3, 1) is False  # still marked

    def test_matching_identical_across_migration(self):
        dense = self._hub_table(directions=64)
        sparse = self._hub_table(directions=64)
        sparse.add(0, 64)
        sparse.remove(0, 64)
        for patterns in [(0,), (1, 2), (5, 6, 7), ()]:
            assert dense.matching_directions_sorted(
                patterns
            ) == sparse.matching_directions_sorted(patterns)


def _bits(*patterns: int) -> int:
    """Pattern bitset: bit ``p`` set for each listed pattern ``p``."""
    value = 0
    for pattern in patterns:
        value |= 1 << pattern
    return value


class TestLoad:
    """``load`` installs a whole table from direction -> pattern-bitset
    maps, as the route oracle does; it must leave the table exactly as the
    same entries added one by one would."""

    def _added(self, routes, forwarded, n_patterns=8):
        table = SubscriptionTable(n_patterns=n_patterns)
        for direction, bits in routes.items():
            for pattern in range(n_patterns):
                if bits >> pattern & 1:
                    table.add(pattern, direction)
        for direction, bits in forwarded.items():
            for pattern in range(n_patterns):
                if bits >> pattern & 1:
                    table.mark_forwarded(pattern, direction)
        return table

    def _state(self, table, directions, n_patterns=8):
        return (
            len(table),
            table.patterns(),
            table.local_patterns(),
            [table.directions(p) for p in range(n_patterns)],
            [[table.was_forwarded(p, d) for d in directions]
             for p in range(n_patterns)],
        )

    def test_matches_entry_by_entry_construction(self):
        routes = {LOCAL: _bits(1, 4), 3: _bits(0, 1, 7), 5: 0}
        forwarded = {3: _bits(1, 4), 5: _bits(0, 1, 4, 7)}
        table = SubscriptionTable(n_patterns=8)
        table.load(routes, forwarded)
        expected = self._added(routes, forwarded)
        dirs = [LOCAL, 3, 5]
        assert self._state(table, dirs) == self._state(expected, dirs)

    def test_load_empties_matching_memo(self):
        table = SubscriptionTable(n_patterns=8)
        table.load({2: _bits(0)}, {})
        assert table.matching_directions_sorted((0,)) == (2,)
        table.load({LOCAL: _bits(0), 4: _bits(0)}, {})
        assert table.matching_directions_sorted((0,)) == (LOCAL, 4)
        assert table.matches_locally((0,))

    def test_load_replaces_previous_registry(self):
        table = SubscriptionTable(n_patterns=8)
        table.load({LOCAL: _bits(0), 2: _bits(0, 1), 3: _bits(5)},
                   {2: _bits(0), 3: _bits(0, 1)})
        table.load({5: _bits(1)}, {5: _bits(6)})
        assert 2 not in table._dir_bits and 3 not in table._dir_bits
        assert table.patterns() == [1]
        assert table.local_patterns() == []
        assert table.directions(0) == [] and table.directions(5) == []
        assert not table.was_forwarded(0, 2)
        assert not table.was_forwarded(1, 3)
        assert table.was_forwarded(6, 5)
        assert table.matching_directions_sorted((0, 1, 5)) == (5,)

    def test_more_than_64_directions_go_sparse(self):
        routes = {d: _bits(d % 8) for d in range(100)}
        routes[LOCAL] = _bits(2)
        forwarded = {d: _bits((d + 1) % 8) for d in range(0, 100, 3)}
        table = SubscriptionTable(n_patterns=8)
        table.load(routes, forwarded)
        expected = self._added(routes, forwarded)
        dirs = [LOCAL] + list(range(100))
        assert self._state(table, dirs) == self._state(expected, dirs)
        for patterns in [(0,), (2, 3), (1, 5, 7), ()]:
            assert table.matching_directions_sorted(
                patterns
            ) == expected.matching_directions_sorted(patterns)

    def test_sparse_table_returns_to_dense_on_small_load(self):
        table = SubscriptionTable(n_patterns=8)
        table.load({d: _bits(0) for d in range(70)}, {})
        table.load({1: _bits(3)}, {1: _bits(4)})
        assert table.directions(3) == [1] and table.was_forwarded(4, 1)

    def test_len_counts_patterns_with_routes(self):
        table = SubscriptionTable(n_patterns=8)
        # Pattern 6 is only forwarded, never routed: it does not count.
        table.load({LOCAL: _bits(0, 1), 2: _bits(1, 3), 4: 0},
                   {2: _bits(6)})
        assert len(table) == 3
        assert table.patterns() == [0, 1, 3]
        table.load({}, {})
        assert len(table) == 0

    def test_pattern_outside_dense_universe_rejected(self):
        table = SubscriptionTable(n_patterns=8)
        with pytest.raises(ValueError):
            table.load({1: _bits(8)}, {})
        with pytest.raises(ValueError):
            table.load({}, {1: _bits(9)})
