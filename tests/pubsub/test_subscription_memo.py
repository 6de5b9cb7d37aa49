"""The matching memo must never serve stale routing decisions.

:class:`SubscriptionTable` memoizes ``matching_directions_sorted`` on the
event's pattern tuple.  Every mutation path must drop the memo, or a
dispatcher would keep routing events along subscriptions that no longer
exist (or miss new ones) -- silently, since nothing would crash.
"""

from __future__ import annotations

from repro.pubsub.pattern import LOCAL
from repro.pubsub.subscription import SubscriptionTable


def _warm(table: SubscriptionTable, patterns=(1, 2)):
    """Query once so the memo holds an entry for ``patterns``."""
    return table.matching_directions_sorted(patterns)


class TestMemoInvalidation:
    def test_add_invalidates(self):
        table = SubscriptionTable(16)
        table.add(1, 3)
        assert _warm(table) == (3,)
        table.add(2, 5)
        assert _warm(table) == (3, 5)

    def test_remove_invalidates(self):
        table = SubscriptionTable(16)
        table.add(1, 3)
        table.add(2, 5)
        assert _warm(table) == (3, 5)
        table.remove(2, 5)
        assert _warm(table) == (3,)

    def test_clear_invalidates(self):
        table = SubscriptionTable(16)
        table.add(1, 3)
        assert _warm(table) == (3,)
        table.load({}, {})
        assert _warm(table) == ()

    def test_matches_locally_tracks_mutations(self):
        table = SubscriptionTable(16)
        table.add(1, 4)
        assert table.matches_locally((1, 2)) is False
        table.add(2, LOCAL)
        assert table.matches_locally((1, 2)) is True
        table.remove(2, LOCAL)
        assert table.matches_locally((1, 2)) is False


class TestMemoSemantics:
    def test_local_sorts_first(self):
        table = SubscriptionTable(16)
        table.add(1, 7)
        table.add(1, LOCAL)
        table.add(1, 0)
        assert table.matching_directions_sorted((1,)) == (LOCAL, 0, 7)

    def test_list_and_tuple_contents_share_results(self):
        table = SubscriptionTable(16)
        table.add(1, 3)
        assert table.matching_directions_sorted([1, 2]) == (3,)
        assert table.matching_directions_sorted((1, 2)) == (3,)

    def test_memoized_result_matches_uncached(self):
        table = SubscriptionTable(16)
        for pattern in range(10):
            table.add(pattern, pattern % 3)
        contents = (0, 4, 9)
        first = table.matching_directions_sorted(contents)
        second = table.matching_directions_sorted(contents)  # memo hit
        assert first == second == tuple(sorted(table.matching_directions(contents)))

    def test_cache_limit_is_a_reset_not_an_error(self):
        from repro.pubsub import subscription

        table = SubscriptionTable(16)
        table.add(1, 3)
        original = subscription._MATCH_CACHE_LIMIT
        subscription._MATCH_CACHE_LIMIT = 4
        try:
            for seq in range(20):
                assert table.matching_directions_sorted((1, 100 + seq)) == (3,)
            assert len(table._match_cache) <= 4
        finally:
            subscription._MATCH_CACHE_LIMIT = original
