"""Bus guard rails: self-block detection, monotonic lag, filtered fan-out.

Three regressions pinned here:

* a ``policy="block"`` subscription with no ``block_timeout`` used to be
  able to deadlock a single-threaded caller that both publishes and
  drains — now it raises a typed
  :class:`~repro.service.bus.SubscriptionSelfBlockError` naming the
  subscription instead of hanging the ingestion path;
* result-lag accounting must come from a **monotonic** clock: a
  wall-clock jump (NTP step, DST, a VM resume) while a chunk is in
  flight must never produce negative or absurd ``lag_seconds``;
* a ``query_ids``-filtered subscription must keep the conservation law
  ``offered == delivered + dropped + depth`` over the *filtered* updates
  alone — bypassed updates are not offered;
* every enqueue must wake a consumer blocked in ``get`` — the
  ``drop_oldest`` branch once returned before its ``notify_all``, so a
  waiting consumer only woke when its own timeout expired — and the time
  delivered updates wait in the queue is counted.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.query import SurgeQuery
from repro.service import (
    QuerySpec,
    SubscriptionSelfBlockError,
    SurgeService,
)
from repro.service.bus import QueryUpdate, ResultBus, Subscription
from repro.streams.objects import SpatialObject


def make_update(query_id: str, chunk_index: int = 0) -> QueryUpdate:
    return QueryUpdate(
        query_id=query_id,
        chunk_index=chunk_index,
        result=None,
        objects_routed=1,
        busy_seconds=0.0,
    )


def make_stream(count: int) -> list[SpatialObject]:
    return [
        SpatialObject(
            x=1.0, y=1.0, timestamp=float(index), weight=1.0, object_id=index
        )
        for index in range(count)
    ]


def make_spec(query_id: str = "q") -> QuerySpec:
    return QuerySpec(
        query_id=query_id,
        query=SurgeQuery(1.5, 1.5, window_length=8.0, alpha=0.5),
        algorithm="ccs",
        backend="python",
    )


class TestSelfBlockDetection:
    def test_single_threaded_publisher_consumer_raises_typed(self):
        bus = ResultBus()
        subscription = bus.open_subscription(
            maxsize=2, policy="block", name="dashboard"
        )
        # Establish this thread as the subscription's only consumer, then
        # fill the queue: the next publish would wait forever for the very
        # thread that is publishing.
        bus.publish([make_update("q", 0)])
        assert subscription.get(timeout=1) is not None
        bus.publish([make_update("q", 1), make_update("q", 2)])
        with pytest.raises(SubscriptionSelfBlockError) as excinfo:
            bus.publish([make_update("q", 3)])
        assert excinfo.value.subscription_name == "dashboard"
        assert "dashboard" in str(excinfo.value)

    def test_anonymous_subscription_named_in_error(self):
        subscription = Subscription(maxsize=1, policy="block")
        subscription.drain()  # this thread becomes the only consumer
        assert subscription._offer(make_update("q", 0)) == []
        with pytest.raises(SubscriptionSelfBlockError) as excinfo:
            subscription._offer(make_update("q", 1))
        assert excinfo.value.subscription_name == "<anonymous>"

    def test_no_false_positive_with_a_real_consumer_thread(self):
        subscription = Subscription(maxsize=1, policy="block", name="live")
        consumed: list[QueryUpdate] = []
        stop = threading.Event()

        def consume():
            while not stop.is_set():
                update = subscription.get(timeout=0.05)
                if update is not None:
                    consumed.append(update)

        thread = threading.Thread(target=consume)
        thread.start()
        try:
            # Another thread is draining: the publisher may block briefly
            # but must never raise, even with the queue momentarily full.
            for index in range(20):
                assert subscription._offer(make_update("q", index)) == []
        finally:
            stop.set()
            thread.join()
        assert len(consumed) + subscription.depth == 20

    def test_block_timeout_still_overloads_not_self_blocks(self):
        from repro.service.overload import OverloadError

        subscription = Subscription(
            maxsize=1, policy="block", block_timeout=0.05, name="timed"
        )
        subscription.drain()
        assert subscription._offer(make_update("q", 0)) == []
        # A bounded wait cannot deadlock; it times out into the existing
        # typed OverloadError instead.
        with pytest.raises(OverloadError):
            subscription._offer(make_update("q", 1))

    def test_untouched_subscription_does_not_trip(self):
        # Nobody has ever consumed: a pump thread may be about to start,
        # so the publisher must wait (bounded here by closing from aside).
        subscription = Subscription(maxsize=1, policy="block", name="fresh")
        assert subscription._offer(make_update("q", 0)) == []
        closer = threading.Timer(0.1, subscription.close)
        closer.start()
        try:
            assert subscription._offer(make_update("q", 1)) == []
        finally:
            closer.cancel()


class TestMonotonicLag:
    def test_wall_clock_jump_does_not_corrupt_lag(self, monkeypatch):
        # Simulate an NTP step: time.time() jumps backwards an hour on
        # every call.  Lag accounting must be sourced from a monotonic
        # clock, so per-query lag stays small and non-negative.
        real_time = time.time()
        calls = {"n": 0}

        def jumpy_time() -> float:
            calls["n"] += 1
            return real_time + (-3600.0 if calls["n"] % 2 else 3600.0)

        monkeypatch.setattr(time, "time", jumpy_time)
        with SurgeService([make_spec()]) as service:
            subscription = service.bus.open_subscription(
                maxsize=64, policy="drop_oldest"
            )
            for _ in service.run(make_stream(24), chunk_size=4):
                pass
            stats = service.stats().per_query["q"]
            assert 0.0 <= stats.last_lag_seconds < 60.0
            assert 0.0 <= stats.max_lag_seconds < 60.0
            for update in subscription.drain():
                assert 0.0 <= update.lag_seconds < 60.0

    def test_lag_is_positive_and_ordered(self):
        with SurgeService([make_spec()]) as service:
            for _ in service.run(make_stream(8), chunk_size=4):
                pass
            stats = service.stats().per_query["q"]
            assert stats.max_lag_seconds >= stats.last_lag_seconds >= 0.0


class TestQueryFilter:
    def test_filtered_updates_are_not_offered(self):
        bus = ResultBus()
        watched = bus.open_subscription(
            maxsize=8, policy="drop_oldest", query_ids=["a"]
        )
        everything = bus.open_subscription(maxsize=8, policy="drop_oldest")
        for index in range(3):
            bus.publish([make_update("a", index), make_update("b", index)])
        assert watched.offered == 3
        assert everything.offered == 6
        assert [update.query_id for update in watched.drain()] == ["a"] * 3

    def test_conservation_holds_over_filtered_updates(self):
        bus = ResultBus()
        subscription = bus.open_subscription(
            maxsize=2, policy="drop_oldest", query_ids=["a"]
        )
        for index in range(6):
            bus.publish([make_update("a", index), make_update("b", index)])
        counters = subscription.counters()
        assert counters["offered"] == 6
        assert (
            counters["offered"]
            == counters["delivered"] + counters["dropped"] + counters["depth"]
        )
        subscription.drain()
        counters = subscription.counters()
        assert (
            counters["offered"]
            == counters["delivered"] + counters["dropped"] + counters["depth"]
        )

    def test_service_level_filter(self):
        specs = [make_spec("a"), make_spec("b")]
        with SurgeService(specs) as service:
            subscription = service.bus.open_subscription(
                maxsize=64, policy="drop_oldest", query_ids=["b"]
            )
            for _ in service.run(make_stream(12), chunk_size=4):
                pass
            updates = subscription.drain()
            assert updates
            assert {update.query_id for update in updates} == {"b"}


def wait_until_consuming(subscription: Subscription) -> None:
    """Return once a consumer thread has entered ``get``.

    The consumer registers under the subscription's lock and only releases
    it by waiting, so a publish that takes the lock afterwards finds the
    consumer parked in ``wait``.
    """
    deadline = time.monotonic() + 10
    while not subscription._consumer_idents:
        assert time.monotonic() < deadline, "consumer never entered get()"
        time.sleep(0.001)


class TestWakeOnPublish:
    """A consumer blocked in ``get(timeout=30)`` returns on the publish.

    The 30 s timeout makes a lost wake-up unmistakable: without a notify
    on the enqueue path the consumer sleeps out its full timeout.  The
    zero-capacity ``evict`` case covers the eviction close: the publish
    overflows, closes the subscription, and ``get`` returns ``None``.
    """

    WAKE_LIMIT_S = 2.0

    @pytest.mark.parametrize(
        "policy, maxsize",
        [("block", 4), ("drop_oldest", 4), ("evict", 4), ("evict", 0)],
    )
    def test_blocked_get_wakes_on_publish(self, policy, maxsize):
        bus = ResultBus()
        subscription = bus.open_subscription(maxsize=maxsize, policy=policy)
        outcome: dict = {}

        def consume():
            outcome["update"] = subscription.get(timeout=30)
            outcome["returned_at"] = time.monotonic()

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        wait_until_consuming(subscription)
        published_at = time.monotonic()
        publisher = threading.Thread(
            target=bus.publish, args=([make_update("q", 7)],)
        )
        publisher.start()
        publisher.join()
        consumer.join(timeout=self.WAKE_LIMIT_S)
        assert not consumer.is_alive(), (
            f"policy={policy}: get() did not return within "
            f"{self.WAKE_LIMIT_S}s of the publish"
        )
        assert outcome["returned_at"] - published_at < self.WAKE_LIMIT_S
        if maxsize:
            assert outcome["update"].chunk_index == 7
        else:
            assert outcome["update"] is None
            assert subscription.evicted and bus.evicted_subscribers == 1


class TestWaitAccounting:
    def test_get_and_drain_count_queue_wait(self):
        subscription = Subscription(maxsize=8, policy="drop_oldest")
        assert subscription.counters()["wait_seconds_total"] == 0.0
        for index in range(3):
            subscription._offer(make_update("q", index))
        time.sleep(0.05)
        assert subscription.get(timeout=1).chunk_index == 0
        after_get = subscription.wait_seconds_total
        assert after_get >= 0.05
        assert [update.chunk_index for update in subscription.drain()] == [1, 2]
        counters = subscription.counters()
        assert counters["wait_seconds_total"] >= after_get + 2 * 0.05
        assert 0.05 <= counters["max_wait_seconds"] <= counters["wait_seconds_total"]

    def test_dropped_updates_do_not_count_as_waited(self):
        subscription = Subscription(maxsize=1, policy="drop_oldest")
        subscription._offer(make_update("q", 0))
        subscription._offer(make_update("q", 1))  # drops chunk 0
        assert subscription.wait_seconds_total == 0.0
        assert [update.chunk_index for update in subscription.drain()] == [1]
        assert subscription.dropped == 1

    def test_drain_limit_takes_oldest_first(self):
        subscription = Subscription(maxsize=8, policy="drop_oldest")
        for index in range(5):
            subscription._offer(make_update("q", index))
        assert [u.chunk_index for u in subscription.drain(2)] == [0, 1]
        assert [u.chunk_index for u in subscription.drain(0)] == []
        assert [u.chunk_index for u in subscription.drain()] == [2, 3, 4]
        counters = subscription.counters()
        assert counters["delivered"] == 5 and counters["depth"] == 0
