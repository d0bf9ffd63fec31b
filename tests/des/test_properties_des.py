"""Property-based tests for the DES kernel itself."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Resource, Store


class TestClockMonotonicity:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_observed_times_never_decrease(self, delays):
        env = Environment()
        observed = []

        def proc(env, delay):
            yield env.timeout(delay)
            observed.append(env.now)

        for d in delays:
            env.process(proc(env, d))
        env.run()
        assert observed == sorted(observed)
        assert env.now == max(delays)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=15,
        )
    )
    def test_sequential_process_accumulates(self, delays):
        env = Environment()

        def proc(env):
            for d in delays:
                yield env.timeout(d)

        env.process(proc(env))
        env.run()
        assert env.now == sum(delays) or abs(env.now - sum(delays)) < 1e-9


class TestResourceInvariants:
    @given(
        capacity=st.integers(min_value=1, max_value=4),
        holds=st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=1,
            max_size=20,
        ),
    )
    def test_capacity_never_exceeded(self, capacity, holds):
        env = Environment()
        res = Resource(env, capacity=capacity)
        # Holders are counted here, from grant to release.
        holders = [0]
        peak = [0]
        served = [0]

        def user(env, hold):
            req = res.request()
            yield req
            holders[0] += 1
            served[0] += 1
            peak[0] = max(peak[0], holders[0])
            yield env.timeout(hold)
            holders[0] -= 1
            res.release(req)

        for h in holds:
            env.process(user(env, h))
        env.run()
        assert peak[0] <= capacity
        assert holders[0] == 0
        # Nobody is left waiting: every claim was granted.
        assert served[0] == len(holds)

    @given(
        holds=st.lists(
            st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
            min_size=2,
            max_size=10,
        )
    )
    def test_mutex_grants_are_fifo(self, holds):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def user(env, tag, hold):
            req = res.request()
            yield req
            order.append(tag)
            yield env.timeout(hold)
            res.release(req)

        for tag, h in enumerate(holds):
            env.process(user(env, tag, h))
        env.run()
        assert order == list(range(len(holds)))


class TestStoreInvariants:
    @given(
        items=st.lists(st.integers(), min_size=0, max_size=30),
        consumer_count=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40)
    def test_everything_put_is_got_exactly_once(self, items, consumer_count):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for item in items:
                yield env.timeout(0.5)
                store.put(item)

        def consumer(env, budget):
            for _ in range(budget):
                item = yield store.get()
                got.append(item)

        budgets = [len(items) // consumer_count] * consumer_count
        budgets[0] += len(items) - sum(budgets)
        env.process(producer(env))
        for b in budgets:
            env.process(consumer(env, b))
        env.run()
        assert sorted(got) == sorted(items)

    @given(items=st.lists(st.integers(), min_size=1, max_size=20))
    def test_single_consumer_preserves_order(self, items):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env):
            for item in items:
                yield env.timeout(1)
                store.put(item)

        def consumer(env):
            for _ in items:
                got.append((yield store.get()))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert got == items
