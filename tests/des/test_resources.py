"""Tests for Resource (FIFO server) and Store (FIFO queue)."""

import pytest

from repro.des import Environment, Resource, Store


def test_resource_capacity_must_be_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_immediate_grant_when_free():
    env = Environment()
    res = Resource(env)
    granted = []
    for tag in ("a", "b"):
        res.request().callbacks.append(
            lambda req, tag=tag: granted.append((tag, env.now, req._value is req))
        )
    env.run()
    # The free server grants at once; the second claim waits for a release.
    assert granted == [("a", 0.0, True)]


def test_queueing_respects_fifo():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, tag, hold):
        req = res.request()
        yield req
        order.append(("acquire", tag, env.now))
        yield env.timeout(hold)
        res.release(req)

    for tag in ("a", "b", "c"):
        env.process(user(env, tag, 2.0))
    env.run()
    assert order == [
        ("acquire", "a", 0.0),
        ("acquire", "b", 2.0),
        ("acquire", "c", 4.0),
    ]


def test_capacity_two_allows_two_concurrent_users():
    env = Environment()
    res = Resource(env, capacity=2)
    acquired = []

    def user(env, tag):
        req = res.request()
        yield req
        acquired.append((tag, env.now))
        yield env.timeout(1)
        res.release(req)

    for tag in ("a", "b", "c"):
        env.process(user(env, tag))
    env.run()
    assert acquired == [("a", 0.0), ("b", 0.0), ("c", 1.0)]


def test_release_foreign_request_raises():
    env = Environment()
    res = Resource(env)
    other = Resource(env)
    req = other.request()
    with pytest.raises(ValueError):
        res.release(req)


def test_store_put_get_order():
    env = Environment()
    store = Store(env)
    store.put("x")
    store.put("y")
    got = []

    def consumer(env):
        got.append((yield store.get()))
        got.append((yield store.get()))

    env.process(consumer(env))
    env.run()
    assert got == ["x", "y"]


def test_store_blocking_get():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(5)
        store.put("late")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(5.0, "late")]


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        got.append((tag, (yield store.get())))

    def producer(env):
        yield env.timeout(1)
        store.put(1)
        yield env.timeout(1)
        store.put(2)

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))
    env.process(producer(env))
    env.run()
    assert got == [("first", 1), ("second", 2)]
