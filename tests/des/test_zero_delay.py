"""Environment.zero_delay: a zero-delay step runs inline or is pushed.

The unit tests pin when the step runs inline: exactly when the calendar's
head sorts after ``(now, priority)``.  The property runs random step
programs twice, once with ``zero_delay`` and once with a reference that
always pushes, and requires the same steps to fire at the same times in
the same order.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Environment, Event
from repro.des.events import NORMAL, URGENT


class AlwaysPush(Environment):
    """Reference kernel: every zero-delay step takes a calendar entry."""

    def zero_delay(self, step, priority=NORMAL):
        event = Event(self)
        if step is not None:
            event.callbacks.append(step)
        event._state = Event.SCHEDULED
        self.schedule(event, 0.0, priority)
        return event


def _at(env, delay, priority, callback) -> None:
    event = env.event()
    event.callbacks.append(callback)
    env.schedule(event, delay, priority)


def test_empty_calendar_runs_inline():
    env = Environment()
    seen = []
    assert env.zero_delay(seen.append) is None
    assert seen == [None]
    assert env._sequence == 0


def test_later_entry_does_not_block_inline():
    env = Environment()
    env.timeout(1.0)
    seen = []
    assert env.zero_delay(seen.append, URGENT) is None
    assert env.zero_delay(seen.append, NORMAL) is None
    assert seen == [None, None]
    assert env._sequence == 1


@pytest.mark.parametrize(
    "existing, priority, inline",
    [
        (NORMAL, NORMAL, False),
        (URGENT, NORMAL, False),
        (URGENT, URGENT, False),
        (NORMAL, URGENT, True),
    ],
)
def test_inline_exactly_when_nothing_sorts_before(existing, priority, inline):
    # The call runs from the first entry at t=1; a second one waits at t=1
    # with priority ``existing``.
    env = Environment()
    order = []
    outcome = []

    def call(_):
        event = env.zero_delay(lambda e: order.append(("step", e is None)), priority)
        outcome.append(event is None)
        order.append("caller done")

    _at(env, 1.0, URGENT, call)
    _at(env, 1.0, existing, lambda _: order.append("existing"))
    env.run()
    assert outcome == [inline]
    if inline:
        assert order == [("step", True), "caller done", "existing"]
    else:
        # Pushed behind the entry that sorts before (1.0, priority).
        assert order == ["caller done", "existing", ("step", False)]
    assert env.now == 1.0


def test_step_none_leaves_the_wait_to_the_process():
    env = Environment()
    seen = []

    def proc(env):
        flush = env.zero_delay(None)
        seen.append(("first", flush is None, env.now))
        env.timeout(0.0)  # an entry at now: the next flush must wait
        flush = env.zero_delay(None)
        assert isinstance(flush, Event)
        yield flush
        seen.append(("second", env.now))

    env.process(proc(env))
    env.run()
    # The process start is itself a (0, NORMAL) entry, popped before the
    # process runs, so the first flush finds the calendar empty.
    assert seen == [("first", True, 0.0), ("second", 0.0)]


# ---------------------------------------------------------------------------
# Property: inline-or-push fires what always-push fires.
#
# A program is a DAG of steps; step i only starts steps j > i.  A step, when
# it fires, records (now, i), pushes timeouts that start children, then
# makes up to two zero_delay calls.  A call is the step's last act, as the
# method's condition (b) asks -- except that a first call may be followed by
# a NORMAL one when the first call's child is *quiet*: at ``now`` it and the
# steps it starts take only URGENT entries (a call counts as an entry), which
# fire before the second call's in either kernel.  A quiet step pushes only
# positive-delay timeouts and at most one URGENT call, to a quiet step.
# ---------------------------------------------------------------------------

N_STEPS = 8
FIRING_BUDGET = 80

_priorities = st.sampled_from((URGENT, NORMAL))


@st.composite
def _programs(draw):
    steps = []
    for i in range(N_STEPS):
        later = st.integers(min_value=i + 1, max_value=N_STEPS - 1)
        if i == N_STEPS - 1:
            steps.append(((), ()))
            continue
        timeouts = draw(st.lists(
            st.tuples(st.sampled_from((0.0, 0.5, 1.0)), later), max_size=2,
        ))
        calls = draw(st.lists(st.tuples(later, _priorities), max_size=2))
        steps.append((tuple(timeouts), tuple(calls)))
    quiet = [False] * N_STEPS
    for i in reversed(range(N_STEPS)):
        timeouts, calls = steps[i]
        if len(calls) == 2 and not (quiet[calls[0][0]] and calls[1][1] == NORMAL):
            calls = calls[1:]
            steps[i] = (timeouts, calls)
        quiet[i] = all(delay > 0.0 for delay, _ in timeouts) and (
            not calls or (len(calls) == 1 and calls[0][1] == URGENT and quiet[calls[0][0]])
        )
    initial = draw(st.lists(
        st.tuples(st.sampled_from((0.0, 0.5, 1.0)), _priorities,
                  st.integers(min_value=0, max_value=N_STEPS - 1)),
        min_size=1, max_size=5,
    ))
    return steps, initial


def _run(env_class, program) -> tuple[list, int]:
    steps, initial = program
    env = env_class()
    fired = []
    inline = [0]

    def start(i):
        def step(event):
            if event is None:
                inline[0] += 1
            fired.append((env.now, i))
            if len(fired) >= FIRING_BUDGET:
                return
            timeouts, calls = steps[i]
            for delay, child in timeouts:
                env.timeout(delay).callbacks.append(start(child))
            for child, priority in calls:
                env.zero_delay(start(child), priority)
        return step

    for delay, priority, i in initial:
        _at(env, delay, priority, start(i))
    env.run()
    return fired, inline[0]


@given(program=_programs())
def test_inline_or_push_fires_like_always_push(program):
    fired, _ = _run(Environment, program)
    reference, pushed_inline = _run(AlwaysPush, program)
    assert pushed_inline == 0
    assert fired == reference


def test_property_programs_do_run_steps_inline():
    # Guard the property itself: a plain chain of calls runs inline.
    steps = [((), ((i + 1, NORMAL),)) for i in range(N_STEPS - 1)] + [((), ())]
    fired, inline = _run(Environment, (steps, [(1.0, NORMAL, 0)]))
    assert inline == N_STEPS - 1
    assert fired == _run(AlwaysPush, (steps, [(1.0, NORMAL, 0)]))[0]
