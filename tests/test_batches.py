"""``draw_batches`` against its oracle, ``Generator.choice``: the same index
arrays, bit for bit, and the same generator state afterwards.

The sampler reimplements numpy's ``choice(n, size=b, replace=False)`` (Floyd's
sampling, a Fisher-Yates shuffle, Lemire's bounded integers on PCG64's 32-bit
stream). A numpy release that changes that algorithm fails these tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsfl import training
from tsfl.training import draw_batches


def _generators(seeds, buffered, bit_generator=np.random.PCG64):
    rngs = [np.random.Generator(bit_generator(s)) for s in seeds]
    for rng, odd in zip(rngs, buffered):
        if odd:
            # One 32-bit draw leaves the other half of a 64-bit output buffered.
            rng.integers(0, 2**32, dtype=np.uint32)
    return rngs


def _assert_matches_choice(n, b, counts, seeds, buffered=None, bit_generator=np.random.PCG64):
    buffered = buffered or [False] * len(seeds)
    drawn = _generators(seeds, buffered, bit_generator)
    looped = _generators(seeds, buffered, bit_generator)
    n, b = np.broadcast_to(n, len(seeds)).tolist(), np.broadcast_to(b, len(seeds)).tolist()
    got = draw_batches(drawn, n, b, counts)
    assert len(got) == len(seeds)
    for batches, rng, m, size, count in zip(got, looped, n, b, counts):
        want = np.array([rng.choice(m, size=size, replace=False) for _ in range(count)])
        assert batches.shape == (count, size)
        assert np.array_equal(batches, want.reshape(count, size))
    for a, w in zip(drawn, looped):
        assert a.random() == w.random()
        assert a.integers(0, 2**32, dtype=np.uint32) == w.integers(0, 2**32, dtype=np.uint32)
        assert a.integers(0, 1000, dtype=np.uint32) == w.integers(0, 1000, dtype=np.uint32)


@pytest.fixture
def replays(monkeypatch):
    """The ``(n, b, count)`` of every client replayed with ``choice``."""
    calls = []
    replay = training._replay

    def spy(rng, n, b, count):
        calls.append((n, b, count))
        return replay(rng, n, b, count)

    monkeypatch.setattr(training, "_replay", spy)
    return calls


@st.composite
def clients(draw):
    """One to four clients; a client may share the previous one's (n, b)."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        if out and draw(st.booleans()):
            n, b = out[-1][:2]
        else:
            n = draw(st.integers(1, 3000))
            b = draw(st.one_of(st.integers(1, min(n, 40)), st.integers(1, n)))
        out.append((n, b, draw(st.integers(0, 5)), draw(st.integers(0, 2**63)), draw(st.booleans())))
    return out


@settings(max_examples=150, deadline=None)
@given(clients())
def test_draw_batches_equals_successive_choice_calls(specs):
    n, b, counts, seeds, buffered = (list(column) for column in zip(*specs))
    _assert_matches_choice(n, b, counts, seeds, buffered)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("n, b", [(2, 1), (7, 2), (7, 7), (300, 11)])
def test_a_buffered_half_on_entry_is_used_first(n, b, count):
    # (2, 1) draws once per batch: one batch takes only the buffered half.
    _assert_matches_choice(n, b, [count, count + 1], [3, 4], buffered=[True, False])


@pytest.mark.parametrize("n, b", [(1, 1), (2, 2), (16, 16), (1000, 1)])
def test_whole_population_and_single_sample_batches(n, b):
    # n == b: Floyd's first draw is on [0, 0] and consumes nothing.
    _assert_matches_choice(n, b, [3, 0, 5], [11, 12, 13], buffered=[False, True, True])


@pytest.mark.parametrize("n, b, dtype", [(2**15, 3, np.int16), (2**15, 656, np.int16), (2**15 + 1, 3, np.int32),
                                         (2**15 + 1, 656, np.int32), (2**31, 3, np.int32), (2**31 + 1, 3, np.int64)])
def test_indices_come_in_the_narrowest_type_that_holds_them(replays, n, b, dtype):
    # The second client is idle: its empty draw comes in the same type. At
    # b = 656 > n // 50 numpy takes its tail shuffle, which choice replays.
    _assert_matches_choice(n, b, [4, 0], [7, 8])
    drawn = draw_batches([np.random.default_rng(7), np.random.default_rng(8)], n, b, [4, 0])
    assert [batches.dtype for batches in drawn] == [dtype, dtype]
    assert ((n, b, 4) in replays) == (b > n // 50)


def test_rejected_draws_replay_only_their_batches(replays):
    # Bounds near 3 * 2**30 reject a quarter of the 32-bit draws.
    for seed in range(20):
        _assert_matches_choice(3 * 2**30, [4, 1, 1], [30, 1, 1], [seed, seed + 100, seed + 200])
    assert replays and set(replays) == {(3 * 2**30, 4, 1), (3 * 2**30, 1, 1)}
    # b = 1 takes one draw per batch, so most of its 40 single batches come
    # from the stack, with indices above 2**31.
    assert replays.count((3 * 2**30, 1, 1)) < 20


def test_a_rare_rejection_in_a_long_stream_replays_only_that_batch(replays):
    # Seed 350 hits a Lemire rejection within 100 batches of (2999, 64); seed
    # 0 does not, and stays in the stack beside it.
    _assert_matches_choice(2999, 64, [100, 100], [350, 0])
    assert replays == [(2999, 64, 1)]


@pytest.mark.parametrize("n, b, tail", [(20000, 1000, True), (10001, 200, False), (10001, 201, True)])
def test_numpy_tail_shuffle_branch_is_replayed(replays, n, b, tail):
    _assert_matches_choice(n, b, [2], [5])
    assert replays == ([(n, b, 2)] if tail else [])


def test_other_bit_generators_are_replayed(replays):
    _assert_matches_choice(100, 10, [3, 2], [5, 6], buffered=[True, False], bit_generator=np.random.MT19937)
    assert replays == [(100, 10, 3), (100, 10, 2)]


@pytest.fixture
def stacks(monkeypatch):
    """The batch counts of every later ``_draw_stack`` call, one list per call."""
    calls = []
    draw_stack = training._draw_stack

    def spy(rngs, n, b, counts):
        calls.append(list(counts))
        return draw_stack(rngs, n, b, counts)

    monkeypatch.setattr(training, "_draw_stack", spy)
    return calls


def test_clients_of_one_size_draw_one_stack(stacks):
    # 18 000 batches of one (n, b): every client of that size is in the first
    # stack, however many batches they draw together.
    _assert_matches_choice(64, 8, [6000, 7000, 5000], [21, 22, 23])
    assert stacks[0] == [6000, 7000, 5000]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.data())
def test_a_stack_of_several_clients_equals_successive_choice_calls(n, data):
    b = data.draw(st.integers(1, min(n, 40)))
    counts = data.draw(st.lists(st.integers(0, 300), min_size=2, max_size=6))
    seeds = data.draw(st.lists(st.integers(0, 2**63), min_size=len(counts), max_size=len(counts), unique=True))
    _assert_matches_choice(n, b, counts, seeds)


def test_oversized_batches_raise_only_for_clients_that_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    [batches] = draw_batches([rng], 8, 9, [0])
    assert batches.shape == (0, 9) and rng.bit_generator.state == state
    with pytest.raises(ValueError, match="batch_size exceeds the client's data size"):
        draw_batches([rng, np.random.default_rng(1)], [100, 8], [9, 9], [2, 1])
    with pytest.raises(ValueError, match="non-negative"):
        draw_batches([rng], 8, 2, [-1])


def test_clients_sharing_a_generator_are_refused():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="its own generator"):
        draw_batches([rng, np.random.Generator(rng.bit_generator)], 8, 2, [1, 1])
