import numpy as np
import pytest

from pageseq.training import iterate_minibatches, minibatch_count


def _sizes(n, batch_size):
    rng = np.random.default_rng(0)
    return [len(b) for b in iterate_minibatches(n, batch_size, rng)]


@pytest.mark.parametrize("n, batch_size, expect", [
    (65, 64, [65]), (66, 64, [64, 2]), (64, 64, [64]), (129, 64, [64, 65]),
    (1, 64, [1]), (10, 64, [10]), (17, 8, [8, 9]), (3, 1, [1, 1, 1]),
])
def test_one_item_last_batch_joins_the_one_before(n, batch_size, expect):
    assert _sizes(n, batch_size) == expect
    assert minibatch_count(n, batch_size) == len(expect)


def test_batching_is_plain_slicing_unless_one_item_is_left():
    for n in range(2, 300):
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        order = rng_a.permutation(n)
        batches = list(iterate_minibatches(n, 64, rng_b))
        assert len(batches) == minibatch_count(n, 64)
        if n % 64 == 1:
            continue
        plain = [order[s : s + 64] for s in range(0, n, 64)]
        assert len(batches) == len(plain)
        for x, y in zip(batches, plain):
            np.testing.assert_array_equal(x, y)


def test_merged_batches_cover_every_index_once():
    rng = np.random.default_rng(1)
    batches = list(iterate_minibatches(129, 64, rng))
    assert sorted(np.concatenate(batches).tolist()) == list(range(129))
