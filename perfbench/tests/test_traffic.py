import itertools

import traffic


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_miss_stream_is_a_function_of_the_seed():
    assert take(traffic.miss_stream(5), 50) == take(traffic.miss_stream(5), 50)
    assert take(traffic.miss_stream(5), 50) != take(traffic.miss_stream(6), 50)


def test_miss_stream_is_balanced_and_never_repeats_a_key():
    first = take(traffic.miss_stream(5), 50)
    k = len(traffic.KERNELS)
    for start in range(0, 50, k):
        assert sorted(r["workload"] for r in first[start:start + k]) \
            == sorted(traffic.KERNELS)
    keys = [r["config"]["quarantine_after"] for r in first]
    assert len(set(keys)) == len(keys)
    warmup = {r["config"]["quarantine_after"] for r in traffic.miss_warmup()}
    assert not warmup & set(keys)


def test_miss_echo_tokens_are_unique():
    echoes = [r["echo"] for r in take(traffic.miss_stream(1), 1000)]
    assert len(set(echoes)) == 1000
