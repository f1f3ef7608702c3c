import pytest

import probe
import run


def test_probe_work_is_fixed():
    assert probe.work() == probe.work()
    assert probe.probe_ms() > 0


def test_normalize_rescales_by_the_mean_of_the_probes_around_an_op():
    ref = probe.REFERENCE_PROBE_MS
    assert probe.normalize(100.0, ref, ref) == pytest.approx(100.0)
    # The host ran at half speed: the op and its probes took twice as long.
    assert probe.normalize(200.0, 2 * ref, 2 * ref) == pytest.approx(100.0)
    assert probe.normalize(150.0, ref, 2 * ref) == pytest.approx(100.0)


def test_request_latencies_use_the_probes_on_either_side():
    ref = probe.REFERENCE_PROBE_MS
    records = [({}, 0.0, 0.1, 200, b""), ({}, 1.0, 1.4, 200, b"")]
    probes = [ref, ref, 3 * ref]
    assert run.normalized_latencies(records, probes) == [
        pytest.approx(100.0), pytest.approx(200.0)]
