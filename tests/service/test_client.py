"""KaskadeClient: retries, deadlines, Retry-After, circuit breaking."""

import json

import pytest

from repro.errors import CircuitOpenError, DeadlineExceededError, ServiceError
from repro.service.client import (
    RETRYABLE_STATUSES,
    CircuitBreaker,
    KaskadeClient,
    RetryPolicy,
)


class ScriptedTransport:
    """Plays back (status, headers, body) tuples; records every call."""

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def __call__(self, method, path, body, timeout):
        self.calls.append((method, path, body, timeout))
        outcome = self.outcomes.pop(0) if len(self.outcomes) > 1 \
            else self.outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        status, headers, payload = outcome
        return status, headers, json.dumps(payload).encode()


def make_client(transport, **kwargs):
    sleeps = []
    kwargs.setdefault("retry", RetryPolicy(max_attempts=4, base_delay=0.01,
                                           jitter=0.0, seed=0))
    client = KaskadeClient("test", 0, transport=transport,
                           sleep=sleeps.append, **kwargs)
    return client, sleeps


class TestRetries:
    def test_retries_500_then_succeeds(self):
        transport = ScriptedTransport(
            (500, {}, {"error": "boom"}),
            (500, {}, {"error": "boom"}),
            (200, {}, {"row_count": 1}))
        client, sleeps = make_client(transport)
        response = client.request("GET", "/health")
        assert response.ok and response.attempts == 3
        assert len(sleeps) == 2
        assert sleeps[0] == pytest.approx(0.01)
        assert sleeps[1] == pytest.approx(0.02)  # exponential

    def test_retry_after_header_overrides_backoff(self):
        transport = ScriptedTransport(
            (429, {"retry-after": "0.25"}, {"error": "shed"}),
            (200, {}, {}))
        client, sleeps = make_client(transport)
        assert client.request("GET", "/health").ok
        assert sleeps == [pytest.approx(0.25)]

    def test_retry_after_capped_at_max_delay(self):
        transport = ScriptedTransport(
            (503, {"retry-after": "3600"}, {"error": "recovering"}),
            (200, {}, {}))
        client, sleeps = make_client(transport)
        client.request("GET", "/health")
        assert sleeps == [pytest.approx(client.retry.max_delay)]

    def test_transport_errors_are_retried(self):
        transport = ScriptedTransport(OSError("refused"), (200, {}, {}))
        client, _ = make_client(transport)
        assert client.request("GET", "/health").attempts == 2

    def test_non_retryable_status_returns_immediately(self):
        assert 400 not in RETRYABLE_STATUSES
        transport = ScriptedTransport((400, {}, {"error": "bad"}))
        client, sleeps = make_client(transport)
        response = client.request("POST", "/query", {"query": ""})
        assert response.status == 400 and response.attempts == 1
        assert sleeps == []

    def test_exhausted_attempts_raise_service_error(self):
        transport = ScriptedTransport((500, {}, {"error": "down"}))
        client, _ = make_client(transport)
        with pytest.raises(ServiceError, match="failed after 4 attempts"):
            client.request("GET", "/health")
        assert len(transport.calls) == 4


class TestDeadlines:
    def test_exhausted_budget_raises_deadline_error(self):
        transport = ScriptedTransport((500, {}, {"error": "down"}))
        client, _ = make_client(transport)
        with pytest.raises(DeadlineExceededError):
            client.request("GET", "/health", deadline=0.0)

    def test_deadline_bounds_socket_timeout(self):
        transport = ScriptedTransport((200, {}, {}))
        client, _ = make_client(transport)
        client.request("GET", "/health", deadline=2.5)
        assert transport.calls[0][3] <= 2.5

    def test_query_deadline_becomes_max_work(self):
        transport = ScriptedTransport((200, {}, {"rows": []}))
        client, _ = make_client(transport, work_rate=1000.0)
        client.query("MATCH (a:Job) RETURN a", deadline=0.5)
        payload = json.loads(transport.calls[0][2])
        assert payload["max_work"] == 500
        client.query("MATCH (a:Job) RETURN a", deadline=0.5, max_work=7)
        assert json.loads(transport.calls[1][2])["max_work"] == 7


class TestCircuitBreaker:
    def test_threshold_trips_open_and_reset_goes_half_open(self):
        clock = [0.0]
        breaker = CircuitBreaker("b", failure_threshold=2, reset_seconds=5.0,
                                 clock=lambda: clock[0])
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after_seconds == pytest.approx(5.0)
        clock[0] = 6.0
        assert breaker.state == "half-open"
        assert breaker.allow()       # the single probe
        assert not breaker.allow()   # second caller still refused
        breaker.record_success()
        assert breaker.state == "closed"

    def test_failed_probe_reopens_for_full_period(self):
        clock = [0.0]
        breaker = CircuitBreaker("b", failure_threshold=1, reset_seconds=5.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == "open"
        assert breaker.retry_after_seconds == pytest.approx(5.0)

    def test_window_prunes_stale_failures(self):
        clock = [0.0]
        breaker = CircuitBreaker("b", failure_threshold=3, window_seconds=10.0,
                                 clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 11.0
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.recent_failures == 2  # the first one aged out
        assert breaker.state == "closed"

    def test_client_raises_circuit_open_without_attempting(self):
        breaker = CircuitBreaker("svc", failure_threshold=1)
        breaker.record_failure()
        transport = ScriptedTransport((200, {}, {}))
        client, _ = make_client(transport, breaker=breaker)
        with pytest.raises(CircuitOpenError) as excinfo:
            client.request("GET", "/health")
        assert excinfo.value.retry_after_seconds > 0
        assert transport.calls == []

    def test_server_errors_trip_breaker_but_sheds_do_not(self):
        breaker = CircuitBreaker("svc", failure_threshold=10)
        transport = ScriptedTransport(
            (429, {}, {"error": "shed"}),
            (500, {}, {"error": "boom"}),
            (200, {}, {}))
        client, _ = make_client(transport, breaker=breaker)
        client.request("GET", "/health")
        # 429 is the server protecting itself; only the 500 counted.
        assert breaker.recent_failures == 0  # success cleared the window
        transport2 = ScriptedTransport((500, {}, {"error": "boom"}),
                                       (500, {}, {"error": "boom"}),
                                       (200, {}, {}))
        breaker2 = CircuitBreaker("svc2", failure_threshold=10)
        client2, _ = make_client(transport2, breaker=breaker2,
                                 retry=RetryPolicy(max_attempts=2,
                                                   base_delay=0.0, seed=0))
        with pytest.raises(ServiceError):
            client2.request("GET", "/health")
        assert breaker2.recent_failures == 2

    def test_ready_false_on_503(self):
        transport = ScriptedTransport((503, {}, {"status": "recovering"}))
        client, _ = make_client(
            transport, retry=RetryPolicy(max_attempts=1, seed=0))
        assert client.ready() is False

