"""KaskadeClient: retries, deadlines, Retry-After."""

import json

import pytest

from repro.errors import DeadlineExceededError, ServiceError
from repro.service.client import RETRYABLE_STATUSES, KaskadeClient, RetryPolicy


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

    def test_every_retryable_status_is_retried(self):
        transport = ScriptedTransport(
            (429, {}, {"error": "shed"}),
            (500, {}, {"error": "boom"}),
            (503, {}, {"status": "recovering"}),
            (200, {}, {}))
        client, sleeps = make_client(transport)
        response = client.request("GET", "/health")
        assert response.ok and response.attempts == 4
        assert len(sleeps) == 3

    def test_ready_false_on_503(self):
        transport = ScriptedTransport((503, {}, {"status": "recovering"}))
        client, _ = make_client(
            transport, retry=RetryPolicy(max_attempts=1, seed=0))
        assert client.ready() is False


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
