"""Resilient service client: retries and deadlines.

Server-side durability (:mod:`repro.durability`) makes crashes recoverable;
this module makes them *survivable for callers*:

* :class:`RetryPolicy` — exponential backoff with seeded jitter; a 429/503
  response's ``Retry-After`` header overrides the computed backoff (the
  server knows its own queue better than the client's exponent does).
* **Deadlines** — every request carries a wall-clock budget.  The remaining
  budget bounds each attempt's socket timeout and each backoff sleep, and —
  for queries — is converted into the server-side ``max_work`` traversal
  budget via ``work_rate``, so a client's 250 ms deadline becomes the
  executor's work cap instead of a best-effort suggestion.

The HTTP transport is ``http.client`` (stdlib, matching the server's
dependency-free stance) and is pluggable for tests.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import DeadlineExceededError, ServiceError

#: Response statuses worth retrying: shed (429), crashed mid-handle (500),
#: and not-ready-yet (503).  4xx client mistakes are not retried.
RETRYABLE_STATUSES = frozenset({429, 500, 503})


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic (seeded) jitter.

    ``Retry-After`` from the server overrides the computed backoff — capped
    at ``max_delay`` so a confused server cannot park the client forever.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int | None = None
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def delay(self, attempt: int, retry_after: float | None = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if retry_after is not None:
            return min(max(retry_after, 0.0), self.max_delay)
        raw = min(self.base_delay * (self.multiplier ** (attempt - 1)),
                  self.max_delay)
        # Decorrelated jitter in [raw * (1 - jitter), raw]: never sleeps
        # longer than the exponent says, spreads herds within it.
        return raw * (1.0 - self.jitter * self._rng.random())


@dataclass
class ClientResponse:
    """One HTTP exchange as the client sees it."""

    status: int
    body: dict[str, Any]
    headers: dict[str, str] = field(default_factory=dict)
    attempts: int = 1
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class KaskadeClient:
    """HTTP client for the graph service with retries and deadlines.

    Example:
        >>> client = KaskadeClient("127.0.0.1", 8080)     # doctest: +SKIP
        >>> client.query("MATCH (a:Job) RETURN a", deadline=0.5)  # doctest: +SKIP
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 80, *,
                 retry: RetryPolicy | None = None,
                 default_deadline: float = 10.0,
                 work_rate: float = 200_000.0,
                 transport: Callable[..., tuple[int, dict[str, str], bytes]] | None = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        """Args:
            host, port: Server address.
            retry: Backoff policy (default: 4 attempts, 50 ms base, jittered).
            default_deadline: Per-request wall-clock budget (seconds) when a
                call does not pass its own.
            work_rate: Traversal work units the server is assumed to do per
                second; ``deadline * work_rate`` becomes a query's
                ``max_work`` budget unless the caller set one explicitly.
            transport: Test seam — ``(method, path, body_bytes, timeout)``
                → ``(status, headers, body_bytes)``; defaults to
                ``http.client`` against ``host:port``.
            sleep: Backoff sleep function (injectable for tests).
        """
        self.host = host
        self.port = port
        self.retry = retry or RetryPolicy()
        self.default_deadline = default_deadline
        self.work_rate = work_rate
        self._transport = transport or self._http_transport
        self._sleep = sleep

    # -------------------------------------------------------------- transport
    def _http_transport(self, method: str, path: str, body: bytes | None,
                        timeout: float) -> tuple[int, dict[str, str], bytes]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=max(timeout, 0.001))
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            raw = connection.getresponse()
            payload = raw.read()
            return raw.status, {k.lower(): v for k, v in raw.getheaders()}, payload
        finally:
            connection.close()

    # ---------------------------------------------------------------- request
    def request(self, method: str, path: str,
                payload: Mapping[str, Any] | None = None, *,
                deadline: float | None = None) -> ClientResponse:
        """One logical request: attempts, backoff, deadline.

        Raises:
            DeadlineExceededError: The budget ran out before a non-retryable
                response arrived.
            ServiceError: Attempts were exhausted on retryable failures with
                budget to spare.
        """
        budget = self.default_deadline if deadline is None else deadline
        start = time.monotonic()
        body = (json.dumps(payload, default=str).encode()
                if payload is not None else None)
        last_error: str = "no attempt made"
        for attempt in range(1, self.retry.max_attempts + 1):
            remaining = budget - (time.monotonic() - start)
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"{method} {path} exceeded its {budget:.3f}s deadline "
                    f"after {attempt - 1} attempts ({last_error})")
            retry_after: float | None = None
            try:
                status, headers, raw = self._transport(method, path, body,
                                                       remaining)
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"transport: {exc}"
            else:
                try:
                    decoded = json.loads(raw.decode() or "null")
                except (json.JSONDecodeError, UnicodeDecodeError):
                    decoded = {"raw": raw.decode(errors="replace")}
                if not isinstance(decoded, dict):
                    decoded = {"body": decoded}
                if status not in RETRYABLE_STATUSES:
                    return ClientResponse(
                        status=status, body=decoded, headers=headers,
                        attempts=attempt,
                        elapsed_seconds=time.monotonic() - start)
                last_error = f"status {status}: {decoded.get('error', '?')}"
                header = headers.get("retry-after")
                if header is not None:
                    try:
                        retry_after = float(header)
                    except ValueError:
                        retry_after = None
            if attempt < self.retry.max_attempts:
                remaining = budget - (time.monotonic() - start)
                pause = min(self.retry.delay(attempt, retry_after),
                            max(remaining, 0.0))
                if pause > 0:
                    self._sleep(pause)
        raise ServiceError(
            f"{method} {path} failed after {self.retry.max_attempts} "
            f"attempts ({last_error})")

    # ------------------------------------------------------------ convenience
    def query(self, text: str, *, deadline: float | None = None,
              max_work: int | None = None, version: int | None = None,
              use_views: bool = True, client: str = "kaskade-client",
              **extra: Any) -> ClientResponse:
        """POST /query with the deadline converted into a ``max_work`` budget."""
        budget = self.default_deadline if deadline is None else deadline
        if max_work is None:
            max_work = max(1, int(budget * self.work_rate))
        payload: dict[str, Any] = {"query": text, "max_work": max_work,
                                   "use_views": use_views, "client": client,
                                   **extra}
        if version is not None:
            payload["version"] = version
        return self.request("POST", "/query", payload, deadline=deadline)

    def mutate(self, ops: Sequence[Mapping[str, Any]], *,
               deadline: float | None = None,
               client: str = "kaskade-client") -> ClientResponse:
        """POST /mutate.

        Note: a retried mutate can double-apply if the first attempt's
        response was lost after the commit acknowledged — idempotent op
        design (e.g. keyed vertices) is the caller's job, as in any
        at-least-once protocol.
        """
        return self.request("POST", "/mutate",
                            {"ops": list(ops), "client": client},
                            deadline=deadline)

    def health(self, *, deadline: float | None = None) -> ClientResponse:
        return self.request("GET", "/health", deadline=deadline)

    def ready(self, *, deadline: float | None = None) -> bool:
        """Whether the server reports ready (False on 503 while recovering)."""
        try:
            return self.request("GET", "/health/ready",
                                deadline=deadline).status == 200
        except (ServiceError, DeadlineExceededError):
            return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KaskadeClient({self.host}:{self.port})"
