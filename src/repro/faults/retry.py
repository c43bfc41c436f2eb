"""Bounded retry with exponential backoff, charged to virtual time.

An operation that fails with a retryable error is re-attempted up to
``max_attempts`` times.  Each failed attempt's consumed time (carried on
the exception) is charged to the caller's I/O category; each wait between
attempts is charged to :attr:`TimeCategory.RETRY_BACKOFF`, so a flaky
device shows up in the time breakdown as both extra I/O and explicit
backoff — the latency budget a real pager would burn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

from ..sim.ledger import Ledger, TimeCategory
from .degrade import ResilienceCounters
from .errors import (
    FragmentChecksumError,
    IORetriesExhausted,
    PagingFaultError,
    PermanentIOError,
    TransientIOError,
)

T = TypeVar("T")

#: Errors worth retrying: the next attempt may succeed.
RETRYABLE = (TransientIOError, FragmentChecksumError)


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and backoff schedule (all times virtual)."""

    max_attempts: int = 5
    base_backoff_s: float = 0.0005
    multiplier: float = 4.0
    max_backoff_s: float = 0.05

    def backoff_seconds(self, retry_index: int) -> float:
        """Backoff before retry number ``retry_index`` (0-based),
        saturating at ``max_backoff_s`` where the growth overflows."""
        try:
            return min(
                self.base_backoff_s * self.multiplier ** retry_index,
                self.max_backoff_s,
            )
        except OverflowError:
            # multiplier >= 1, so the uncapped value is past any float;
            # only a zero base keeps it at zero.
            return self.max_backoff_s if self.base_backoff_s else 0.0


class ResilientIO:
    """Runs I/O callables under a :class:`RetryPolicy`.

    Failed-attempt time goes to the caller's category; backoff goes to
    ``RETRY_BACKOFF``.  Permanent errors fail fast.  When the budget runs
    out, raises :class:`IORetriesExhausted` wrapping the last error.

    Every machine has one, plan or no plan: with nothing injected no
    attempt fails, so the wrapper charges and counts nothing.  Without
    ``resilience`` it counts into a block of its own that no report
    reads.
    """

    def __init__(
        self,
        policy: RetryPolicy,
        ledger: Ledger,
        resilience: Optional[ResilienceCounters] = None,
    ):
        self.policy = policy
        self.ledger = ledger
        self.resilience = (
            resilience if resilience is not None else ResilienceCounters()
        )

    def call(self, fn: Callable[..., T], category: TimeCategory, *args) -> T:
        """Invoke ``fn(*args)`` with retries; return its result.

        ``fn`` must be safe to re-invoke after a failure (all the I/O
        operations routed through here are: a failed device transfer
        leaves file contents and staging buffers re-writable in place).
        """
        policy = self.policy
        resilience = self.resilience
        attempt = 0
        failed_before = False
        while True:
            attempt += 1
            try:
                result = fn(*args)
            except RETRYABLE as exc:
                if exc.seconds:
                    self.ledger.charge(category, exc.seconds)
                if attempt >= policy.max_attempts:
                    resilience.retries_exhausted += 1
                    raise IORetriesExhausted(attempt, exc) from exc
                backoff = policy.backoff_seconds(attempt - 1)
                if backoff:
                    self.ledger.charge(TimeCategory.RETRY_BACKOFF, backoff)
                resilience.retries += 1
                resilience.retry_backoff_seconds += backoff
                failed_before = True
            except PermanentIOError as exc:
                if exc.seconds:
                    self.ledger.charge(category, exc.seconds)
                resilience.retries_exhausted += 1
                raise IORetriesExhausted(attempt, exc) from exc
            else:
                if failed_before:
                    resilience.recovered_operations += 1
                return result

    def try_call(self, fn: Callable[..., T], category: TimeCategory, *args):
        """Like :meth:`call` but returns ``None`` instead of raising
        :class:`IORetriesExhausted` — for callers with a fallback path."""
        try:
            return self.call(fn, category, *args)
        except IORetriesExhausted:
            return None


__all__ = [
    "RETRYABLE",
    "ResilientIO",
    "RetryPolicy",
    "IORetriesExhausted",
    "PagingFaultError",
]
