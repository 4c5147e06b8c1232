"""Token-bucket retry-budget tests."""

import pytest

from repro.resilience.budget import TokenBucketRetryBudget


class TestTokenBucketRetryBudget:
    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            TokenBucketRetryBudget(capacity=0.0)
        with pytest.raises(ValueError):
            TokenBucketRetryBudget(refill_per_second=-1.0)

    def test_starts_full_and_drains(self):
        budget = TokenBucketRetryBudget(capacity=3.0, refill_per_second=0.0)
        assert budget.tokens == pytest.approx(3.0)
        assert budget.try_acquire(0.0)
        assert budget.try_acquire(0.0)
        assert budget.try_acquire(0.0)
        assert not budget.try_acquire(0.0)

    def test_refills_with_time_up_to_capacity(self):
        budget = TokenBucketRetryBudget(capacity=2.0, refill_per_second=1.0)
        assert budget.try_acquire(0.0)
        assert budget.try_acquire(0.0)
        assert not budget.try_acquire(0.0)
        assert not budget.try_acquire(0.5)  # only half a token back
        assert budget.try_acquire(1.1)
        # A long idle stretch refills to capacity, never beyond.
        assert budget.try_acquire(100.0)
        assert budget.try_acquire(100.0)
        assert not budget.try_acquire(100.0)

    def test_backwards_time_does_not_refund(self):
        budget = TokenBucketRetryBudget(capacity=2.0, refill_per_second=1.0)
        assert budget.try_acquire(10.0)
        assert budget.try_acquire(5.0)
        # Going back in time refunds nothing: the bucket stays empty.
        assert not budget.try_acquire(5.0)
        assert budget.tokens == pytest.approx(0.0)

    def test_fractional_tokens(self):
        # Refill accrues fractions of a token; a retry needs a whole one.
        budget = TokenBucketRetryBudget(capacity=1.0, refill_per_second=2.0)
        assert budget.try_acquire(0.0)
        assert not budget.try_acquire(0.25)
        assert budget.tokens == pytest.approx(0.5)
        assert budget.try_acquire(0.5)
