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
        assert budget.try_acquire(100.0, tokens=2.0)
        assert not budget.try_acquire(100.0, tokens=0.01)

    def test_backwards_time_does_not_refund(self):
        budget = TokenBucketRetryBudget(capacity=2.0, refill_per_second=1.0)
        assert budget.try_acquire(10.0)
        before = budget.tokens
        assert not budget.try_acquire(5.0, tokens=before + 0.5)
        assert budget.tokens == pytest.approx(before)

    def test_fractional_tokens(self):
        budget = TokenBucketRetryBudget(capacity=1.0, refill_per_second=0.0)
        assert budget.try_acquire(0.0, tokens=0.5)
        assert budget.try_acquire(0.0, tokens=0.5)
        assert not budget.try_acquire(0.0, tokens=0.5)
