"""Shared exception types."""

__all__ = ["BudgetExhausted"]


class BudgetExhausted(RuntimeError):
    """A rejection-sampling or retry budget ran out before success."""
