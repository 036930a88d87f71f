"""Exceptions shared across the package."""


class InvariantError(RuntimeError):
    """An internal invariant of the engine failed.

    Raised instead of `assert` so that the checks the constructions rely
    on, such as closure stability and truncation sufficiency, still run
    under `python -O`.  It signals a fault in the engine, never bad input.
    """
