"""Config leaf checks. Each returns the value in the form the program uses, a numpy number as a Python
one, or raises ValueError with a reason; no boolean (numpy's too) or string is taken for a number. A
config dataclass states each leaf's default and check once, as a leaf() field the CLI's schema reads.
"""

from __future__ import annotations

import math
from dataclasses import field, fields

import numpy as np


_NUMBER = (int, float, np.integer, np.floating)


def _finite(value) -> float:
    if isinstance(value, bool) or not isinstance(value, _NUMBER) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """An integral number as a Python int; a fraction is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, _NUMBER) or not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _instance(kind, what: str):
    def check(value):
        if not isinstance(value, kind):
            raise ValueError(f"expected {what}, got {value!r}")
        return value
    return check


def _where(check, rule: str, ok):
    """check, then ok on what it returns; rule says what ok asks."""
    def checked(value):
        x = check(value)
        if not ok(x):
            raise ValueError(f"must be {rule}, got {value!r}")
        return x
    return checked


def _choice(options):
    rule = f"one of {list(options)}"
    return _where(_instance(str, rule), rule, lambda s: s in options)


def _optional(check):
    return lambda value: None if value is None else check(value)


def _list_of(item, what: str, min_len: int = 1, distinct: bool = True):
    """Check for a list of at least min_len values that each pass item."""
    def check(value) -> list:
        try:
            if not isinstance(value, list) or len(value) < min_len:
                raise ValueError
            out = [item(v) for v in value]
            if distinct and len(set(out)) != len(out):
                raise ValueError
        except ValueError:
            raise ValueError(f"expected {what}, got {value!r}") from None
        return out
    return check


_row = _list_of(_finite, "a row of finite numbers", distinct=False)


def _matrix(value) -> np.ndarray:
    """A list of equal-length rows of finite numbers as a 2-D array; a flat list is one row."""
    rows = value if isinstance(value, list) and all(isinstance(r, list) for r in value) else [value]
    try:
        m = np.array([_row(r) for r in rows])  # unequal rows raise ValueError
        if m.ndim != 2:
            raise ValueError
    except ValueError:
        raise ValueError(f"expected a matrix of finite numbers, got {value!r}") from None
    return m


_count = _where(_integer, ">= 1", lambda n: n >= 1)
_positive = _where(_finite, "> 0", lambda x: x > 0)
_levels = _list_of(_positive, "a nonempty list of distinct positive levels")


def checked(name: str, check, value):
    """What check returns for value; a ValueError or OverflowError becomes ValueError("<name>: <reason>")."""
    try:
        return check(value)
    except (ValueError, OverflowError) as e:
        raise ValueError(f"{name}: {e}") from None


def leaf(default, check):
    """A dataclass field that is a config leaf: its default and its check, stated once."""
    return field(default=default, metadata={"check": check})


def check_leaves(obj) -> None:
    """A __post_init__: replace each leaf of obj with what its check returns."""
    for f in fields(obj):
        if "check" in f.metadata:
            setattr(obj, f.name, checked(f.name, f.metadata["check"], getattr(obj, f.name)))


def leaves(cls) -> dict:
    """cls's leaves as a config schema section: {name: (default, check)}, in field order."""
    return {f.name: (f.default, f.metadata["check"]) for f in fields(cls) if "check" in f.metadata}
