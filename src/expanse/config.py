"""One value-kind vocabulary, KINDS, for configs and library arguments alike.

Each config level has a table mapping every key it accepts to a kind: a
name in KINDS, a tuple of the allowed values, or None for a value that the
builder it goes to checks. check walks one level. The tables: the task keys
and ``scale`` in ``expanse.cli``, ``FLOW_KEYS`` by flow name, ``SPACE_KEYS``
by space kind. Every public function that takes a number from its caller
checks it with require, by the same KINDS, before any work. A bool is never
a number.
"""

import math
import numbers


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _list_of(v, test) -> bool:
    return isinstance(v, list) and len(v) > 0 and all(map(test, v))


# value kind -> (what a value must be, its test)
KINDS = {
    "object": ("an object", lambda v: isinstance(v, dict)),
    "text": ("a nonempty string", lambda v: isinstance(v, str) and v != ""),
    "real": ("a finite number", _real),
    "positive": ("a finite number > 0", lambda v: _real(v) and v > 0),
    "nonnegative": ("a finite number >= 0", lambda v: _real(v) and v >= 0),
    "count": ("an integer >= 1", lambda v: _integer(v) and v >= 1),
    "integer": ("an integer", _integer),
    "boolean": ("a boolean", lambda v: isinstance(v, bool)),
    "reals": ("a nonempty list of finite numbers", lambda v: _list_of(v, _real)),
    "positives": ("a nonempty list of finite numbers > 0",
                  lambda v: _list_of(v, lambda x: _real(x) and x > 0)),
    "points": ("a nonempty list of equal-length lists of finite numbers",
               lambda v: _list_of(v, lambda p: _list_of(p, _real) and len(p) == len(v[0]))),
}


def require(error: type, kind: str, **values) -> None:
    """Raise error naming the first of values (name=value) not of kind, a KINDS name."""
    want, ok = KINDS[kind]
    for name, v in values.items():
        if not ok(v):
            raise error(f"{name} must be {want}, got {v!r}")


def check(cfg: dict, table: dict, error: type, where: str = "") -> None:
    """Check one config level against table (key -> kind).

    Raises error naming the key paths (where + key) of the unknown keys, or
    the path of the first value, in table order, whose kind is wrong.
    """
    unknown = [f"{where}{k}" for k in cfg if k not in table]
    if unknown:
        known = ", ".join(repr(where + k) for k in table) or "none"
        raise error(f"unknown config key(s) {', '.join(map(repr, unknown))}; known: {known}")
    for key, kind in table.items():
        if key in cfg and kind is not None:
            want, ok = (f"one of {', '.join(map(repr, kind))}", kind.__contains__) \
                if isinstance(kind, tuple) else KINDS[kind]
            if not ok(cfg[key]):
                raise error(f"config key {where + key!r} must be {want}, got {cfg[key]!r}")
