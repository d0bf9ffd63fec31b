"""The ``kind:key=value,…`` body shared by every spec-string grammar.

Fault, arrival, stream-policy, failure-policy and topology specs all
parse their body with :func:`parse_kv`; the numeric grammars then pop
finite numbers with :func:`take`.  A leaf module, so every layer can
import it without a cycle.
"""

from __future__ import annotations

import math


def parse_kv(
    body: str, kind: str, what: str, error: type[ValueError] = ValueError
) -> dict[str, str]:
    """Parse a ``k=v,…`` spec body into stripped string values.

    ``what`` names the grammar in error messages and ``error`` is the
    exception raised (topology specs raise ``TopologyError``).  An empty
    body has no parameters; otherwise every comma-separated item must be
    ``key=value`` with both sides non-empty (an empty item, as in
    ``p=0.1,`` or ``p=0.1,,tmax=5``, is malformed), and a key given
    twice is rejected (``p=0.1,p=0.9`` would otherwise keep one
    silently).
    """
    out: dict[str, str] = {}
    if not body.strip():
        return out
    for item in body.split(","):
        key, sep, value = (part.strip() for part in item.partition("="))
        if not (sep and key and value):
            raise error(f"malformed parameter {item.strip()!r} in {what} spec {kind!r}")
        if key in out:
            raise error(f"duplicate parameter {key!r} in {what} spec {kind!r}")
        out[key] = value
    return out


def take(
    params: dict[str, str], kind: str, *names: str, what: str, **defaults
) -> list[float]:
    """Pop ``names`` as finite numbers (missing ones from ``defaults``);
    reject leftovers.

    NaN and infinities are rejected here, so no spec reaches a model (or
    an ``int()`` coercion) with a non-finite parameter.
    """
    values = []
    for name in names:
        if name not in params:
            if name not in defaults:
                raise ValueError(f"{what} spec {kind!r} is missing parameter {name!r}")
            values.append(defaults[name])
            continue
        raw = params.pop(name)
        try:
            number = float(raw)
        except ValueError:
            raise ValueError(
                f"{what} parameter {name!r} needs a number, got {raw!r}"
            ) from None
        if not math.isfinite(number):
            raise ValueError(f"{what} parameter {name!r} must be finite, got {raw!r}")
        values.append(number)
    if params:
        extra = ", ".join(sorted(params))
        raise ValueError(f"unknown parameter(s) for {what} kind {kind!r}: {extra}")
    return values
