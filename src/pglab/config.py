"""Resource caps and the one cap check (`refusal`, raised by `charge`), the
per-instance cache, the oracles' one gate and the theorem/oracle router.

PGLAB_* environment variables override the default caps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Callable, Literal, Optional, TypeVar, get_args

from .errors import CapExceeded, CostCapExceeded, MethodDisagreement, OrderCapExceeded, ValidationError

ENV_PREFIX = "PGLAB_"

Strategy = Literal["auto", "theorem", "oracle"]
T = TypeVar("T")


@dataclass(frozen=True)
class Caps:
    """Hard limits for the enumerative operations.

    Every cap is a refusal threshold: operations raise OrderCapExceeded or
    CostCapExceeded instead of silently truncating their answer.
    """

    order_cap: int = 16            # largest accepted base-group order
    arity_cap: int = 8             # largest accepted operation arity
    axiom_cost_cap: int = 10_000_000   # cells: axiom checks, oracles, exhaustive census
    hom_oracle_cap: int = 1_000_000    # candidate maps in the hom oracle

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValidationError(f"{f.name} must be a non-negative integer, got {value!r}")


DEFAULT_CAPS = Caps()


def caps_from_env(base: Caps = DEFAULT_CAPS, environ=None) -> Caps:
    """Apply PGLAB_<FIELD> overrides from the environment."""
    env = os.environ if environ is None else environ
    overrides = {}
    for f in fields(Caps):
        key = ENV_PREFIX + f.name.upper()
        if key in env:
            try:
                overrides[f.name] = int(env[key])
            except ValueError:
                raise ValidationError(f"{key}={env[key]!r} is not an integer")
    return replace(base, **overrides)


def cached_on(obj, key: str, compute: Callable[[], T]) -> T:
    """compute()'s answer, stored on obj under key as cached_property stores
    its value: the answer is freed with the object it describes."""
    store = obj.__dict__
    if key not in store:
        store[key] = compute()
    return store[key]


# What each cap counts, as its refusals word it.
_UNITS = {"order_cap": "elements", "arity_cap": "arguments", "axiom_cost_cap": "cells",
          "hom_oracle_cap": "maps"}


def refusal(caps: Caps, cap: str, required: Optional[int], what: str) -> Optional[CapExceeded]:
    """None when required fits the Caps field cap, else the refusal
    (OrderCapExceeded for order_cap and arity_cap, CostCapExceeded for the
    cost caps), worded "{what} needs {required} {unit}; {cap} is {limit}".
    A required of None is too large to count, and is worded "too many"."""
    limit = getattr(caps, cap)
    if required is not None and required <= limit:
        return None
    kind = OrderCapExceeded if cap in ("order_cap", "arity_cap") else CostCapExceeded
    count = "too many" if required is None else required
    return kind(f"{what} needs {count} {_UNITS[cap]}; {cap} is {limit}", cap=cap, required=required)


def charge(caps: Caps, cap: str, required: Optional[int], what: str) -> None:
    """Raise refusal(caps, cap, required, what) unless it is None."""
    exc = refusal(caps, cap, required, what)
    if exc:
        raise exc


# The oracles pack a row of carrier values into one uint64 key, 4 bits a value.
KEY_VALUES = 16


def oracle_refusal(p, caps: Caps) -> Optional[CapExceeded]:
    """Why the congruence and subgroup oracles may not run on p, or None:
    the subgroup oracles' m·2^m subset mask must fit axiom_cost_cap, and
    every oracle's rows a packed key (KEY_VALUES values).  No oracle builds
    the m^n table of a derived p (the congruence oracle reads Post's
    translations, the subset scan Post's closure families)."""
    m = p.order
    exc = refusal(caps, "axiom_cost_cap", m << m, f"an oracle run on order {m}")
    if exc is None and m > KEY_VALUES:
        exc = OrderCapExceeded(
            f"the oracles pack rows of at most {KEY_VALUES} values, not {m}",
            cap="order_cap", required=m,
        )
    return exc


def routes(strategy: Strategy, oracle_feasible: bool) -> str:
    """The routes a strategy runs: "both" when "auto" runs the oracle too
    (oracle_feasible: the oracle's gate admits the input), else the strategy
    itself, "auto" then running the theorem alone.  Unknown values raise
    ValueError."""
    if strategy not in get_args(Strategy):
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {get_args(Strategy)}")
    return "both" if strategy == "auto" and oracle_feasible else strategy


def cross_check(
    what: str,
    strategy: Strategy,
    theorem: Callable[[], T],
    oracle: Callable[[], T],
    oracle_feasible: bool,
) -> T:
    """Run the routes `routes` selects; when both run, their answers must
    be equal.  The theorem's answer is returned whenever it ran."""
    ran = routes(strategy, oracle_feasible)
    if ran == "oracle":
        return oracle()
    answer = theorem()
    if ran == "both":
        check = oracle()
        if answer != check:
            raise MethodDisagreement(f"{what} routes disagree: theorem={answer} oracle={check}")
    return answer
