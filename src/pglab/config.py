"""Resource caps, the per-instance cache and the theorem/oracle router.

PGLAB_* environment variables override the default caps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Callable, Literal, TypeVar, get_args

from .errors import MethodDisagreement, ValidationError

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
    automorphism_cap: int = 16     # largest order for automorphism search
    axiom_cost_cap: int = 10_000_000   # elementary evaluations for axiom checks
    partition_cap: int = 10        # order gate of the congruence oracle
    subset_scan_cap: int = 12      # carrier size for the 2^m subset scan
    hom_oracle_cap: int = 1_000_000    # candidate maps in the hom oracle
    census_exhaustive_cap: int = 4096  # candidate tables in the exhaustive census

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise ValidationError(f"{f.name} must be non-negative, got {value}")


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


def routes(strategy: Strategy, oracle_feasible: bool) -> str:
    """The routes a strategy runs: "both" when "auto" runs the oracle too
    (oracle_feasible: the oracle's cap admits the input), else the strategy
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
