"""UAS / GTS / GTS* deciders and a small-order census of n-ary groups.

UAS: the only congruences are equality and the full relation.
GTS: every normal polyadic subgroup is a singleton or everything.
GTS*: the whole carrier is the only normal polyadic subgroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Literal, Optional

from .config import Caps, DEFAULT_CAPS, Strategy, routes
from .errors import CostCapExceeded, MethodDisagreement, ValidationError
from .catalog import A000001, groups_of_order
from .congruence import Congruence, congruences
from .groups import is_theta_simple  # noqa: F401  (re-exported)
from .polyadic import (
    PolyadicGroup,
    all_derived,
    from_table,
    is_reduced,
    verify_table_axioms,
)
from .substructures import (
    PolyadicSubgroup,
    enumerate_normal_polyadic,
)


def is_uas(
    p: PolyadicGroup, method: Strategy = "auto", caps: Caps = DEFAULT_CAPS
) -> tuple[bool, Optional[Congruence]]:
    """(flag, witness): witness is the smallest proper nontrivial congruence."""
    congs = congruences(p, method, caps)
    witness = next((c for c in congs if not c.is_diagonal() and not c.is_full()), None)
    return witness is None, witness


def is_gts(
    p: PolyadicGroup, method: Strategy = "auto", caps: Caps = DEFAULT_CAPS
) -> tuple[bool, Optional[PolyadicSubgroup]]:
    """(flag, witness): witness is the smallest proper non-singleton subgroup."""
    subs = enumerate_normal_polyadic(p, strategy=method, caps=caps)
    witness = next((s for s in subs if s.size not in (1, p.order)), None)
    return witness is None, witness


def is_gts_star(
    p: PolyadicGroup, method: Strategy = "auto", caps: Caps = DEFAULT_CAPS
) -> tuple[bool, Optional[PolyadicSubgroup]]:
    """(flag, witness): witness is the smallest proper normal polyadic subgroup."""
    subs = enumerate_normal_polyadic(p, strategy=method, caps=caps)
    witness = next((s for s in subs if s.size != p.order), None)
    return witness is None, witness


@dataclass(frozen=True)
class SimplicityReport:
    uas: bool
    gts: bool
    gts_star: bool
    reduced: bool
    degenerate: bool
    method: str
    witnesses: dict = field(compare=False, default_factory=dict)

    def __post_init__(self):
        if self.uas and not self.gts:
            raise MethodDisagreement("UAS implies GTS; report violates it")
        if self.gts and not self.gts_star and not self.reduced:
            raise MethodDisagreement(
                "GTS without GTS* forces a reduced structure; report violates it"
            )


def simplicity_report(
    p: PolyadicGroup, method: Strategy = "auto", caps: Caps = DEFAULT_CAPS
) -> SimplicityReport:
    """Run all deciders off one congruence list and one normal-subgroup
    list, cross-check the implications, collect witnesses."""
    congs = congruences(p, method, caps)
    subs = enumerate_normal_polyadic(p, strategy=method, caps=caps)
    found = {
        "uas": next((c for c in congs if not c.is_diagonal() and not c.is_full()), None),
        "gts": next((s for s in subs if s.size not in (1, p.order)), None),
        "gts_star": next((s for s in subs if s.size != p.order), None),
    }
    witnesses = {key: w for key, w in found.items() if w is not None}
    return SimplicityReport(
        uas=found["uas"] is None,
        gts=found["gts"] is None,
        gts_star=found["gts_star"] is None,
        reduced=is_reduced(p),
        degenerate=p.order == 1,
        method=routes(method, p.order <= min(caps.partition_cap, caps.subset_scan_cap)),
        witnesses=witnesses,
    )


@dataclass(frozen=True)
class CensusEntry:
    representative: PolyadicGroup
    report: SimplicityReport
    multiplicity: int


def census(
    order: int,
    arity: int,
    mode: Literal["derived", "exhaustive"] = "derived",
    caps: Caps = DEFAULT_CAPS,
) -> list[CensusEntry]:
    """Isomorphism classes of n-ary groups of a given order.

    Derived mode twists every catalog base group of that order; exhaustive
    mode scans every operation table (tiny orders only) and keeps the ones
    passing the axiom check.  Derived mode raises ValidationError at an
    order where the catalog holds fewer groups than OEIS A000001 counts, so
    it never under-counts; where both modes are feasible, the two censuses
    must coincide.
    """
    from .morphisms import are_isomorphic

    candidates: list[PolyadicGroup] = []
    if mode == "derived":
        bases = groups_of_order(order)
        if not 1 <= order <= len(A000001) or len(bases) < A000001[order - 1]:
            raise ValidationError(
                f"the catalog lacks groups of order {order}; the census would under-count"
            )
        for base in bases:
            candidates.extend(all_derived(base, arity, caps=caps))
    else:
        table_count = order ** (order**arity)
        if table_count > caps.census_exhaustive_cap:
            raise CostCapExceeded(
                f"exhaustive census would scan {table_count} tables, cap is "
                f"{caps.census_exhaustive_cap}",
                cap="census_exhaustive_cap", required=table_count,
            )
        for flat in itertools.product(range(order), repeat=order**arity):
            report = verify_table_axioms(arity, order, flat, caps=caps)
            if report.ok:
                candidates.append(from_table(arity, order, flat, caps=caps, verify=False))

    reps: list[PolyadicGroup] = []
    counts: list[int] = []
    for cand in candidates:
        for i, rep in enumerate(reps):
            if are_isomorphic(cand, rep, caps=caps) is not None:
                counts[i] += 1
                break
        else:
            reps.append(cand)
            counts.append(1)
    return [
        CensusEntry(rep, simplicity_report(rep, caps=caps), count)
        for rep, count in zip(reps, counts)
    ]
