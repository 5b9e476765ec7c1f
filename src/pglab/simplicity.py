"""UAS / GTS / GTS* deciders and a small-order census of n-ary groups.

UAS: the only congruences are equality and the full relation.
GTS: every normal polyadic subgroup is a singleton or everything.
GTS*: the whole carrier is the only normal polyadic subgroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Literal, Optional, TypeVar

import numpy as np

from .config import Caps, DEFAULT_CAPS, Strategy, cached_on, charge, oracle_refusal, routes
from .errors import InternalContradiction, MethodDisagreement, ValidationError
from .catalog import A000001, groups_of_order
from .congruence import Congruence, congruences, enumerate_normal_polyadic
from .groups import FiniteGroup, automorphisms
from .polyadic import (
    PolyadicGroup,
    _check_arity_order,
    all_derived,
    from_table,
    is_reduced,
    packed_tuples,
    verify_table_axioms,
)
from .substructures import PolyadicSubgroup

T = TypeVar("T")
K = TypeVar("K")
# A twist (theta.perm, b) of a fixed base group.
Twist = tuple[tuple[int, ...], int]


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
    """Run the three deciders (the normal subgroups are found once and
    stored on p), cross-check the implications, collect witnesses."""
    found = {key: decide(p, method, caps) for key, decide in
             (("uas", is_uas), ("gts", is_gts), ("gts_star", is_gts_star))}
    return SimplicityReport(
        **{key: flag for key, (flag, _) in found.items()},
        reduced=is_reduced(p),
        degenerate=p.order == 1,
        method=routes(method, oracle_refusal(p, caps) is None),
        witnesses={key: w for key, (_, w) in found.items() if w is not None},
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

    Derived mode twists every catalog base group G of that order; its
    classes are the orbits of the holomorph Hol(G) = G ⋊ Aut(G) on the
    valid twists (θ, b), since every isomorphism of twists of G is a right
    translation after an automorphism.  Exhaustive mode scans every
    operation table (tiny orders only) and keeps the ones passing the axiom
    check; its classes are the orbits of S_m relabelling the tables, since
    n-ary groups on one carrier are isomorphic exactly when a permutation
    of the carrier carries one table to the other.  Either way a class's
    representative is its first candidate.  Derived mode raises
    ValidationError at an order where the catalog holds fewer groups than
    OEIS A000001 counts, so it never under-counts; where both modes are
    feasible, the two censuses must coincide.
    """
    if mode == "derived":
        bases = groups_of_order(order)
        if not 1 <= order <= len(A000001) or len(bases) < A000001[order - 1]:
            raise ValidationError(
                f"the catalog lacks groups of order {order}; the census would under-count"
            )
        classes = [c for base in bases for c in _twist_classes(base, arity, caps)]
    else:
        _check_arity_order(arity, order, caps)
        # m^(m^n) tables of m^(2n−1) tuples each, m^e cells, named as a power and
        # counted while e·⌊log₂ m⌋ ≤ 64: past that, m^e exceeds every 64-bit cap
        m, n = int(order), int(arity)
        e = m**n + 2 * n - 1
        charge(caps, "axiom_cost_cap", m**e if e * (m.bit_length() - 1) <= 64 else None,
               f"the exhaustive census of order {m}, arity {n} ({m}^{e} cells)")
        flats = [
            flat for flat in itertools.product(range(order), repeat=order**arity)
            if verify_table_axioms(arity, order, flat, caps=caps).ok
        ]
        orbits = _orbit_classes(flats, flats, _relabellings(order, arity), lambda stray, key: (
            f"table {stray} is a relabelling of the valid table {key} but fails the axiom check"
        ))
        classes = [(from_table(arity, order, f, caps=caps, verify=False), k) for f, k in orbits]
    return [
        CensusEntry(rep, simplicity_report(rep, caps=caps), count)
        for rep, count in classes
    ]


def _orbit_classes(
    candidates: list[T], keys: list[K], moves: list[Callable[[K], K]],
    stray_message: Callable[[K, K], str],
) -> list[tuple[T, int]]:
    """(representative, orbit size) for the orbits of the moves on the
    candidates' keys, in candidate order: each orbit is walked from the key
    of its first candidate.  An orbit that reaches a key of no candidate
    raises InternalContradiction, with stray_message(stray key, key)."""
    index = set(keys)
    seen: set[K] = set()
    classes = []
    for cand, key in zip(candidates, keys):
        if key in seen:
            continue
        orbit = _orbit(key, moves)
        stray = orbit - index
        if stray:
            raise InternalContradiction(stray_message(min(stray), key))
        seen |= orbit
        classes.append((cand, len(orbit)))
    return classes


def _twist_classes(
    base: FiniteGroup, arity: int, caps: Caps
) -> list[tuple[PolyadicGroup, int]]:
    """(representative, orbit size) for the Hol(base)-orbits of the valid
    twists, in the order of all_derived; every twist an orbit reaches must
    be one of them."""
    candidates = all_derived(base, arity, caps=caps)
    keys = [(p.presentation.theta.perm, p.presentation.b) for p in candidates]
    moves = [
        partial(_transport_twist, base, arity, phi, g)
        for phi, g in _hol_generators(base, caps)
    ]
    return _orbit_classes(candidates, keys, moves, lambda stray, key: (
        f"twist {stray} of {base!r} is isomorphic to the valid twist {key} "
        f"but is not among the valid twists at arity {arity}"
    ))


def _relabellings(order: int, arity: int) -> list[Callable[[tuple], tuple]]:
    """The relabellings of a flat table by (0 1) and (0 1 … m−1), which
    generate S_m (one move at m = 2, none at m = 1).  σ carries f to f′
    with f′(σx₁,…,σxₙ) = σ(f(x₁,…,xₙ)): cell i of f′ is σ of the cell of f
    whose digits are σ⁻¹ of cell i's."""
    moves = []
    for sigma in {(1, 0, *range(2, order)), (*range(1, order), 0)} if order > 1 else ():
        cells = packed_tuples(np.argsort(sigma), order, arity).tolist()
        moves.append(partial(_relabel, sigma, cells))
    return moves


def _relabel(sigma: tuple[int, ...], cells: list[int], flat: tuple) -> tuple:
    return tuple([sigma[flat[i]] for i in cells])


def _transport_twist(
    base: FiniteGroup, arity: int, phi: tuple[int, ...], g: int, twist: Twist
) -> Twist:
    """The twist (θ′, b′) onto which ψ = R_g ∘ φ (ψ(x) = φ(x)·g, φ an
    automorphism of base) carries der(base, θ, b) = twist: with
    θ₁ = φθφ⁻¹, θ′(x) = g⁻¹·θ₁(x)·g and
    b′ = g⁻¹·θ₁(g⁻¹)·…·θ₁^(n−1)(g⁻¹)·φ(b)·g."""
    theta, b = twist
    t, gi = base.table, base.inverses[g]
    theta1 = [0] * base.order
    for x, y in enumerate(phi):
        theta1[y] = phi[theta[x]]
    acc, y = 0, gi
    for _ in range(arity):
        acc, y = t[acc][y], theta1[y]
    return tuple(t[t[gi][z]][g] for z in theta1), t[t[acc][phi[b]]][g]


def _hol_generators(
    base: FiniteGroup, caps: Caps = DEFAULT_CAPS
) -> list[tuple[tuple[int, ...], int]]:
    """Generators (φ, g) of Hol(base), each standing for ψ = R_g ∘ φ: a
    generating set of Aut(base) with g = 0, then one of base with φ the
    identity.  Stored on base; automorphisms checks the order cap on
    every call."""
    auts = automorphisms(base, caps=caps)
    identity = tuple(range(base.order))

    def build() -> list[tuple[tuple[int, ...], int]]:
        t = base.table
        perms = (a.perm for a in auts)
        phis = _generating_set(perms, identity, lambda a, b: tuple(a[y] for y in b))
        gs = _generating_set(range(base.order), 0, lambda a, b: t[a][b])
        return [(phi, 0) for phi in phis] + [(identity, g) for g in gs]

    return cached_on(base, "hol_generators", build)


def _generating_set(elements: Iterable[T], identity: T, mul: Callable[[T, T], T]) -> list[T]:
    """A generating set of the finite group of elements: each element
    outside the span of those kept so far is kept."""
    gens: list[T] = []
    span = {identity}
    for x in elements:
        if x not in span:
            gens.append(x)
            span = _orbit(identity, [partial(mul, g) for g in gens])
    return gens


def _orbit(start: T, moves: list[Callable[[T], T]]) -> set[T]:
    """Everything reached from start by the moves, which are bijections
    of a finite set."""
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen
