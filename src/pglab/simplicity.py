"""UAS / GTS / GTS* deciders and a small-order census of n-ary groups.

UAS: the only congruences are equality and the full relation.
GTS: every normal polyadic subgroup is a singleton or everything.
GTS*: the whole carrier is the only normal polyadic subgroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable, Iterable, Literal, Optional, TypeVar

import numpy as np

from .config import Caps, DEFAULT_CAPS, Strategy, cached_on, charge, oracle_refusal, routes
from .errors import InternalContradiction, MethodDisagreement, ValidationError
from .catalog import A000001, groups_of_order
from .congruence import Congruence, congruences, enumerate_normal_polyadic
from .groups import FiniteGroup, automorphisms, span
from .polyadic import (
    DerivedPresentation,
    PolyadicGroup,
    _check_arity_order,
    _valid_twists,
    from_table,
    is_reduced,
    packed_tuples,
    verify_table_axioms,
)
from .substructures import PolyadicSubgroup

T = TypeVar("T")


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
        index, moves = {flat: i for i, flat in enumerate(flats)}, _relabellings(order, arity)
        images = [np.array([index.get(move(f), -1) for f in flats], dtype=np.intp)
                  for move in moves]
        classes = [(from_table(arity, order, flats[i], caps=caps, verify=False), k)
                   for i, k in _orbit_classes(len(flats), images, lambda i, j: (
                       f"table {moves[j](flats[i])} is a relabelling of the valid table "
                       f"{flats[i]} but fails the axiom check"))]
    return [
        CensusEntry(rep, simplicity_report(rep, caps=caps), count)
        for rep, count in classes
    ]


def _orbit_classes(
    count: int, images: list[np.ndarray], stray_message: Callable[[int, int], str]
) -> list[tuple[int, int]]:
    """(first candidate, orbit size) per orbit, in candidate order; move j takes candidate i to
    images[j][i], −1 for none (InternalContradiction, stray_message(i, j)).  Labels fall to
    their images' least (the moves are bijections of a finite set, so forward images reach a
    whole orbit), then to their label's label (pointer jumping): at rest, each orbit's least."""
    strays = [(int((img < 0).argmax()), j) for j, img in enumerate(images) if (img < 0).any()]
    if strays:
        raise InternalContradiction(stray_message(*strays[0]))
    label, prev = np.arange(count), None
    while not np.array_equal(label, prev):
        least = reduce(np.minimum, [label[img] for img in images], label)
        label, prev = least[least], label
    reps = np.flatnonzero(label == np.arange(count))
    return list(zip(reps.tolist(), np.bincount(label, minlength=count)[reps].tolist()))


def _twist_classes(
    base: FiniteGroup, arity: int, caps: Caps
) -> list[tuple[PolyadicGroup, int]]:
    """(representative, orbit size) per Hol(base)-orbit of _valid_twists' index arrays, in
    all_derived's order, a PolyadicGroup built per representative alone: each generator of
    Hol(base) moves every twist at once (_transport), onto valid twists only."""
    auts, perms, thetas, bs = _valid_twists(base, arity, caps)
    m, rows = base.order, {row.tobytes(): i for i, row in enumerate(perms)}
    where = np.full(len(auts) * m, -1)
    where[thetas * m + bs] = np.arange(len(bs))
    images, moved = [], []
    for phi, g in _hol_generators(base, caps):
        theta2, b2 = _transport(base, arity, np.asarray(phi), g, perms, thetas, bs)
        aut = np.array([rows.get(row.tobytes(), -1) for row in theta2])[thetas]
        images.append(np.where(aut < 0, -1, where[aut * m + b2]))
        moved.append((theta2, b2))
    classes = _orbit_classes(len(bs), images, lambda i, j: (
        f"twist {(tuple(moved[j][0][thetas[i]].tolist()), int(moved[j][1][i]))} of {base!r} is "
        f"isomorphic to the valid twist {(auts[thetas[i]].perm, int(bs[i]))} "
        f"but is not among the valid twists at arity {arity}"))
    return [(PolyadicGroup(arity, DerivedPresentation(base, auts[thetas[i]], int(bs[i])),
                           base.name), k) for i, k in classes]


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


def _transport(
    base: FiniteGroup, arity: int, phi: np.ndarray, g: int,
    perms: np.ndarray, thetas: np.ndarray, bs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Where ψ = R_g ∘ φ (ψ(x) = φ(x)·g, φ ∈ Aut(base)) carries der(base, θ, b),
    by gathers: θ′ for each row θ of perms, b′ for each twist (perms[thetas[i]],
    bs[i]).  With θ₁ = φθφ⁻¹, ψ∘f∘(ψ⁻¹)ⁿ is der(base, θ′, b′) for
    θ′(x) = g⁻¹·θ₁(x)·g and b′ = g⁻¹·θ₁(g⁻¹)·…·θ₁^(n−1)(g⁻¹)·φ(b)·g."""
    t, gi = base.np_table, base.inverses[g]
    theta1 = phi[perms[:, np.argsort(phi)]]
    acc, y = np.zeros(len(perms), dtype=np.intp), np.full(len(perms), gi)
    for _ in range(arity):
        acc, y = t[acc, y], np.take_along_axis(theta1, y[:, None], axis=1)[:, 0]
    return t[t[gi, theta1], g], t[t[acc[thetas], phi[bs]], g]


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
    reached = {identity}
    for x in elements:
        if x not in reached:
            gens.append(x)
            reached = span(identity, [partial(mul, g) for g in gens])
    return gens
