"""Homomorphisms between polyadic groups and their right-translation splits.

Every polyadic homomorphism factors as an ordinary group homomorphism
followed by a right translation: psi(x) = phi(x) ∗ a, with two side
conditions tying a and phi to the twists of the two presentations.  Source
coordinates come from the group's own derived presentation (anchor-0
canonicalization for raw tables); target coordinates always use the
anchor-0 form so a split is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import Caps, DEFAULT_CAPS, Strategy, cross_check
from .errors import (
    ArityMismatch,
    ConditionViolated,
    CostCapExceeded,
    DecompositionFailed,
    ValidationError,
)
from .groups import FiniteGroup
from .polyadic import (
    HosszuGloskin,
    PolyadicGroup,
    derived_view,
    hg_anchor0,
    n_ary_identity,
    packed_tuples,
)


@dataclass(frozen=True)
class PolyadicHom:
    source: PolyadicGroup
    target: PolyadicGroup
    map: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.map[x]

    def is_bijective(self) -> bool:
        return sorted(self.map) == list(range(len(self.map)))

    def __repr__(self) -> str:
        return f"PolyadicHom({list(self.map)})"


@dataclass(frozen=True)
class HomDecomposition:
    """psi = (right translation by a) ∘ phi, in presentation coordinates."""

    a: int
    phi: tuple[int, ...]


def is_polyadic_hom(
    psi: Sequence[int],
    p: PolyadicGroup,
    q: PolyadicGroup,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive check of psi(f(xs)) = h(psi(xs)); returns first bad tuple."""
    if p.arity != q.arity:
        raise ArityMismatch(f"arities differ: {p.arity} vs {q.arity}")
    if len(psi) != p.order:
        raise ArityMismatch(f"map has {len(psi)} entries for order {p.order}")
    bad = [y for y in psi if not 0 <= y < q.order]
    if bad:
        raise ValidationError(f"images {bad} are outside the target carrier 0..{q.order - 1}")
    m, n = p.order, p.arity
    if m**n > caps.axiom_cost_cap:
        raise CostCapExceeded(
            f"hom check needs {m ** n} evaluations", required=m**n
        )
    psi_arr = np.asarray(psi, dtype=np.int64)
    lhs = psi_arr[p.flat_np]
    rhs = q.flat_np[packed_tuples(psi_arr, q.order, n)]
    if np.array_equal(lhs, rhs):
        return True, None
    flat_bad = int(np.argwhere(lhs != rhs)[0][0])
    return False, tuple(int(c) for c in np.unravel_index(flat_bad, (m,) * n))


def _check_conditions(
    src: HosszuGloskin, tgt: HosszuGloskin, a: int, phi: Sequence[int]
) -> Optional[str]:
    """The two split conditions; returns the name of the first failure."""
    h_group = tgt.base
    eta = tgt.theta
    diag = tgt.group.eval([a] * tgt.group.arity)
    if diag != h_group.mul(phi[src.b], a):
        return "anchor"
    theta = src.theta
    for x in range(src.base.order):
        if phi[theta(x)] != h_group.conj(a, eta(phi[x])):
            return "intertwine"
    return None


def _raw_map(
    src: HosszuGloskin, tgt: HosszuGloskin, a: int, phi: Sequence[int]
) -> tuple[int, ...]:
    """psi(x) = phi(x) ∗ a, taken back to the original carriers."""
    h_group = tgt.base
    return tuple(tgt.unrelabel[h_group.mul(phi[x], a)] for x in src.relabel)


def _is_binary_hom(g: FiniteGroup, h: FiniteGroup, phi: Sequence[int]) -> bool:
    return all(
        phi[g.mul(i, j)] == h.mul(phi[i], phi[j])
        for i in range(g.order)
        for j in range(g.order)
    )


@lru_cache(maxsize=None)
def binary_homs(g: FiniteGroup, h: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All group homomorphisms g → h by backtracking, lexicographic order."""
    mg, mh = g.order, h.order
    h_orders = h.element_orders
    g_orders = g.element_orders
    out: list[tuple[int, ...]] = []
    img = [0] * mg

    def consistent(k: int) -> bool:
        for i in range(k + 1):
            p = g.table[i][k]
            if p <= k and img[p] != h.table[img[i]][img[k]]:
                return False
            p = g.table[k][i]
            if p <= k and img[p] != h.table[img[k]][img[i]]:
                return False
        for i in range(k):
            for j in range(k):
                if g.table[i][j] == k and h.table[img[i]][img[j]] != img[k]:
                    return False
        return True

    def extend(k: int) -> None:
        if k == mg:
            out.append(tuple(img))
            return
        for y in range(mh):
            if g_orders[k] % h_orders[y] != 0:
                continue  # image order must divide source order
            img[k] = y
            if consistent(k):
                extend(k + 1)

    extend(1)
    return tuple(out)


def _splits(
    psi: PolyadicHom, caps: Caps
) -> Iterator[tuple[HomDecomposition, Optional[str]]]:
    """Every anchor a, the forced a = psi(identity) first, with the phi it
    leaves and the first failure of that split: None, "homomorphism" or the
    name of a side condition."""
    src, tgt = derived_view(psi.source, caps), hg_anchor0(psi.target, caps)
    h_group = tgt.base
    psi_t = [tgt.relabel[y] for y in psi.map]
    forced = psi_t[src.unrelabel[0]]
    for a in [forced] + [a for a in range(h_group.order) if a != forced]:
        a_inv = h_group.inv(a)
        phi = tuple(h_group.mul(psi_t[x], a_inv) for x in src.unrelabel)
        if not _is_binary_hom(src.base, h_group, phi):
            yield HomDecomposition(a, phi), "homomorphism"
        else:
            yield HomDecomposition(a, phi), _check_conditions(src, tgt, a, phi)


def decompositions(
    psi: PolyadicHom, caps: Caps = DEFAULT_CAPS
) -> list[HomDecomposition]:
    """Every valid (a, phi) split of a validated homomorphism.

    phi must fix identities, which pins a = psi(e); the scan over all a
    exists to record that no second split survives the conditions.
    """
    return [split for split, failure in _splits(psi, caps) if failure is None]


def decompose_hom(psi: PolyadicHom, caps: Caps = DEFAULT_CAPS) -> HomDecomposition:
    """The canonical split with a = psi(identity of the source presentation).

    phi has to fix identities, so a is forced; the split is validated
    against both side conditions before being returned.
    """
    split, failure = next(_splits(psi, caps))
    if failure == "homomorphism":
        raise DecompositionFailed(
            f"translated map of {list(psi.map)} is not a group homomorphism"
        )
    if failure is not None:
        raise DecompositionFailed(
            f"canonical split of {list(psi.map)} fails the {failure} condition"
        )
    return split


def compose_hom(
    a: int,
    phi: Sequence[int],
    p: PolyadicGroup,
    q: PolyadicGroup,
    caps: Caps = DEFAULT_CAPS,
) -> PolyadicHom:
    """Build psi = (translate by a) ∘ phi after validating both conditions.

    a and phi are given in presentation coordinates: phi maps the source
    presentation base into the anchor-0 base of the target.
    """
    src = derived_view(p, caps)
    tgt = hg_anchor0(q, caps)
    h_group = tgt.base
    phi_t = tuple(int(x) for x in phi)
    if not _is_binary_hom(src.base, h_group, phi_t):
        raise ConditionViolated("phi is not a group homomorphism")
    failure = _check_conditions(src, tgt, a, phi_t)
    if failure == "anchor":
        raise ConditionViolated(
            "anchor condition fails: h(a,...,a) differs from phi(b)∗a"
        )
    if failure == "intertwine":
        raise ConditionViolated(
            "intertwine condition fails: phi∘theta differs from I_a∘eta∘phi"
        )
    psi = PolyadicHom(p, q, _raw_map(src, tgt, a, phi_t))
    ok, witness = is_polyadic_hom(psi.map, p, q, caps)
    if not ok:
        raise DecompositionFailed(
            f"valid (a, phi) produced a non-homomorphism at {witness}"
        )
    return psi


def _oracle_hom_maps(
    p: PolyadicGroup, q: PolyadicGroup, caps: Caps
) -> list[tuple[int, ...]]:
    """Vectorized scan of all |Q|^|P| candidate maps.

    Staged necessary filters (diagonal images, skew images, edge products)
    cut the pool to a handful before the complete per-map check runs.
    """
    mp, mq, n = p.order, q.order, p.arity
    total = mq**mp
    if total > caps.hom_oracle_cap:
        raise CostCapExceeded(
            f"oracle scan of {total} maps exceeds cap {caps.hom_oracle_cap}",
            required=total,
        )
    idx = np.arange(total)
    maps = np.empty((total, mp), dtype=np.int16)
    for i in range(mp):
        maps[:, i] = (idx // mq ** (mp - 1 - i)) % mq
    alive = np.ones(total, dtype=bool)

    p_diag = [p.eval([x] * n) for x in range(mp)]
    q_diag = np.asarray([q.eval([y] * n) for y in range(mq)])
    for x in range(mp):
        alive &= q_diag[maps[:, x]] == maps[:, p_diag[x]]
    p_skew = p.skew_table
    q_skew = np.asarray(q.skew_table)
    for x in range(mp):
        alive &= q_skew[maps[:, x]] == maps[:, p_skew[x]]
    p_edge = p.edge_table
    q_cube = q.cube
    mid = (n - 2)
    for x in range(mp):
        col_x = maps[:, x]
        for y in range(mp):
            target = maps[:, p_edge[x][y]]
            args = (col_x,) + (maps[:, 0],) * mid + (maps[:, y],)
            alive &= q_cube[args] == target
            if not alive.any():
                return []

    survivors = []
    for row in maps[alive]:
        candidate = tuple(int(v) for v in row)
        ok, _ = is_polyadic_hom(candidate, p, q, caps)
        if ok:
            survivors.append(candidate)
    survivors.sort()
    return survivors


def _split_maps(
    p: PolyadicGroup, q: PolyadicGroup, caps: Caps, bijective: bool = False
) -> Iterator[tuple[int, ...]]:
    """psi = R_a ∘ phi for every binary homomorphism phi (the bijective
    ones only, if asked) and every anchor a passing both conditions."""
    src = derived_view(p, caps)
    tgt = hg_anchor0(q, caps)
    full = list(range(q.order))
    for phi in binary_homs(src.base, tgt.base):
        if bijective and sorted(phi) != full:
            continue
        for a in range(q.order):
            if _check_conditions(src, tgt, a, phi) is None:
                yield _raw_map(src, tgt, a, phi)


def enumerate_homs(
    p: PolyadicGroup,
    q: PolyadicGroup,
    strategy: Strategy = "auto",
    caps: Caps = DEFAULT_CAPS,
) -> list[PolyadicHom]:
    """All homomorphisms p → q, sorted by the map tuple.

    The theorem route crosses binary homomorphisms with valid anchors; the
    oracle scans raw maps.  Auto runs both when the scan fits the cap and
    insists they agree.
    """
    if p.arity != q.arity:
        raise ArityMismatch(f"arities differ: {p.arity} vs {q.arity}")
    maps = cross_check(
        "hom enumeration",
        strategy,
        lambda: sorted(_split_maps(p, q, caps)),
        lambda: _oracle_hom_maps(p, q, caps),
        q.order**p.order <= caps.hom_oracle_cap,
    )
    return [PolyadicHom(p, q, m) for m in maps]


def hom_compose(outer: PolyadicHom, inner: PolyadicHom) -> PolyadicHom:
    if inner.target != outer.source:
        raise ArityMismatch("middle structures differ")
    return PolyadicHom(
        inner.source, outer.target, tuple(outer.map[y] for y in inner.map)
    )


def _iso_invariants(p: PolyadicGroup) -> tuple:
    skew_fixed = sum(1 for x in range(p.order) if p.skew(x) == x)
    return (
        p.order,
        p.arity,
        n_ary_identity(p) is not None,
        skew_fixed,
        len(p.idempotents()),
    )


def are_isomorphic(
    p: PolyadicGroup, q: PolyadicGroup, caps: Caps = DEFAULT_CAPS
) -> Optional[PolyadicHom]:
    """The smallest bijective homomorphism in map order, or None.

    Cheap invariants (order, arity, identity presence, skew fixed points,
    idempotent count) prune before the bijection search; the search itself
    crosses bijective binary homomorphisms with valid anchors.
    """
    if p.arity != q.arity or p.order != q.order:
        return None
    if _iso_invariants(p) != _iso_invariants(q):
        return None
    best = min(_split_maps(p, q, caps, bijective=True), default=None)
    return PolyadicHom(p, q, best) if best is not None else None
