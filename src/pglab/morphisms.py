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
from typing import Iterator, Optional, Sequence

import numpy as np

from .config import Caps, DEFAULT_CAPS, Strategy, cached_on, cross_check, refusal
from .errors import (
    ArityMismatch,
    CapExceeded,
    ConditionViolated,
    DecompositionFailed,
    ValidationError,
)
from .groups import FiniteGroup, hom_rows
from .polyadic import (
    HosszuGloskin,
    PolyadicGroup,
    hg_anchor0,
    n_ary_identity,
    packed_tuples,
    row_blocks,
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


def _rows_hold(maps: np.ndarray, q: PolyadicGroup, rows: np.ndarray) -> np.ndarray:
    """For each row of maps (column x holds the image of source element x),
    whether h(psi(t)) = psi(f(t)) on every tuple of rows, whose n+1 lines
    are the tuples' arguments and then their values f(t)."""
    args, image = rows[:-1], rows[-1]
    weights = q.order ** np.arange(len(args) - 1, -1, -1)[:, None]
    return np.concatenate([
        (q.flat_np[(block[:, args] * weights).sum(axis=1)] == block[:, image]).all(axis=1)
        for block in row_blocks(maps, len(image))
    ])


def _oracle_refusal(
    p: PolyadicGroup, q: PolyadicGroup, caps: Caps, scan: bool = True
) -> Optional[CapExceeded]:
    """Why the hom oracle may not run from p to q, or None: its |Q|^|P| maps
    must fit hom_oracle_cap (unless scan is False, for a one-map check), and
    the cells of the two m^n tables it reads axiom_cost_cap."""
    return (scan and refusal(caps, "hom_oracle_cap", q.order**p.order, "the hom oracle's scan")
            or refusal(caps, "axiom_cost_cap", max(p.order, q.order) ** p.arity, "the hom check"))


def is_polyadic_hom(
    psi: Sequence[int],
    p: PolyadicGroup,
    q: PolyadicGroup,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Exhaustive check of psi(f(xs)) = h(psi(xs)); returns first bad tuple.

    h(psi(xs)) for every xs is q's table gathered at psi along each of its
    n axes; the hom oracle runs the same check on many maps at once."""
    if p.arity != q.arity:
        raise ArityMismatch(f"arities differ: {p.arity} vs {q.arity}")
    if len(psi) != p.order:
        raise ArityMismatch(f"map has {len(psi)} entries for order {p.order}")
    bad = [y for y in psi if not 0 <= y < q.order]
    if bad:
        raise ValidationError(f"images {bad} are outside the target carrier 0..{q.order - 1}")
    refusal = _oracle_refusal(p, q, caps, scan=False)
    if refusal:
        raise refusal
    psi_np, image = np.asarray(psi, dtype=q.flat_np.dtype), q.cube
    for k in range(p.arity):
        image = image.take(psi_np, axis=k)
    bad = (image.ravel() != psi_np.take(p.flat_np)).nonzero()[0]
    if not len(bad):
        return True, None
    return False, tuple(int(c) for c in np.unravel_index(bad[0], image.shape))


def _condition_masks(
    src: HosszuGloskin, tgt: HosszuGloskin, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two split conditions for every anchor a at once, a on the last
    axis: h(a,...,a) = phi(b)∗a, and phi∘theta = I_a∘eta∘phi (I_a the
    conjugation by a).  phi is one map or a stack of maps (rows)."""
    anchor = tgt.group.diagonal == tgt.base.np_table[phi[..., src.b]]
    conj_eta_phi = tgt.base.conj_table.T[tgt.theta.np_perm[phi]]
    intertwine = (conj_eta_phi == phi[..., src.theta.np_perm, None]).all(axis=-2)
    return anchor, intertwine


def _split_failure(
    src: HosszuGloskin, tgt: HosszuGloskin, a: int, phi: np.ndarray
) -> Optional[str]:
    """The first failure of the split psi = R_a ∘ phi: "homomorphism" when
    phi is no group homomorphism, else the side condition that column a of
    _condition_masks fails, "anchor" or "intertwine"; None when all hold."""
    g, h = src.base, tgt.base
    if not (phi[g.np_table] == h.np_table[phi[:, None], phi]).all():
        return "homomorphism"
    anchor, intertwine = _condition_masks(src, tgt, phi)
    if not anchor[a]:
        return "anchor"
    if not intertwine[a]:
        return "intertwine"
    return None


def _raw_maps(
    src: HosszuGloskin, tgt: HosszuGloskin, phis: np.ndarray, anchors: np.ndarray
) -> list[tuple[int, ...]]:
    """psi(x) = phi(x) ∗ a for each row phi of phis and its anchor a, taken
    back to the original carriers."""
    images = tgt.base.np_table[phis[:, src.relabel], anchors[:, None]]
    return [tuple(m) for m in np.asarray(tgt.unrelabel)[images].tolist()]


def binary_homs(g: FiniteGroup, h: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All group homomorphisms g → h, in lexicographic order."""
    return tuple(map(tuple, hom_rows(g, h).tolist()))


def _stored_split(
    p: PolyadicGroup, q: PolyadicGroup, psi: tuple[int, ...]
) -> Optional[tuple[int, tuple[int, ...]]]:
    """psi's split (a, phi) in the theorem route's table p → q, or None when
    that pair was never enumerated by the theorem route or psi is not in
    its table.  Reads the table and never builds it."""
    return p.__dict__.get("split_tables", {}).get(q, {}).get(psi)


def decompose_hom(psi: PolyadicHom) -> HomDecomposition:
    """The canonical split with a = psi(identity of the source presentation).

    phi has to fix identities, so a is forced and phi = psi ∗ a⁻¹.  A map
    the theorem route has enumerated for its pair is read from the stored
    table; any other split is validated against both side conditions
    before being returned.
    """
    p, q = psi.source, psi.target
    if p.arity != q.arity:
        raise ArityMismatch(f"arities differ: {p.arity} vs {q.arity}")
    images = tuple(map(int, psi.map))
    if len(images) != p.order or min(images) < 0 or max(images) >= q.order:
        raise ValidationError(
            f"need {p.order} images in the target carrier 0..{q.order - 1}, got {list(psi.map)}"
        )
    stored = _stored_split(p, q, images)
    if stored is not None:
        return HomDecomposition(*stored)
    src, tgt = p.view, hg_anchor0(q)
    h_group = tgt.base
    psi_t = np.asarray([tgt.relabel[images[x]] for x in src.unrelabel])
    a = int(psi_t[0])
    phi = h_group.np_table[psi_t, h_group.inv(a)]
    failure = _split_failure(src, tgt, a, phi)
    if failure is not None:
        raise DecompositionFailed(
            f"translated map of {list(psi.map)} is not a group homomorphism"
            if failure == "homomorphism"
            else f"canonical split of {list(psi.map)} fails the {failure} condition"
        )
    return HomDecomposition(a, tuple(phi.tolist()))


def compose_hom(
    a: int,
    phi: Sequence[int],
    p: PolyadicGroup,
    q: PolyadicGroup,
    caps: Caps = DEFAULT_CAPS,
) -> PolyadicHom:
    """Build psi = (translate by a) ∘ phi after validating both conditions.

    a and phi are given in presentation coordinates: phi maps the source
    presentation base into the anchor-0 base of the target.  The conditions
    are not re-derived when the theorem route's stored table p → q holds
    the built map with this very split; the complete check always runs.
    """
    src, tgt = p.view, hg_anchor0(q)
    images = [int(x) for x in phi]
    if len(images) != p.order or not all(0 <= y < q.order for y in [a, *images]):
        raise ValidationError(
            f"need a and {p.order} images of phi in the target carrier 0..{q.order - 1}"
        )
    phi_t = np.asarray(images)
    (psi_map,) = _raw_maps(src, tgt, phi_t[None], np.asarray([a]))
    if _stored_split(p, q, psi_map) != (a, tuple(images)):
        failure = _split_failure(src, tgt, a, phi_t)
        if failure is not None:
            raise ConditionViolated({
                "homomorphism": "phi is not a group homomorphism",
                "anchor": "anchor condition fails: h(a,...,a) differs from phi(b)∗a",
                "intertwine": "intertwine condition fails: phi∘theta differs from I_a∘eta∘phi",
            }[failure])
    psi = PolyadicHom(p, q, psi_map)
    ok, witness = is_polyadic_hom(psi.map, p, q, caps)
    if not ok:
        raise DecompositionFailed(
            f"valid (a, phi) produced a non-homomorphism at {witness}"
        )
    return psi


def _scan_rows(p: PolyadicGroup) -> list[Optional[np.ndarray]]:
    """The diagonal (x,...,x), skew (x,...,x,skew(x)) and edge (x,0,...,0,y)
    tuples of p, each as the n+1 columns (t, f(t)), grouped by the largest
    element among them: the step of the scan at which all are assigned.
    Stored on p."""
    return cached_on(p, "hom_scan_rows", lambda: _build_scan_rows(p))


def _build_scan_rows(p: PolyadicGroup) -> list[Optional[np.ndarray]]:
    n = p.arity
    rows = {(x,) * n + (d,) for x, d in enumerate(p.diagonal.tolist())}
    rows |= {(x,) * (n - 1) + (s, x) for x, s in enumerate(p.skew_table)}
    edge = p.cube[(slice(None),) + (0,) * (n - 2) + (slice(None),)]
    rows |= {
        (x,) + (0,) * (n - 2) + (y, e)
        for x, row in enumerate(edge.tolist())
        for y, e in enumerate(row)
    }
    by_step: list[list[tuple[int, ...]]] = [[] for _ in range(p.order)]
    for row in sorted(rows):
        by_step[max(row)].append(row)
    return [np.asarray(step).T if step else None for step in by_step]


def _oracle_hom_maps(
    p: PolyadicGroup, q: PolyadicGroup, caps: Caps
) -> list[tuple[int, ...]]:
    """Frontier scan of the |Q|^|P| candidate maps, then the complete check.

    The partial maps are extended one source element at a time, 0 first
    (the middle argument of every edge tuple).  After each step the rows
    whose diagonal, skew or edge tuple has just been fully assigned are
    checked at once and the violating rows dropped.  The surviving total
    maps get the complete check on every tuple, in blocks.  Columns are
    assigned in order and each row is extended by its images in order, so
    the maps come out sorted.  The scan never consults the theorem route;
    the oracle's gate refuses before any table is read.
    """
    refusal = _oracle_refusal(p, q, caps)
    if refusal:
        raise refusal
    mp, mq, n = p.order, q.order, p.arity
    maps = np.zeros((1, 0), dtype=np.int16)
    for k, rows in enumerate(_scan_rows(p)):
        grown = np.empty((len(maps), mq, k + 1), dtype=np.int16)
        grown[:, :, :k] = maps[:, None, :]
        grown[:, :, k] = np.arange(mq)
        maps = grown.reshape(-1, k + 1)
        if rows is not None:
            maps = maps[_rows_hold(maps, q, rows)]
        if not len(maps):
            return []
    holds = [
        (q.flat_np[packed_tuples(block, mq, n)] == np.take(block, p.flat_np, axis=1)).all(axis=1)
        for block in row_blocks(maps, mp**n)
    ]
    return [tuple(row) for row in maps[np.concatenate(holds)].tolist()]


def _split_maps(
    p: PolyadicGroup, q: PolyadicGroup, bijective: bool = False
) -> Iterator[tuple[tuple[int, ...], tuple[int, tuple[int, ...]]]]:
    """Each psi = R_a ∘ phi with its split (a, phi), for every binary
    homomorphism phi (the injective ones only, if bijective maps are asked
    for: the callers have checked that the orders are equal) and every
    anchor a passing both conditions, the conditions tested for all a at
    once."""
    src, tgt = p.view, hg_anchor0(q)
    phis = hom_rows(src.base, tgt.base, injective=bijective)
    for block in row_blocks(phis, p.order * q.order):
        anchor, intertwine = _condition_masks(src, tgt, block)
        rows, anchors = np.nonzero(anchor & intertwine)
        phi_rows = [tuple(phi) for phi in block.tolist()]
        splits = zip(anchors.tolist(), [phi_rows[r] for r in rows.tolist()])
        yield from zip(_raw_maps(src, tgt, block[rows], anchors), splits)


def _split_table(
    p: PolyadicGroup, q: PolyadicGroup
) -> dict[tuple[int, ...], tuple[int, tuple[int, ...]]]:
    """The theorem route's answer p → q: every hom's map, in map order, with
    its split (a, phi).  Stored on p, keyed by q, so that enumerating the
    pair again and splitting its homs are lookups."""
    tables = cached_on(p, "split_tables", dict)
    if q not in tables:
        tables[q] = dict(sorted(_split_maps(p, q)))
    return tables[q]


def enumerate_homs(
    p: PolyadicGroup,
    q: PolyadicGroup,
    strategy: Strategy = "auto",
    caps: Caps = DEFAULT_CAPS,
) -> list[PolyadicHom]:
    """All homomorphisms p → q, sorted by the map tuple.

    The theorem route crosses binary homomorphisms with the anchors that
    pass both split conditions, and stores each map's split on p
    (_split_table) for decompose_hom and compose_hom to read.  The oracle
    scans raw maps: a frontier of partial maps pruned on the diagonal, skew
    and edge tuples, then the complete check on every leaf.  Auto runs both
    when the oracle's gate (_oracle_refusal: |Q|^|P| maps within
    hom_oracle_cap, both tables within axiom_cost_cap) admits the pair, and
    insists they agree; outside it the theorem runs alone.
    """
    if p.arity != q.arity:
        raise ArityMismatch(f"arities differ: {p.arity} vs {q.arity}")
    maps = cross_check(
        "hom enumeration",
        strategy,
        lambda: list(_split_table(p, q)),
        lambda: _oracle_hom_maps(p, q, caps),
        _oracle_refusal(p, q, caps) is None,
    )
    return [PolyadicHom(p, q, m) for m in maps]


def _iso_invariants(p: PolyadicGroup) -> tuple:
    # stored on p: a structure compared with many others computes them once
    return cached_on(p, "iso_invariants", lambda: (
        p.order,
        p.arity,
        n_ary_identity(p) is not None,
        sum(1 for x in range(p.order) if p.skew(x) == x),
        len(p.idempotents()),
    ))


def are_isomorphic(p: PolyadicGroup, q: PolyadicGroup) -> Optional[PolyadicHom]:
    """The smallest bijective homomorphism in map order, or None.

    Cheap invariants (order, arity, identity presence, skew fixed points,
    idempotent count) prune before the bijection search; the search itself
    crosses the injective binary homomorphisms with valid anchors.
    """
    if p.arity != q.arity or p.order != q.order:
        return None
    if _iso_invariants(p) != _iso_invariants(q):
        return None
    best = min((psi for psi, _ in _split_maps(p, q, bijective=True)), default=None)
    return PolyadicHom(p, q, best) if best is not None else None
