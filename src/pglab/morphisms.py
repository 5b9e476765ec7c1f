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

from .config import Caps, DEFAULT_CAPS, Strategy, cached_on, charge, cross_check, refusal
from .errors import (
    ArityMismatch,
    CapExceeded,
    ConditionViolated,
    DecompositionFailed,
)
from .groups import FiniteGroup, hom_rows
from .polyadic import (
    HosszuGloskin,
    PolyadicGroup,
    hg_anchor0,
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
        """Whether the map hits each element of the target's carrier exactly once."""
        return sorted(self.map) == list(range(self.target.order))

    def __repr__(self) -> str:
        return f"PolyadicHom({list(self.map)})"


@dataclass(frozen=True)
class HomDecomposition:
    """psi = (right translation by a) ∘ phi, in presentation coordinates."""

    a: int
    phi: tuple[int, ...]


def _rows_hold(maps: np.ndarray, q: PolyadicGroup, rows: np.ndarray) -> np.ndarray:
    """For each row of maps (column x holds the image of label x: a source
    element in the hom check, a frontier step in the oracle's plan),
    whether h(psi(t)) = psi(f(t)) on every tuple of rows, whose n+1 lines
    are the tuples' arguments and then their values f(t), in those
    labels.  h is read by one q.eval_many a block: no m^n table of q is
    built."""
    args, image = rows[:-1], rows[-1]
    return np.concatenate([
        (q.eval_many(block[:, args].transpose(1, 0, 2)) == block[:, image]).all(axis=1)
        for block in row_blocks(maps, len(image))
    ])


def _oracle_refusal(p: PolyadicGroup, q: PolyadicGroup, caps: Caps) -> Optional[CapExceeded]:
    """Why the hom oracle may not run from p to q, or None: its |Q|^|P| maps
    must fit hom_oracle_cap.  It reads p through _scan_rows and q through
    eval_many, so no table of either side is charged."""
    return refusal(caps, "hom_oracle_cap", q.order**p.order, "the hom oracle's scan")


def _check_shape(psi: Sequence[int], p: PolyadicGroup, q: PolyadicGroup) -> None:
    """The shape every map p → q must have, checked before its images
    (q._in_carrier): p and q of different arities, or a map of another
    length than p's order, raise ArityMismatch."""
    if p.arity != q.arity:
        raise ArityMismatch(f"arities differ: {p.arity} vs {q.arity}")
    if len(psi) != p.order:
        raise ArityMismatch(f"map has {len(psi)} entries for order {p.order}")


def is_polyadic_hom(
    psi: Sequence[int],
    p: PolyadicGroup,
    q: PolyadicGroup,
    caps: Caps = DEFAULT_CAPS,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Whether psi(f(t)) = h(psi(t)) for every tuple t, with the failing
    tuple of p's stored rows first in largest-entry order (_scan_rows,
    whose (A_1) rows decide: the check reads the n-ary group axioms of
    both, not the split), or None.

    The m² + 2m rows are charged to axiom_cost_cap before they are built,
    and h is read by one q.eval_many on them: no m^n table of either side
    is built.  A map the hom oracle found for the pair has passed these
    very rows, and is a hom with nothing evaluated (_hom_check).  The map
    is checked first: its shape (_check_shape, ArityMismatch), then its
    images, integers in q's carrier (q._in_carrier, ValidationError; a
    flat tuple or list of ints is read without numpy, as a tuple)."""
    _check_shape(psi, p, q)
    return _hom_check(q._in_carrier(psi), p, q, caps)


def _hom_check(
    psi: tuple[int, ...], p: PolyadicGroup, q: PolyadicGroup, caps: Caps
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """is_polyadic_hom on a map already checked, given as its images.  The
    rows are charged first; then a map in the hom oracle's stored answer
    p → q (_oracle_hom_maps) is a hom, since the oracle kept it only after
    it passed every one of these rows, and any other map, or any map of a
    pair the oracle never scanned, is read by one q.eval_many.  Its witness
    is the failing tuple whose column, f(t) included, has the smallest
    largest entry, the first such stored: the first a stable sort by
    largest entry would give."""
    m = p.order
    charge(caps, "axiom_cost_cap", m * m + 2 * m, "the hom check")
    if psi in p.__dict__.get("oracle_homs", {}).get(q, ()):
        return True, None
    cols = _scan_rows(p)[0]
    images = np.asarray(psi)[cols]
    bad = np.flatnonzero(q.eval_many(images[:-1]) != images[-1])
    if not len(bad):
        return True, None
    first = bad[np.argmin(cols[:, bad].max(axis=0))]
    return False, tuple(cols[:-1, first].tolist())


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
    images = tgt.base.np_table[phis[:, src.np_relabel], anchors[:, None]]
    return [tuple(m) for m in tgt.np_unrelabel[images].tolist()]


def binary_homs(g: FiniteGroup, h: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """All group homomorphisms g → h, in lexicographic order."""
    return tuple(map(tuple, hom_rows(g, h).tolist()))


def _stored_map(p: PolyadicGroup, q: PolyadicGroup, split: tuple) -> Optional[tuple[int, ...]]:
    """The map with this split (a, phi) in the theorem route's table p → q,
    or None, read from the table's reverse view: built on the first call
    for an enumerated pair, keyed by the table's own splits, and stored on
    p next to it.  A pair never enumerated gets no view."""
    table = p.__dict__.get("split_tables", {}).get(q)
    if table is None:
        return None
    views = cached_on(p, "split_views", dict)
    if q not in views:
        views[q] = {s: psi for psi, s in table.items()}
    return views[q].get(split)


def decompose_hom(psi: PolyadicHom) -> HomDecomposition:
    """The canonical split with a = psi(identity of the source presentation).

    phi has to fix identities, so a is forced and phi = psi ∗ a⁻¹.  Once
    the map's shape and images are checked (a bool or a float is refused
    before any lookup), a map the theorem route has enumerated for its
    pair is read from the stored table; any other split is validated
    against both side conditions before being returned.
    """
    p, q = psi.source, psi.target
    _check_shape(psi.map, p, q)
    images = q._in_carrier(psi.map)
    stored = p.__dict__.get("split_tables", {}).get(q, {}).get(images)
    if stored is not None:
        return HomDecomposition(*stored)
    src, tgt = p.view, hg_anchor0(q)
    h_group = tgt.base
    psi_t = tgt.np_relabel[np.asarray(images)[src.np_unrelabel]]
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
    presentation base into the anchor-0 base of the target.  Both are
    checked before any split is looked up: phi's shape (_check_shape,
    ArityMismatch), then a and phi's images, integers in q's carrier
    (ValidationError).  A split in the theorem route's stored table p → q
    (_stored_map) gives its map with both conditions known to hold; any
    other builds its map and has the conditions derived.  The hom check
    (_hom_check) always runs on the map: its rows are charged, and a map
    the hom oracle found for the pair is a hom with nothing evaluated.
    """
    _check_shape(phi, p, q)
    split = q._in_carrier([a, *phi])
    a, phi = split[0], split[1:]
    psi_map = _stored_map(p, q, (a, phi))
    if psi_map is None:
        src, tgt = p.view, hg_anchor0(q)
        phi_t = np.asarray(phi)
        (psi_map,) = _raw_maps(src, tgt, phi_t[None], np.asarray([a]))
        failure = _split_failure(src, tgt, a, phi_t)
        if failure is not None:
            raise ConditionViolated({
                "homomorphism": "phi is not a group homomorphism",
                "anchor": "anchor condition fails: h(a,...,a) differs from phi(b)∗a",
                "intertwine": "intertwine condition fails: phi∘theta differs from I_a∘eta∘phi",
            }[failure])
    ok, witness = _hom_check(psi_map, p, q, caps)
    if not ok:
        raise DecompositionFailed(
            f"valid (a, phi) produced a non-homomorphism at {witness}"
        )
    return PolyadicHom(p, q, psi_map)


def _scan_rows(
    p: PolyadicGroup,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]:
    """The tuples t of p a hom check reads, as one (n+1)×R array of the
    columns (t, f(t)) in the smallest unsigned dtype holding m − 1, with the
    frontier's plan: the step that assigns each element (None when it is
    the element itself), the same columns relabelled by step and ordered
    stably by their last step, and the offsets of the steps (the columns
    of step k are offsets[k]:offsets[k+1]).  Stored on p.

    The tuples are the diagonal (x,…,x), the skew tuples (x,…,x,skew(x))
    and Post's (A_1) with u = 0 and ū = skew(0) (E. L. Post, "Polyadic
    groups", Trans. AMS 48, 1940): (x, y, 0^(n−3), ū), at arity 2 (B)
    (x, y).  A map between n-ary groups is a hom exactly when it commutes
    with f on these m² tuples (CHANGES.md proves it under "Post's lemma for
    the hom check"); the diagonal and skew tuples only prune the scan
    earlier.  Every (A_1) row reads 0 and ū, so the frontier assigns 0,
    then ū, then the rest ascending, and those rows prune from its second
    step (at arity 2 only the skew row (0, ū) does); the order is natural
    when ū ≤ 1.  f(t) is one p.eval_many: no m^n table is built."""
    return cached_on(p, "hom_scan_rows", lambda: _build_scan_rows(p))


def _build_scan_rows(
    p: PolyadicGroup,
) -> tuple[np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]:
    m, n = p.order, p.arity
    diagonal = np.broadcast_to(np.arange(m), (n, m))
    skew = np.vstack([diagonal[1:], p.skew_table])
    post = np.zeros((n, m * m), dtype=np.intp)
    post[-1], post[:2] = p.skew_table[0], np.divmod(np.arange(m * m), m)  # at arity 2 y overwrites ū
    args = np.hstack([diagonal, skew, post])
    cols = np.vstack([args, p.eval_many(args)]).astype(np.min_scalar_type(m - 1))
    u_bar, step_of, plan = int(p.skew_table[0]), None, cols
    if u_bar > 1:
        step_of = np.arange(m, dtype=cols.dtype) + (np.arange(m) < u_bar)
        step_of[[0, u_bar]] = 0, 1
        plan = step_of[cols]
    steps = plan.max(axis=0)
    order = np.argsort(steps, kind="stable")
    return cols, step_of, plan[:, order], np.searchsorted(steps[order], np.arange(m + 1))


def _oracle_hom_maps(
    p: PolyadicGroup, q: PolyadicGroup, caps: Caps
) -> list[tuple[int, ...]]:
    """The hom oracle's answer p → q, sorted: the gate (_oracle_refusal),
    which refuses before any map is built, on every call, then the
    frontier scan (_frontier_homs) once per pair.  The answer is stored on
    p, keyed by q, so that a second enumeration of the pair is a lookup
    and the hom check (_hom_check) reads it; the theorem route never
    writes it."""
    refusal = _oracle_refusal(p, q, caps)
    if refusal:
        raise refusal
    answers = cached_on(p, "oracle_homs", dict)
    if q not in answers:
        answers[q] = dict.fromkeys(_frontier_homs(p, q))  # ordered, and a set for _hom_check
    return list(answers[q])


def _frontier_homs(p: PolyadicGroup, q: PolyadicGroup) -> list[tuple[int, ...]]:
    """Frontier scan of the |Q|^|P| candidate maps.

    The partial maps are extended one source element at a time in the
    order of p's plan (_scan_rows): 0 (Post's u), then ū, then the rest.
    After each step the rows it completes, f(t) included, are checked at
    once and the violating maps dropped, so the survivors do not depend on
    the order; a map that passes the last step commutes with f on every
    row, Post's (A_1) tuples among them, so it is a hom.  Each column is
    extended in order, so the maps come out sorted by their images in
    assignment order; put back in element order they stay sorted, as two
    homs that agree at 0 agree at ū, which a hom maps to skew(ψ(0)) (a
    skew row).  The scan never consults the theorem route, and q is read
    by eval_many alone (_rows_hold).
    """
    mq = q.order
    _, step_of, plan, offsets = _scan_rows(p)
    maps = np.zeros((1, 0), dtype=np.int16)
    for k in range(p.order):
        grown = np.empty((len(maps), mq, k + 1), dtype=np.int16)
        grown[:, :, :k] = maps[:, None, :]
        grown[:, :, k] = np.arange(mq)
        maps = grown.reshape(-1, k + 1)
        maps = maps[_rows_hold(maps, q, plan[:, offsets[k] : offsets[k + 1]])]
        if not len(maps):
            return []
    if step_of is not None:
        maps = maps[:, step_of]
    return [tuple(row) for row in maps.tolist()]


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
    scans raw maps: a frontier of partial maps, assigned 0, then ū =
    skew(0), then the rest, pruned on p's stored rows (_scan_rows) as each
    step completes them, whose Post family decides, so a leaf is a hom; it
    stores its answer on p (_oracle_hom_maps), and the hom check of
    compose_hom and is_polyadic_hom reads it instead of evaluating those
    maps.  Auto runs both when the oracle's gate (_oracle_refusal: |Q|^|P|
    maps within hom_oracle_cap) admits the pair, and insists they agree;
    outside it the theorem runs alone.
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


def are_isomorphic(p: PolyadicGroup, q: PolyadicGroup) -> Optional[PolyadicHom]:
    """The smallest bijective homomorphism in map order, or None: for equal
    orders and arities, the bijection search alone, the injective binary
    homomorphisms crossed with the anchors that pass both split conditions.
    """
    if p.arity != q.arity or p.order != q.order:
        return None
    best = min((psi for psi, _ in _split_maps(p, q, bijective=True)), default=None)
    return PolyadicHom(p, q, best) if best is not None else None
