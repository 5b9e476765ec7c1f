"""Polyadic subgroups, normality and cosets.

The theorem route reads the view der(G, θ, b): H is a polyadic subgroup
exactly when, for u in H, H·u⁻¹ is a subgroup of G that psi_u = conj(u)∘θ
maps onto itself (the twist of the copy of G anchored at u, relabelled by
x ↦ x·u⁻¹ onto G itself) and that holds the anchor constant f(u,…,u)·u⁻¹.
The normal polyadic subgroups' theorem route reads the kernel table
(congruence.enumerate_normal_polyadic); their oracle scan, the twist
criterion for one H and the cosets stay here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import Caps, DEFAULT_CAPS, Strategy, cached_on, cross_check, oracle_refusal
from .errors import NoSolution, NotNormal
from .groups import invariant_subgroups
from .polyadic import PolyadicGroup, row_blocks


@dataclass(frozen=True)
class PolyadicSubgroup:
    """A subset closed under the n-ary operation and under skew."""

    members: tuple[int, ...]
    ambient: PolyadicGroup

    @property
    def size(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"PolyadicSubgroup({list(self.members)})"


def _members(p: PolyadicGroup, h: PolyadicSubgroup | Iterable[int]) -> tuple[int, ...]:
    """The sorted members of h, refused unless each is an integer in 0..m-1 (p._in_carrier)."""
    members = h.members if isinstance(h, PolyadicSubgroup) else tuple(sorted(h))
    return p._in_carrier(members) if members else ()


def _closed(p: PolyadicGroup, inside: np.ndarray) -> np.ndarray:
    """For each boolean row of inside (a subset S closed under skew), whether
    f maps S into S, by one family of Post's reduction (E. L. Post,
    "Polyadic groups", Trans. AMS 48, 1940), every row's tuples in one
    eval_many per block: at arity ≥ 3 (A_1), the k² tuples
    (s, t, u^(n−3), ū) for s, t in S, u the least member and ū = skew(u); at
    arity 2 (B), (s, t), the whole test.  Given ū ∈ S, (A_1) alone decides:
    it makes H = S·u⁻¹ a ψ_u-invariant subgroup of the view, so
    f(u,…,u) = ψ_u^(n−1)(ū·u⁻¹)⁻¹·u, read off f(u,…,u,ū) = u, lies in S, and
    that does the rest (CHANGES.md proves it under "One closure test for the
    subset oracles").  The proof reads the n-ary group axioms, not the
    split: from_table(verify=False) promises them."""
    sizes = inside.sum(axis=1)
    keep = np.empty(len(inside), dtype=bool)
    for rows in row_blocks(np.arange(len(inside)), int(sizes.max()) ** 2):
        block, k = inside[rows], sizes[rows]
        members = np.nonzero(block)[1]  # row by row, each row's least member first
        row = np.repeat(np.arange(len(rows)), k * k)  # the row each tuple tests
        start = np.repeat(np.cumsum(k) - k, k * k)  # where that row's members begin
        s, t = np.divmod(np.arange(len(row)) - np.repeat(np.cumsum(k * k) - k * k, k * k), k[row])
        args = np.broadcast_to(members[start], (p.arity, len(row))).copy()  # u
        args[-1] = np.asarray(p.skew_table)[args[-1]]  # ū; at arity 2 t overwrites it
        args[0], args[1] = members[start + s], members[start + t]
        misses = row[~block[row, p.eval_many(args)]]
        keep[rows] = np.bincount(misses, minlength=len(rows)) == 0
    return keep


def is_polyadic_subgroup(p: PolyadicGroup, members: Sequence[int]) -> bool:
    """Nonempty and closed under the operation and skew: exactly when skew
    keeps it and _closed passes its one row, whose (A_1) rows then put the
    diagonal inside too; no m^n table is built."""
    inside = np.zeros(p.order, dtype=bool)
    inside[list(_members(p, members))] = True
    skew = np.asarray(p.skew_table)[inside]
    return bool(inside.any() and inside[skew].all() and _closed(p, inside[None])[0])


def _oracle_subgroups(
    p: PolyadicGroup, caps: Caps, normal: bool = False
) -> tuple[tuple[int, ...], ...]:
    """The subset scan's polyadic subgroups, or the normal ones (the scan
    passes the conjugations too, and its answer is stored on p), sharing
    p's closure verdicts (_subset_scan); the oracles' gate
    (config.oracle_refusal) is checked on every call, before the mask is
    built."""
    refusal = oracle_refusal(p, caps)
    if refusal:
        raise refusal
    if not normal:
        return _subset_scan(p, [])
    return cached_on(p, "normal_oracle_scan", lambda: _subset_scan(p, [_conjugates(p)]))


def _subset_scan(p: PolyadicGroup, extra_rows: Sequence[np.ndarray]) -> tuple[tuple[int, ...], ...]:
    """The nonempty subsets closed under f, skew, the diagonal and each map
    of extra_rows, in mask order.  A mask S passes when need[x], the OR of
    the bits of x's images, lies in S for every x in S.  {x} is closed
    exactly when the diagonal fixes x, and the whole carrier always is; a
    survivor of size 2..m−1 by its verdict on p (one int8 a mask: 0
    undecided, 1 closed, −1 not), which one _closed call decides for the
    undecided ones.  Skew, which _closed needs, and the diagonal, which
    prunes, are always rows, so no verdict depends on the scan that wrote
    it."""
    m = p.order
    images = np.vstack([p.skew_table, p.diagonal, *extra_rows]).astype(np.int64)
    need = np.bitwise_or.reduce(np.left_shift(1, images), axis=0)
    covered = np.zeros(1, dtype=np.int64)  # covered[S]: the OR of need over S
    for x in range(m):
        covered = np.concatenate([covered, covered | need[x]])
    masks = np.flatnonzero((covered & ~np.arange(1 << m)) == 0)[1:]
    inside = (masks[:, None] >> np.arange(m) & 1).astype(bool)
    sizes = inside.sum(axis=1)
    verdicts = cached_on(p, "closure_verdicts", lambda: np.zeros(1 << m, dtype=np.int8))
    rows = np.flatnonzero((sizes > 1) & (sizes < m) & (verdicts[masks] == 0))
    if len(rows):
        verdicts[masks[rows]] = np.where(_closed(p, inside[rows]), 1, -1)
    kept = (sizes == 1) | (sizes == m) | (verdicts[masks] == 1)
    return tuple(tuple(np.flatnonzero(r).tolist()) for r in inside[kept])


def _theorem_subgroups(p: PolyadicGroup) -> list[tuple[int, ...]]:
    """The member sets K·u over every pair (u, K), u in the view's base G
    and K in its subgroup lattice, where psi_u maps K onto itself and K
    holds f(u,…,u)·u⁻¹, all pairs tested at once on the lattice masks; each
    coset is a mask over p's carrier (x ∈ K·u exactly when x·u⁻¹ ∈ K).
    Without the anchor gate K·u need not be closed under f."""
    hg = p.view
    base = hg.base
    quotients = base.np_table[:, np.asarray(base.inverses)]  # [x, y] = x·y⁻¹
    masks = base.subgroup_masks
    anchor = quotients[hg.group.diagonal, np.arange(p.order)]  # f(u,…,u)·u⁻¹
    kept = invariant_subgroups(base, base.conj_table[:, hg.theta.np_perm])
    u, k = np.nonzero(kept & masks[:, anchor].T)
    cosets = masks[k[:, None], quotients[hg.np_relabel][:, u].T]
    return [tuple(np.flatnonzero(c).tolist()) for c in {c.tobytes(): c for c in cosets}.values()]


def enumerate_polyadic_subgroups(
    p: PolyadicGroup, strategy: Strategy = "auto", caps: Caps = DEFAULT_CAPS
) -> list[PolyadicSubgroup]:
    """All polyadic subgroups, sorted by (size, members).

    The oracle strategy scans subsets for closure under f and skew; the
    theorem strategy reads the cosets of the psi_u-invariant subgroups of the
    base (see _theorem_subgroups).  In auto mode both run (inside the
    oracles' gate) and must agree.
    """
    return list(cross_check(
        "polyadic subgroup",
        strategy,
        lambda: _as_subgroups(p, _theorem_subgroups(p)),
        lambda: _as_subgroups(p, _oracle_subgroups(p, caps)),
        oracle_refusal(p, caps) is None,
    ))


def _as_subgroups(
    p: PolyadicGroup, found: Iterable[tuple[int, ...]]
) -> tuple[PolyadicSubgroup, ...]:
    ordered = sorted(found, key=lambda s: (len(s), s))
    return tuple(PolyadicSubgroup(members, p) for members in ordered)


def _stays_inside(conjugates: np.ndarray, members: Sequence[int]) -> bool:
    """Whether conjugates[x, h] lies in members for every x and member h."""
    inside = np.zeros(len(conjugates), dtype=bool)
    inside[list(members)] = True
    return bool(inside[conjugates[:, inside]].all())


def _conjugates(p: PolyadicGroup) -> np.ndarray:
    """conj[x, h] = f(skew(x), x,...,x, h, x), by one eval_many; at arity
    2, x⁻¹·h·x, with x⁻¹ the first y where f(x, y) = skew(0), the identity,
    and NoSolution for the first x whose row lacks it."""
    m, n = p.order, p.arity
    x, h = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    if n == 2:
        table = p.eval_many(np.stack([x.ravel(), h.ravel()])).reshape(m, m)
        hits = table == p.skew(0)
        lacking = np.flatnonzero(~hits.any(axis=1))
        if len(lacking):
            raise NoSolution(f"no inverse candidate for {lacking[0]}; structure is corrupted")
        return table[table[hits.argmax(axis=1)], x]
    args = np.stack([np.asarray(p.skew_table)[x]] + [x] * (n - 3) + [h, x])
    return p.eval_many(args.reshape(n, -1)).reshape(m, m)


def twisted_conjugates(p: PolyadicGroup) -> np.ndarray:
    """tc[x, h] = θ⁻¹(x⁻¹·h)·x, read in the view and carried back to p's
    carrier: the twist criterion's one table, m×m."""
    hg = p.view
    table, x = hg.base.np_table, np.arange(p.order)
    theta_inv, relabel = np.argsort(hg.theta.np_perm), hg.np_relabel
    tc = table[theta_inv[table[np.asarray(hg.base.inverses)[:, None], x]], x[:, None]]
    return hg.np_unrelabel[tc[np.ix_(relabel, relabel)]]


def is_normal_polyadic(p: PolyadicGroup, h: PolyadicSubgroup | Sequence[int]) -> bool:
    """Whether h is a polyadic subgroup (so never for the empty set) every
    twisted conjugate of whose members stays inside: the twist criterion."""
    members = _members(p, h)
    return is_polyadic_subgroup(p, members) and _stays_inside(twisted_conjugates(p), members)


def _cosets(p: PolyadicGroup, hs: Sequence[int], us, xs: Sequence[int]) -> np.ndarray:
    """f(x, h, u,…,u) for each x in xs (a row each) and each h in hs with
    the u of us beside it (a column each), by one eval_many, no m^n table.
    For u in a polyadic subgroup H, every (n−1)-sequence over H is
    equivalent to one (h, u,…,u), so x's row over H is x's coset."""
    args = np.broadcast_to(us, (p.arity, len(xs), len(hs))).copy()
    args[0], args[1] = np.asarray(xs)[:, None], hs
    return p.eval_many(args.reshape(p.arity, -1)).reshape(len(xs), -1)


def coset_classes(
    p: PolyadicGroup, h: PolyadicSubgroup | Sequence[int]
) -> tuple[tuple[int, ...], ...]:
    """The sorted polyadic cosets of a normal polyadic subgroup."""
    members = _members(p, h)
    if not is_normal_polyadic(p, members):
        raise NotNormal(f"{list(members)} is not a normal polyadic subgroup")
    rows = _cosets(p, members, members[0], range(p.order)).tolist()
    return tuple(sorted({tuple(sorted(set(row))) for row in rows}))
