"""Finite binary groups as multiplication tables, 0-based, identity at index 0."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .config import Caps, DEFAULT_CAPS, cached_on, charge
from .errors import (
    NoIdentityAtZero,
    NotAssociative,
    NotAutomorphism,
    NotLatinSquare,
    ValidationError,
)

T = TypeVar("T")


@dataclass(frozen=True)
class FiniteGroup:
    """Group on {0,...,m-1} given by its multiplication table; 0 is the identity."""

    table: tuple[tuple[int, ...], ...]
    name: str = field(default="", compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

    def __hash__(self) -> int:  # the dataclass's value hash, computed once
        return cached_on(self, "hash", lambda: hash((self.table,)))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, a: int, x: int) -> int:
        """a·x·a⁻¹."""
        return self.table[self.table[a][x]][self.inverses[a]]

    @cached_property
    def np_table(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)

    @cached_property
    def conj_table(self) -> np.ndarray:
        """conj_table[a, x] = a·x·a⁻¹."""
        t = self.np_table
        return t[t, np.asarray(self.inverses)[:, None]]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        out = []
        for a in range(self.order):
            x, k = a, 1
            while x != 0:
                x = self.table[x][a]
                k += 1
            out.append(k)
        return tuple(out)

    @cached_property
    def center(self) -> tuple[int, ...]:
        t = self.table
        m = self.order
        return tuple(a for a in range(m) if all(t[a][x] == t[x][a] for x in range(m)))

    @cached_property
    def subgroup_lattice(self) -> tuple[tuple[int, ...], ...]:
        """Every subgroup: the closure lattice above the trivial one, a seed
        closed by the span of 0 under its elements' left multiplications."""
        moves = [row.__getitem__ for row in self.table]
        return closure_lattice(lambda seed: frozenset(span(0, [moves[g] for g in seed])), self.order)

    @cached_property
    def subgroup_masks(self) -> np.ndarray:
        """subgroup_lattice as an (s, m) boolean matrix, a subgroup a row."""
        masks = np.zeros((len(self.subgroup_lattice), self.order), dtype=bool)
        for row, members in zip(masks, self.subgroup_lattice):
            row[list(members)] = True
        return masks

    def __repr__(self) -> str:
        label = self.name or f"order {self.order}"
        return f"FiniteGroup({label})"


def make_group(
    table: Sequence[Sequence[int]], name: str = "", caps: Caps = DEFAULT_CAPS
) -> FiniteGroup:
    """Validate a multiplication table within the order cap and wrap it as a
    FiniteGroup.

    Checks, in order: identity at index 0, Latin-square rows/columns, and
    associativity.  Each failure names the first violating row or triple.
    """
    rows = tuple(tuple(int(x) for x in row) for row in table)
    charge(caps, "order_cap", len(rows), "the group table")
    return group_from_rows(rows, name)


def group_from_rows(rows: tuple[tuple[int, ...], ...], name: str = "") -> FiniteGroup:
    """make_group without the order cap, for an order already checked."""
    m = len(rows)
    if m == 0:
        raise NoIdentityAtZero("empty table has no identity row")
    for i, row in enumerate(rows):
        if len(row) != m:
            raise ValidationError(f"table is not square: row {i} has length {len(row)}")
        for x in row:
            if not 0 <= x < m:
                raise ValidationError(f"entry {x} in row {i} out of range 0..{m - 1}")
    for i in range(m):
        if rows[0][i] != i:
            raise NoIdentityAtZero(f"0·{i} = {rows[0][i]}, expected {i}")
        if rows[i][0] != i:
            raise NoIdentityAtZero(f"{i}·0 = {rows[i][0]}, expected {i}")
    for i in range(m):
        for kind, line in (("row", rows[i]), ("column", tuple(r[i] for r in rows))):
            if len(set(line)) != m:
                repeated = next(v for j, v in enumerate(line) if v in line[:j])
                raise NotLatinSquare(f"{kind} {i} repeats {repeated}")
    group = FiniteGroup(rows, name)
    t = group.np_table
    left = t[t, :]          # left[i,j,k] = (i·j)·k
    right = t[:, t]         # right[i,j,k] = i·(j·k)
    if not np.array_equal(left, right):
        i, j, k = (int(v) for v in np.argwhere(left != right)[0])
        raise NotAssociative(f"({i}·{j})·{k} = {left[i, j, k]} but {i}·({j}·{k}) = {right[i, j, k]}")
    return group


def inverse_perm(perm: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a permutation of {0,...,m-1}."""
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[y] = x
    return tuple(out)


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism stored as the image permutation."""

    perm: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.perm[x]

    @cached_property
    def np_perm(self) -> np.ndarray:
        return np.asarray(self.perm)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self ∘ other (apply other first)."""
        return Automorphism(tuple(self.perm[y] for y in other.perm))

    def inverse(self) -> "Automorphism":
        return Automorphism(inverse_perm(self.perm))

    def power(self, k: int) -> "Automorphism":
        if k < 0:
            return self.inverse().power(-k)
        acc = Automorphism.identity(len(self.perm))
        for _ in range(k):
            acc = self.compose(acc)
        return acc

    @staticmethod
    def identity(m: int) -> "Automorphism":
        return Automorphism(tuple(range(m)))


def make_automorphism(group: FiniteGroup, perm: Sequence[int]) -> Automorphism:
    """Validate that perm is a bijection respecting the group operation."""
    p = tuple(int(x) for x in perm)
    m = group.order
    if len(p) != m or sorted(p) != list(range(m)):
        raise NotAutomorphism("image list is not a permutation of the carrier")
    if p[0] != 0:
        raise NotAutomorphism(f"identity maps to {p[0]}, not 0")
    t = group.table
    for i in range(m):
        for j in range(m):
            if p[t[i][j]] != t[p[i]][p[j]]:
                raise NotAutomorphism(
                    f"perm[{i}·{j}] = {p[t[i][j]]} but perm[{i}]·perm[{j}] = {t[p[i]][p[j]]}"
                )
    return Automorphism(p)


def hom_rows(g: FiniteGroup, h: FiniteGroup, injective: bool = False) -> np.ndarray:
    """Every homomorphism g → h (the injective ones only, if asked) as the
    rows of an array, in lexicographic order; stored on g, keyed by h's
    table."""
    by_target = cached_on(g, "injective_homs" if injective else "binary_homs", dict)
    if h.table not in by_target:
        by_target[h.table] = np.asarray(_hom_search(g, h, injective)).reshape(-1, g.order)
    return by_target[h.table]


def _hom_search(g: FiniteGroup, h: FiniteGroup, injective: bool) -> list[tuple[int, ...]]:
    """Backtracking over the images of 1, ..., m-1 in turn, each in
    increasing order, so the maps come out sorted.  The image of k has an
    order dividing k's (equal to it, and not yet used, if injective); the
    products i·j = p whose last element max(i, j, p) is k are checked as
    soon as k is assigned."""
    m, gt, ht, h_orders = g.order, g.table, h.table, h.element_orders
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]
    for i, row in enumerate(gt):
        for j, p in enumerate(row):
            checks[max(i, j, p)].append((i, j, p))
    candidates = [
        [y for y in range(h.order) if (h_orders[y] == o if injective else o % h_orders[y] == 0)]
        for o in g.element_orders
    ]
    img, out = [0] * m, []
    used = [injective] + [False] * (h.order - 1)  # an injective map has used 0 on 0

    def extend(k: int) -> None:
        if k == m:
            out.append(tuple(img))
            return
        for y in candidates[k]:
            if used[y]:
                continue
            img[k] = y
            for i, j, p in checks[k]:
                if ht[img[i]][img[j]] != img[p]:
                    break
            else:
                used[y] = injective
                extend(k + 1)
                used[y] = False

    extend(1)
    return out


def automorphisms(group: FiniteGroup, caps: Caps = DEFAULT_CAPS) -> list[Automorphism]:
    """All automorphisms, the injective homomorphisms group → group, as
    permutations in lexicographic order; the search runs once per group,
    order_cap is checked on every call."""
    charge(caps, "order_cap", group.order, "the automorphism search")
    return list(cached_on(
        group, "automorphisms", lambda: tuple(map(Automorphism, _hom_search(group, group, True)))
    ))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member set."""

    members: tuple[int, ...]
    ambient: FiniteGroup

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, x: int) -> bool:
        return x in set(self.members)

    def __repr__(self) -> str:
        return f"Subgroup({list(self.members)})"


def span(start: T, moves: Sequence[Callable[[T], T]]) -> set[T]:
    """Everything reached from start by the moves, which are bijections of a
    finite set, so what they reach is also what their inverses reach: from
    the identity by left multiplications, the subgroup they generate."""
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def closure_lattice(
    closure: Callable[[frozenset[int]], frozenset[int]], size: int
) -> tuple[tuple[int, ...], ...]:
    """Every closed set, sorted by (size, members): from the closure of the
    empty set, the closure of each found set plus one more element of
    {0,...,size-1} is taken until nothing new appears."""
    found = {closure(frozenset())}
    frontier = list(found)
    while frontier:
        current = frontier.pop()
        for x in range(size):
            if x in current:
                continue
            bigger = closure(current | {x})
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return tuple(sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s)))


def invariant_subgroups(group: FiniteGroup, perms: np.ndarray) -> np.ndarray:
    """For each row of perms, an (r, m) stack of permutations of the carrier,
    which subgroups of group.subgroup_lattice it maps onto itself: an (r, s)
    boolean matrix read off the lattice masks (into itself is enough, as
    each row is a permutation)."""
    masks = group.subgroup_masks
    return (masks[:, None] <= masks[:, perms]).all(axis=2).T


def enumerate_subgroups(
    group: FiniteGroup, theta: Optional[Automorphism] = None
) -> list[Subgroup]:
    """Every subgroup, or with theta the theta-invariant normal ones (theta
    the identity: the normal subgroups), sorted by (size, members), kept
    by invariant_normal."""
    lattice = group.subgroup_lattice
    if theta is not None:
        lattice = [members for members, ok in zip(lattice, invariant_normal(group, theta)) if ok]
    return [Subgroup(members, group) for members in lattice]


def invariant_normal(group: FiniteGroup, theta: Automorphism) -> np.ndarray:
    """Which subgroups of group.subgroup_lattice are theta-invariant and normal:
    K is both exactly when conj(u)∘theta maps K onto itself for every u."""
    return invariant_subgroups(group, group.conj_table[:, theta.np_perm]).all(axis=0)
