"""Reference implementations the tests compare the engine against.

Each is a plain loop, kept as the engine had it before a batched form
replaced it, or a function that only the tests call.  The loops read the
operation through scalar_eval, one tuple at a time, not through
PolyadicGroup.eval_many.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from pglab.config import DEFAULT_CAPS
from pglab.congruence import Congruence, KernelClass, LatticeOps, _keys, _partition_by, _rows
from pglab.errors import (
    ArityMismatch, BNotFixed, IllDefined, MethodDisagreement, NoSolution, NotNormal,
    NotUnique, PowerCondition, ValidationError,
)
from pglab.groups import (
    Automorphism, FiniteGroup, Subgroup, automorphisms, group_from_rows, inverse_perm,
)
from pglab.morphisms import PolyadicHom
from pglab.polyadic import (
    AxiomReport, PolyadicGroup, TablePresentation, _check_solvability, _holds_integers,
    _table_array, derive, packed_tuples, row_blocks,
)
from pglab.simplicity import _hol_generators
from pglab.substructures import (
    PolyadicSubgroup, _conjugates, _cosets, _members, _stays_inside, coset_classes,
    enumerate_polyadic_subgroups, is_normal_polyadic,
)


def cube(p: PolyadicGroup) -> np.ndarray:
    """p's m^n table as an m×…×m array, one axis per argument (flat_np,
    built for a derived p)."""
    return p.flat_np.reshape((p.order,) * p.arity)


def class_signature(p: PolyadicGroup, cls_of: np.ndarray) -> Optional[np.ndarray]:
    """The quotient oracle before it read p through eval_many: the class
    operation as a flat k**n table, for classes 0..k-1 that are all
    inhabited, from p's m^n table: the entry at the packed argument classes
    is the class of the value.  None when the value's class is not a
    function of the argument classes (the class operation is ill defined)."""
    k = int(cls_of.max()) + 1
    sig = packed_tuples(cls_of, k, p.arity)
    vals = np.take(cls_of.astype(p.flat_np.dtype), p.flat_np)
    table = np.empty(k**p.arity, dtype=vals.dtype)
    table[sig] = vals
    return table if np.array_equal(table[sig], vals) else None


def scalar_eval(p: PolyadicGroup, args: Sequence[int]) -> int:
    """f(args) one tuple at a time: a table's cell, or for a derived group
    x1·θ(x2)···θ^(n−1)(xn)·b by the base table and the powers of θ."""
    pres = p.presentation
    if isinstance(pres, TablePresentation):
        return cube(p).item(*args)
    table, theta = pres.base.table, pres.theta
    acc = args[0]
    for i in range(1, p.arity):
        y = args[i]
        for _ in range(i):  # θ^i(x_{i+1})
            y = theta(y)
        acc = table[acc][y]
    return table[acc][pres.b]


def no_derived_table(monkeypatch) -> None:
    """Make building a derived group's m^n table fail.  Its cells come from
    PolyadicGroup.flat_np alone (as_table reads it), so flat_np raises on a
    derived group; a table's cells are read as before, a quotient's k^n
    answer among them, which _twisted_table builds from G/K's arrays and
    not from any derived group's flat_np."""
    cells = PolyadicGroup.flat_np.func

    def flat_np(p: PolyadicGroup) -> np.ndarray:
        if p.is_derived:
            raise AssertionError(f"the m^n table of {p} was built")
        return cells(p)

    monkeypatch.setattr(PolyadicGroup, "flat_np", property(flat_np))


def z2_4(images: Sequence[int], arity: int) -> PolyadicGroup:
    """der(Z2⁴, θ, 0, arity) on bit vectors (x·y = x XOR y), θ the linear
    map sending the basis vector 2^i to images[i]."""
    base = group_from_rows(tuple(tuple(x ^ y for y in range(16)) for x in range(16)))
    perm = [0] * 16
    for x in range(16):
        for i in range(4):
            perm[x] ^= images[i] if x >> i & 1 else 0
    return derive(base, Automorphism(tuple(perm)), 0, arity)


def related(r: Congruence, x: int, y: int) -> bool:
    return r.class_of[x] == r.class_of[y]


def pairs(r: Congruence) -> frozenset[tuple[int, int]]:
    """r as a set of pairs."""
    return frozenset((x, y) for c in r.classes for x in c for y in c)


def is_identity(alpha: Automorphism) -> bool:
    return all(i == y for i, y in enumerate(alpha.perm))


def sim_h(p: PolyadicGroup, h: PolyadicSubgroup | Sequence[int]) -> Congruence:
    """The congruence whose classes are the polyadic cosets of a normal h."""
    return Congruence(p, coset_classes(p, h))


def full_grid_axioms(arity: int, order: int, flat: Sequence[int]) -> AxiomReport:
    """verify_table_axioms as one shot over the whole grid, with no cap:
    placement i is one gather of the flat table, viewed as (m^i, m,
    m^(n−1−i)), along its middle axis by the table itself, giving all
    m^(2n−1) tuples in C order; placements i−1 and i are compared whole,
    and the first differing pair and tuple is the witness."""
    m, n = order, arity
    small = _table_array(n, m, flat)
    violations: tuple = ()
    associative = True
    prev = np.take(small.reshape(1, m, -1), small, axis=1).ravel()
    for i in range(1, n):
        cur = np.take(small.reshape(m**i, m, -1), small, axis=1).ravel()
        if not np.array_equal(prev, cur):
            bad = np.unravel_index(int((prev != cur).argmax()), (m,) * (2 * n - 1))
            violations = (("associativity", i, tuple(int(v) for v in bad)),)
            associative = False
            break
        prev = cur
    solvable, solve_viol = _check_solvability(small, m, n)
    return AxiomReport(associative, solvable, violations + solve_viol)


def blocked_associativity_witness(small: np.ndarray, m: int, n: int) -> Optional[tuple]:
    """The exhaustive associativity check as it was before it read one
    tuple per (block, key) class (polyadic._associativity_witness): the
    grid in blocks of leading coordinates x₀ (row_blocks), placement 0 of
    a block rows[rows[x₀]], placement i ≥ 1 one gather of rows[x₀], viewed
    as (m^(i−1), m, m^(n−1−i)), along its middle axis by the table itself,
    for every prefix alike; after a failure at i the later blocks compare
    the placements below i alone."""
    rows, width = small.reshape(m, -1), m ** (2 * n - 2)
    found, limit, start = None, n, 0
    for lead in row_blocks(rows, width):
        k = len(lead)
        prev = np.take(rows, lead, axis=0).ravel()
        for i in range(1, limit):
            cur = np.take(lead.reshape(k, m ** (i - 1), m, -1), small, axis=2).ravel()
            differ = prev != cur
            if differ.any():
                found, limit = (i, start + int(differ.argmax())), i
                break
            prev = cur
        if limit == 1:
            break
        start += k * width
    if found is None:
        return None
    bad = np.unravel_index(found[1], (m,) * (2 * n - 1))
    return ("associativity", found[0], tuple(int(v) for v in bad))


def skew_oracle(p: PolyadicGroup, x: int) -> int:
    """The unique y with f(x,...,x,y) = x, one candidate at a time."""
    hits = [y for y in range(p.order) if scalar_eval(p, [x] * (p.arity - 1) + [y]) == x]
    if not hits:
        raise NoSolution(f"no skew candidate for {x}; structure is corrupted")
    if len(hits) > 1:
        raise NotUnique(f"multiple skew candidates {hits} for {x}")
    return hits[0]


def n_ary_identity(p: PolyadicGroup) -> Optional[int]:
    """The smallest element acting as identity in every slot, if any."""
    m, n = p.order, p.arity
    for a in range(m):
        if all(
            scalar_eval(p, [a] * i + [x] + [a] * (n - 1 - i)) == x
            for i in range(n)
            for x in range(m)
        ):
            return a
    return None


def normal_by_definition(p: PolyadicGroup, members: Sequence[int]) -> bool:
    """f(skew(x), x,...,x, h, x) stays inside, all x and h; at arity 2,
    x⁻¹·h·x, with x⁻¹ the first y where f(x, y) = skew(0), the identity,
    every x⁻¹ found before any conjugate is read."""
    mset, n, inverses = set(members), p.arity, []
    for x in range(p.order if n == 2 else 0):
        row = [scalar_eval(p, [x, y]) for y in range(p.order)]
        if p.skew(0) not in row:
            raise NoSolution(f"no inverse candidate for {x}; structure is corrupted")
        inverses.append(row.index(p.skew(0)))
    for x in range(p.order):
        if n == 2:
            conjugates = (scalar_eval(p, [scalar_eval(p, [inverses[x], h]), x]) for h in members)
        else:
            conjugates = (
                scalar_eval(p, [p.skew(x)] + [x] * (n - 3) + [h, x]) for h in members
            )
        if any(y not in mset for y in conjugates):
            return False
    return True


def normal_by_conjugate_table(p: PolyadicGroup, members: Sequence[int]) -> bool:
    """The normal oracle's check before its scan took the conjugations:
    every conjugate of a member stays inside, one gather of the m×m table
    _conjugates reads by one eval_many."""
    return _stays_inside(_conjugates(p), members)


def cube_closed(cube: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The subset scan's closure test before Post's reduction: for each row
    of members (the sorted members of a subset, all rows of one size),
    whether the operation with this table (an m×…×m cube, one axis per
    argument) maps every tuple of members into the subset."""
    m, n = cube.shape[0], cube.ndim
    flat = cube.ravel()
    out = [np.zeros(0, dtype=bool)]
    for block in row_blocks(members, members.shape[1] ** n):
        inside = np.zeros((len(block), m), dtype=bool)
        np.put_along_axis(inside, block, True, axis=1)
        values = flat[packed_tuples(block, m, n)]
        out.append(np.take_along_axis(inside, values, axis=1).all(axis=1))
    return np.concatenate(out)


def reference_cube_scan(p: PolyadicGroup, images: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The subset scan before Post's reduction, reading p's m^n table: the
    masks closed under each unary map (a row of images), then, per size
    2..m−1, closure under the term g(x, y, z) = f(x, y, z, …, z) (arity > 3)
    and under f, each by cube_closed."""
    m, n = p.order, p.arity
    need = np.bitwise_or.reduce(np.left_shift(1, images.astype(np.int64)), axis=0)
    covered = np.zeros(1, dtype=np.int64)
    for x in range(m):
        covered = np.concatenate([covered, covered | need[x]])
    masks = np.flatnonzero((covered & ~np.arange(1 << m)) == 0)[1:]
    inside = (masks[:, None] >> np.arange(m) & 1).astype(bool)
    sizes = inside.sum(axis=1)
    tables = [cube(p)]
    if n > 3:
        z = np.arange(m)
        tables = [cube(p)[(z[:, None, None], z[:, None]) + (z,) * (n - 2)], cube(p)]
    found = [np.flatnonzero((sizes == 1) | (sizes == m))]
    for k in np.unique(sizes[(sizes > 1) & (sizes < m)]):
        rows = np.flatnonzero(sizes == k)
        for grid in tables:
            rows = rows[cube_closed(grid, np.nonzero(inside[rows])[1].reshape(-1, k))]
        found.append(rows)
    return tuple(tuple(np.flatnonzero(r).tolist()) for r in inside[np.sort(np.concatenate(found))])


def reference_normal_scan(p: PolyadicGroup) -> tuple[tuple[int, ...], ...]:
    """The normal oracle before its unary filter took the conjugations and
    its closure test was Post's: the cube scan's polyadic subgroups,
    filtered by normal_by_conjugate_table."""
    subgroups = reference_cube_scan(p, np.vstack([p.skew_table, p.diagonal]))
    return tuple(s for s in subgroups if normal_by_conjugate_table(p, s))


def reference_normal_theorem(p: PolyadicGroup) -> list[PolyadicSubgroup]:
    """The normal theorem route before it read the kernel table: the
    theorem route's polyadic subgroups filtered by the twist criterion."""
    return [s for s in enumerate_polyadic_subgroups(p, "theorem") if is_normal_polyadic(p, s)]


def dornte_witness(p: PolyadicGroup) -> Optional[tuple]:
    """First violated skew identity, or None, scanning x, then the fixed
    identities by k, then for each y the left ones by i and the right ones
    by j."""
    m, n = p.order, p.arity
    for x in range(m):
        sx = p.skew(x)
        for k in range(1, n + 1):
            if scalar_eval(p, [x] * (k - 1) + [sx] + [x] * (n - k)) != x:
                return ("fixed", x, k)
        for y in range(m):
            for i in range(2, n + 1):
                if scalar_eval(p, [x] * (i - 2) + [sx] + [x] * (n - i) + [y]) != y:
                    return ("left", x, y, i)
            for j in range(2, n + 1):
                if scalar_eval(p, [y] + [x] * (n - j) + [sx] + [x] * (j - 2)) != y:
                    return ("right", x, y, j)
    return None


def all_derived(base: FiniteGroup, arity: int) -> list[PolyadicGroup]:
    """Every valid twist, each (theta, b) put to derive's gates in turn."""
    out = []
    for theta in automorphisms(base):
        for b in range(base.order):
            try:
                out.append(derive(base, theta, b, arity, name=base.name))
            except (BNotFixed, PowerCondition):
                pass
    return out


def restricted_growth_strings(m: int) -> Iterator[tuple[int, ...]]:
    """All set partitions of {0..m-1} as class-index strings, lexicographic."""
    a = [0] * m
    while True:
        yield tuple(a)
        j = m - 1
        while j > 0:
            if a[j] <= max(a[:j]):
                break
            j -= 1
        if j == 0:
            return
        a[j] += 1
        for t in range(j + 1, m):
            a[t] = 0


def _factors(cls_of, values):
    """Whether the class of values[x] is a function of the class of x."""
    image = {}
    for c, v in zip(cls_of, values):
        if image.setdefault(c, cls_of[v]) != cls_of[v]:
            return False
    return True


def reference_partition_scan(p: PolyadicGroup):
    """The per-partition Python scan the batched oracle replaced: skew
    images, then one-sided translations with constant filler 0, then the
    complete class-signature check, one partition at a time."""
    edge = cube(p)[(slice(None),) + (0,) * (p.arity - 2) + (slice(None),)].tolist()
    out = []
    for cls_of in restricted_growth_strings(p.order):
        if not _factors(cls_of, p.skew_table):
            continue
        if not (all(_factors(cls_of, row) for row in edge)
                and all(_factors(cls_of, col) for col in zip(*edge))):
            continue
        if class_signature(p, np.asarray(cls_of)) is None:
            continue
        fibres = {}
        for x, c in enumerate(cls_of):
            fibres.setdefault(c, []).append(x)
        out.append(tuple(sorted(tuple(c) for c in fibres.values())))
    return sorted(out, key=lambda classes: (-len(classes), classes))


def reference_translations(p: PolyadicGroup) -> np.ndarray:
    """The keys of p's distinct basic translations as the congruence oracle
    read them before Post's lemma, for every input: each position's m^(n−1)
    rows of the m^n table, deduplicated per position and then together."""
    m = p.order
    keys = [np.unique(_keys(np.moveaxis(cube(p), i, -1).reshape(-1, m))) for i in range(p.arity)]
    return np.unique(np.concatenate(keys))


def post_translations(p: PolyadicGroup) -> np.ndarray:
    """The keys of a derived p's distinct Post maps x ↦ f(α, 0,…,0, x, 0,…,0, γ),
    x at each position, α dropped at the first and γ at the last (E. L. Post,
    Trans. AMS 48, 1940), by one eval_many: the congruence oracle's map set
    before it read Post's generators."""
    m, n, r = p.order, p.arity, np.arange(p.order)
    grid = np.zeros((n, n, m, m, m), dtype=np.intp)  # [argument, position, α, γ, x]
    grid[0], grid[-1], grid[range(n), range(n)] = r[:, None, None], r[:, None], r
    return np.unique(_keys(p.eval_many(grid.reshape(n, -1)).reshape(-1, m).astype(np.uint8)))


def monoid_keys(maps: np.ndarray) -> np.ndarray:
    """The sorted keys of every composition of one or more rows of maps
    (transformations of 0..m−1, one a row), grown a layer at a time."""
    m = maps.shape[1]
    seen = frontier = np.unique(_keys(maps.astype(np.uint8)))
    while len(frontier):
        rows = _rows(frontier, m)
        composed = np.unique(_keys(maps[:, rows].reshape(-1, m).astype(np.uint8)))  # t ∘ s
        frontier = np.setdiff1d(composed, seen)
        seen = np.union1d(seen, frontier)
    return seen


def transport_twist(
    base: FiniteGroup, arity: int, phi: Sequence[int], g: int, twist: tuple
) -> tuple[tuple[int, ...], int]:
    """The twist (θ′, b′) onto which ψ = R_g ∘ φ carries der(base, θ, b),
    one element at a time: with θ₁ = φθφ⁻¹, θ′(x) = g⁻¹·θ₁(x)·g and
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


def reference_twist_classes(base: FiniteGroup, arity: int) -> list[tuple[PolyadicGroup, int]]:
    """(representative, orbit size) for the Hol(base)-orbits of the valid
    twists, each orbit walked by transport_twist from the key of its first
    candidate, in all_derived's order: the census's scalar orbit walk."""
    candidates = all_derived(base, arity)
    keys = [(p.presentation.theta.perm, p.presentation.b) for p in candidates]
    gens = _hol_generators(base)
    seen, classes = set(), []
    for cand, key in zip(candidates, keys):
        if key in seen:
            continue
        orbit, stack = {key}, [key]
        while stack:
            x = stack.pop()
            for phi, g in gens:
                y = transport_twist(base, arity, phi, g, x)
                if y not in orbit:
                    orbit.add(y)
                    stack.append(y)
        assert orbit <= set(keys), (base, arity, key)
        seen |= orbit
        classes.append((cand, len(orbit)))
    return classes


def normal_congruence_condition_direct(r, a: int) -> bool:
    """Operation-level form of the second witness condition (arity >= 3)."""
    p = r.ambient
    n = p.arity
    if n < 3:
        raise ValueError("direct form needs arity at least 3")
    skew = p.skew_table
    for x in range(p.order):
        v = p.eval([skew[x]] + [x] * (n - 3) + [a, x])
        if not related(r, v, a):
            return False
    return True


def inner_automorphism(group: FiniteGroup, a: int) -> Automorphism:
    """Conjugation x ↦ a·x·a⁻¹."""
    return Automorphism(tuple(group.conj(a, x) for x in range(group.order)))


def is_inner(group: FiniteGroup, alpha: Automorphism) -> Optional[int]:
    """The smallest a with alpha = conjugation by a, or None."""
    for a in range(group.order):
        if all(group.conj(a, x) == alpha(x) for x in range(group.order)):
            return a
    return None


def subgroup_closure(
    table: Sequence[Sequence[int]], seed: Iterable[int]
) -> frozenset[int]:
    """Smallest subgroup containing seed in the group with this multiplication
    table (product closure; inverses follow)."""
    elems = list(dict.fromkeys(seed))
    if not elems:
        elems = [0]
    known = set(elems)
    i = 0
    while i < len(elems):
        a = elems[i]
        row = table[a]
        for b in elems[: i + 1]:
            for p in (row[b], table[b][a]):
                if p not in known:
                    known.add(p)
                    elems.append(p)
        i += 1
    if 0 not in known:  # powers of any element reach the identity
        known.add(0)
    return frozenset(known)


def is_normal_subgroup(group: FiniteGroup, members: Iterable[int]) -> bool:
    mset = set(members)
    return all(group.conj(g, h) in mset for g in range(group.order) for h in mset)


def quotient_group(
    group: FiniteGroup, normal: Subgroup | Sequence[int]
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup, plus the projection map, coset by
    coset: the cosets are relabelled in order of their smallest member, so
    the coset of 0 (the subgroup itself) becomes index 0."""
    members = normal.members if isinstance(normal, Subgroup) else tuple(sorted(normal))
    if not is_normal_subgroup(group, members):
        raise NotNormal(f"{list(members)} is not normal")
    m = group.order
    coset_of = [tuple(sorted(group.mul(x, h) for h in members)) for x in range(m)]
    cosets = sorted(set(coset_of))
    index = {c: i for i, c in enumerate(cosets)}
    proj = tuple(index[c] for c in coset_of)
    k = len(cosets)
    table = [[0] * k for _ in range(k)]
    for i, ci in enumerate(cosets):
        for j, cj in enumerate(cosets):
            table[i][j] = proj[group.mul(ci[0], cj[0])]
    name = f"{group.name}/{list(members)}" if group.name else ""
    return group_from_rows(tuple(map(tuple, table)), name), proj


class NotInvariant(ValidationError):
    """The given subgroup is not invariant under the automorphism."""


def twisted_quotient(
    group: FiniteGroup,
    theta: Automorphism,
    normal: Subgroup | Sequence[int],
) -> tuple[FiniteGroup, tuple[int, ...], Automorphism]:
    """Quotient by a theta-invariant normal subgroup, the projection, and the
    automorphism xK ↦ theta(x)K on the relabelled quotient: the reference of
    congruence._quotient's gathers."""
    members = normal.members if isinstance(normal, Subgroup) else tuple(sorted(normal))
    if frozenset(theta(x) for x in members) != frozenset(members):
        raise NotInvariant(f"theta does not fix {list(members)} setwise")
    quotient, proj = quotient_group(group, members)
    perm = [-1] * quotient.order
    for x in range(group.order):
        i, j = proj[x], proj[theta(x)]
        if perm[i] == -1:
            perm[i] = j
        elif perm[i] != j:
            raise NotInvariant("induced map is not well defined")
    return quotient, proj, Automorphism(tuple(perm))


def hom_compose(outer: PolyadicHom, inner: PolyadicHom) -> PolyadicHom:
    if inner.target != outer.source:
        raise ArityMismatch("middle structures differ")
    return PolyadicHom(
        inner.source, outer.target, tuple(outer.map[y] for y in inner.map)
    )


def reference_hom_check(
    psi: Sequence[int], p: PolyadicGroup, q: PolyadicGroup
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """The hom check before Post's reduction, on all m^n tuples t: whether
    psi(f(t)) = h(psi(t)) for every t, with the lexicographically first t
    where it fails, or None.  h(psi(t)) for every t is q's table gathered
    at psi along each of its n axes."""
    psi_np, image = np.asarray(psi), cube(q)
    for k in range(p.arity):
        image = image.take(psi_np, axis=k)
    bad = np.flatnonzero(image.ravel() != psi_np.take(p.flat_np))
    if not len(bad):
        return True, None
    return False, tuple(int(c) for c in np.unravel_index(bad[0], image.shape))


def reference_in_carrier(p: PolyadicGroup, args) -> np.ndarray:
    """PolyadicGroup._in_carrier as it was before its pure-Python path: args
    as one numpy array, refused (ValidationError) unless it is 1-D (numpy
    has no array form of a ragged nesting) and holds integers, no bool, all
    in 0..m−1."""
    try:
        column = np.asarray(args)
    except ValueError:
        column = np.asarray(args, dtype=object)
    if (column.ndim != 1 or not _holds_integers(column, args)
            or column.min() < 0 or column.max() >= p.order):
        shown = np.asarray(args, dtype=object).tolist()
        raise ValidationError(
            f"arguments {shown} must be elements of the carrier 0..{p.order - 1}"
        )
    return column


def polyadic_subgroup_by_closure(p: PolyadicGroup, members: Sequence[int]) -> bool:
    """Nonempty, closed under skew, and closed under f on every tuple of
    members, read from p's m^n table."""
    members = _members(p, members)
    if len(members) == 0:
        return False
    mset = set(members)
    if any(p.skew(x) not in mset for x in members):
        return False
    return bool(cube_closed(cube(p), np.asarray([members]))[0])


def polyadic_coset(
    p: PolyadicGroup, h: PolyadicSubgroup | Sequence[int], x: int
) -> tuple[int, ...]:
    """{f(x, h1, ..., h_{n-1})}: the class of x modulo h, a polyadic subgroup."""
    members = _members(p, h)
    row = _cosets(p, members, members[0] if members else 0, _members(p, [x]))[0]
    return tuple(sorted(set(row.tolist())))


def _composition(r: Congruence, q: Congruence) -> list[frozenset[int]]:
    """For each x, the z with x r y q z: the union of the q-classes that
    x's r-class meets."""
    out = [frozenset()] * r.ambient.order
    for cls in r.classes:
        image = frozenset().union(*(q.classes[c] for c in {q.class_of[y] for y in cls}))
        for x in cls:
            out[x] = image
    return out


def reference_kernel(r: Congruence) -> KernelClass:
    """The class of the identity, checked to be a twist-invariant normal base
    subgroup pair by pair, and whether b is related to the identity."""
    hg = r.ambient.view
    base, theta = hg.base, hg.theta
    identity_orig = hg.unrelabel[0]
    members_orig = r.classes[r.class_of[identity_orig]]
    members = tuple(sorted(hg.relabel[x] for x in members_orig))
    mset = set(members)
    for x in members:
        if theta(x) not in mset:
            raise IllDefined(f"kernel class not twist-invariant at {x}")
        for y in members:
            if base.mul(x, base.inv(y)) not in mset:
                raise IllDefined(f"kernel class not a subgroup at ({x},{y})")
    for g in range(base.order):
        for h in members:
            if base.conj(g, h) not in mset:
                raise IllDefined(f"kernel class not normal at ({g},{h})")
    b_related = related(r, identity_orig, hg.unrelabel[hg.b])
    return KernelClass(members_orig, b_related)


def reference_normal_congruence(r: Congruence) -> Optional[int]:
    """The smallest a related to its skew and to every twisted conjugate
    theta⁻¹(x⁻¹·a)·x, a candidate at a time; a·kernel is rebuilt and its
    coset congruence must equal r."""
    p = r.ambient
    hg = p.view
    base, theta_inv = hg.base, hg.theta.inverse()
    relabel, unrelabel = hg.relabel, hg.unrelabel
    skew = p.skew_table
    for a_orig in range(p.order):
        if not related(r, a_orig, skew[a_orig]):
            continue
        a = relabel[a_orig]
        if not all(
            related(r, unrelabel[base.mul(theta_inv(base.mul(base.inv(x), a)), x)], a_orig)
            for x in range(base.order)
        ):
            continue
        members_view = [relabel[x] for x in reference_kernel(r).members]
        h_orig = tuple(sorted(unrelabel[base.mul(a, x)] for x in members_view))
        if sim_h(p, h_orig).classes != r.classes:
            raise MethodDisagreement(
                f"witness {a_orig} satisfies both conditions but the rebuilt "
                f"subgroup {list(h_orig)} does not reproduce the congruence"
            )
        return a_orig
    return None


def reference_normal_by_twist(p: PolyadicGroup, members: Sequence[int]) -> bool:
    """theta⁻¹(x⁻¹·h)·x stays inside, all x and h, a pair at a time."""
    hg = p.view
    base, theta_inv = hg.base, hg.theta.inverse()
    mem = [hg.relabel[h] for h in members]
    mset = set(mem)
    for x in range(base.order):
        xi = base.inv(x)
        for h in mem:
            if base.mul(theta_inv(base.mul(xi, h)), x) not in mset:
                return False
    return True


def reference_lattice_ops(r: Congruence, q: Congruence) -> LatticeOps:
    """Meet (intersection) and join (composition) with diagnostics, one pair
    at a time in O(m²), read off the two partitions and the kernel classes."""
    p = r.ambient
    hg = p.view
    meet = _partition_by(p, zip(r.class_of, q.class_of))
    rq = _composition(r, q)
    join = _partition_by(p, rq)
    commutes = rq == _composition(q, r)

    base, relabel, unrelabel = hg.base, hg.relabel, hg.unrelabel
    kr = reference_kernel(r).members
    kq = reference_kernel(q).members
    product_kernel = {base.mul(relabel[h1], relabel[h2]) for h1 in kr for h2 in kq}
    composition_is_product = rq == [
        frozenset(unrelabel[base.mul(relabel[x], k)] for k in product_kernel)
        for x in range(p.order)
    ]
    e = unrelabel[0]
    kernel_identities = (
        set(join.classes[join.class_of[e]]) == {unrelabel[k] for k in product_kernel}
        and set(meet.classes[meet.class_of[e]]) == set(kr) & set(kq)
    )
    return LatticeOps(meet, join, commutes, composition_is_product, kernel_identities)


@dataclass(frozen=True)
class GuGroup:
    """The copy of the base group with identity u and its twist automorphism.

    Pre-relabel law: x∗y = x·u⁻¹·y, inverse u·x⁻¹·u, twist
    psi_u(x) = u·theta(x)·theta(u⁻¹).  After relabelling by x ↦ x·u⁻¹ the
    carrier is the base group itself and psi_u becomes conjugation-by-u
    composed with theta.
    """

    u: int
    group: FiniteGroup
    psi_u: Automorphism
    relabel: tuple[int, ...]
    unrelabel: tuple[int, ...]
    theta: Automorphism = field(compare=False, repr=False)


def gu_group(p: PolyadicGroup, u: int) -> GuGroup:
    """Build G_u for the (canonicalized) presentation of p."""
    hg = p.view
    base, theta = hg.base, hg.theta
    u_view = hg.relabel[u]
    re = tuple(base.mul(x, base.inv(u_view)) for x in range(base.order))
    psi = Automorphism(
        tuple(base.conj(u_view, theta(i)) for i in range(base.order))
    )
    return GuGroup(
        u=u_view, group=base, psi_u=psi, relabel=re, unrelabel=inverse_perm(re), theta=theta
    )


def right_translate(group: FiniteGroup, members: Iterable[int], u: int) -> tuple[int, ...]:
    """Elementwise product {s·u}; a plain set shift, not a polyadic coset."""
    return tuple(sorted(group.mul(s, u) for s in members))


def reference_theorem_subgroups(p: PolyadicGroup) -> tuple[tuple[int, ...], ...]:
    """The theorem route before the mask test, sorted by (size, members): for
    each u one G_u, and each subgroup of the base that psi_u maps onto
    itself, a frozenset at a time, shifted by u when the shift holds the
    anchor constant f(u,...,u)."""
    hg = p.view
    base, unrelabel = hg.base, hg.unrelabel
    diagonal = hg.group.diagonal.tolist()
    found = set()
    for u_orig in range(p.order):
        gu = gu_group(p, u_orig)
        cu = diagonal[gu.u]
        for members in base.subgroup_lattice:
            if frozenset(gu.psi_u(x) for x in members) != frozenset(members):
                continue
            h = right_translate(base, members, gu.u)
            if cu in h:
                found.add(tuple(sorted(unrelabel[x] for x in h)))
    return tuple(sorted(found, key=lambda s: (len(s), s)))


def gu_star(gu: GuGroup, x: int, y: int) -> int:
    """G_u's pre-relabel product x∗y = x·u⁻¹·y."""
    return gu.group.mul(gu.group.mul(x, gu.group.inv(gu.u)), y)


def gu_inv(gu: GuGroup, x: int) -> int:
    """The inverse u·x⁻¹·u of x in G_u, before relabelling."""
    return gu.group.mul(gu.group.mul(gu.u, gu.group.inv(x)), gu.u)


def gu_psi_raw(gu: GuGroup, x: int) -> int:
    """G_u's twist u·θ(x)·θ(u⁻¹), before relabelling."""
    return gu.group.mul(gu.group.mul(gu.u, gu.theta(x)), gu.theta(gu.group.inv(gu.u)))
