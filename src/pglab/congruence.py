"""Congruence lattices of polyadic groups, and their quotients.

Two independent routes: Mal'cev's lemma (an equivalence is a congruence
exactly when every basic translation and skew respect it, so the lattice is
the join closure of the principal congruences), and the theorem that the
congruences of der(G, theta, b) are exactly the coset partitions of the
theta-invariant normal subgroups of G, so each quotient is der(G/K,
theta-bar, b-bar) for the kernel K of its congruence.  The theorem side is
one kernel table per structure: its rows give the congruences, their
normal witnesses and the normal polyadic subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import Caps, DEFAULT_CAPS, Strategy, cached_on, charge, cross_check
from .config import KEY_VALUES, oracle_refusal
from .errors import IllDefined, MethodDisagreement, ValidationError
from .groups import Automorphism, group_from_rows, invariant_normal
from .polyadic import (
    PolyadicGroup, _firsts, _twist, _twisted_table, _wrap_table, distinct, n_ary_identity,
    row_blocks,
)
from .substructures import (
    PolyadicSubgroup, _as_subgroups, _cosets, _oracle_subgroups, coset_classes, twisted_conjugates,
)


@dataclass(frozen=True)
class Congruence:
    """An equivalence relation compatible with the operation and with skew."""

    ambient: PolyadicGroup
    classes: tuple[tuple[int, ...], ...]

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        out = [0] * self.ambient.order
        for i, cls in enumerate(self.classes):
            for x in cls:
                out[x] = i
        return tuple(out)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def is_diagonal(self) -> bool:
        return self.num_classes == self.ambient.order

    def is_full(self) -> bool:
        return self.num_classes == 1

    def __repr__(self) -> str:
        return f"Congruence({[list(c) for c in self.classes]})"


def congruence_from_classes(p: PolyadicGroup, classes: Sequence[Sequence[int]]) -> Congruence:
    canon = tuple(sorted(tuple(sorted(c)) for c in classes))
    flat = sorted(x for c in canon for x in c)
    if flat != list(range(p.order)) or not all(canon):
        raise ValidationError("classes must partition the carrier into nonempty classes")
    cong = Congruence(p, canon)
    _kernel_row(cong)  # refuses a partition that is not a congruence
    return cong


def _partition_by(p: PolyadicGroup, keys: Iterable) -> Congruence:
    """The congruence whose classes are the fibres of x ↦ keys[x]."""
    fibres: dict = {}
    for x, key in enumerate(keys):
        fibres.setdefault(key, []).append(x)
    return Congruence(p, tuple(sorted(tuple(c) for c in fibres.values())))


def _canonical_order(congs: Sequence[Congruence]) -> list[int]:
    # finest first: the diagonal leads, the full relation closes the list
    return sorted(range(len(congs)), key=lambda i: (-congs[i].num_classes, congs[i].classes))


# A row of m ≤ KEY_VALUES values 0..m-1 packs into one uint64 key, 4 bits a value.
_SHIFTS = np.arange(KEY_VALUES, dtype=np.uint64) * np.uint64(4)


def _keys(rows: np.ndarray) -> np.ndarray:
    return rows @ (np.uint64(1) << _SHIFTS[: rows.shape[-1]])  # rows in an unsigned dtype


def _rows(keys: np.ndarray, m: int) -> np.ndarray:
    return (keys[:, None] >> _SHIFTS[:m] & np.uint64(15)).astype(np.intp)


def _closure(rel: np.ndarray) -> np.ndarray:
    """The transitive closure of each reflexive relation in a stack."""
    while True:
        step = rel.astype(np.float32)
        nxt = np.matmul(step, step) > 0
        if np.array_equal(nxt, rel):
            return rel
        rel = nxt


def _classes(rel: np.ndarray) -> np.ndarray:
    """The keys of the distinct equivalences a stack of reflexive, symmetric
    relations generate, each labelling x by the least member of its class."""
    labels = _closure(rel).argmax(axis=-1).astype(np.uint8)
    return distinct(_keys(labels.reshape(-1, labels.shape[-1])))


def _relations(keys: np.ndarray, m: int) -> np.ndarray:
    labels = _rows(keys, m)
    return labels[:, :, None] == labels[:, None, :]


def congruences_bruteforce(
    p: PolyadicGroup, caps: Caps = DEFAULT_CAPS
) -> list[Congruence]:
    """The congruence lattice by Mal'cev's lemma (_malcev_lattice).  The oracles' gate
    (config.oracle_refusal) is checked on every call; the lattice is stored on p."""
    refusal = oracle_refusal(p, caps)
    if refusal:
        raise refusal
    return list(cached_on(p, "congruences_oracle", lambda: _malcev_lattice(p)))


def _translations(p: PolyadicGroup) -> np.ndarray:
    """Maps, a row each, whose compositions give every basic translation.  A table, maybe
    no n-ary group (from_table(verify=False)), gives its distinct rows of every axis, each
    axis deduplicated in turn (by its bytes past KEY_VALUES).  A derived group gives Post's
    generators, by one eval_many: L_α(x) = f(α, 0,…,0, x), R_γ(x) = f(x, 0,…,0, γ) and
    M_i(x) = f(0,…,x at i,…,0), i = 1..n−2.  Every translation is L_α, R_γ or some
    L_α∘R_γ∘M_i (E. L. Post, Trans. AMS 48, 1940; CHANGES.md proves it under "Mal'cev from
    Post's generators")."""
    m, n, r = p.order, p.arity, np.arange(p.order)
    if not p.is_derived:
        axes = (p.flat_np.reshape((m,) * n).swapaxes(i, -1).reshape(-1, m) for i in range(n))
        if m > KEY_VALUES:
            return np.concatenate([rows[_firsts(rows)] for rows in axes])
        return _rows(distinct(np.concatenate([distinct(_keys(rows)) for rows in axes])), m)
    args = np.zeros((n, 2 * m + n - 2, m), dtype=np.intp)  # [argument, map, x]
    args[0, :m], args[-1, :m] = r[:, None], r
    args[0, m : 2 * m], args[-1, m : 2 * m] = r, r[:, None]
    args[range(1, n - 1), range(2 * m, 2 * m + n - 2)] = r
    return p.eval_many(args.reshape(n, -1)).reshape(-1, m)


def _principal(maps: np.ndarray, pairs: Optional[tuple] = None) -> np.ndarray:
    """The distinct keys of Cg(a, b) over the pairs, by default (0, c) for c = 1..m−1 if each
    element is sent to 0 by a map that is a permutation, else every a < b (t(a) = 0 gives
    Cg(a, b) = Cg(0, t(b)): t and t⁻¹, a power of t, respect every congruence).  A fixpoint on
    labels (x ↦ the least member of its class): a round relates t(x) to t(label x) for every
    map t and every x not its own label, then closes the relations, until nothing is new."""
    r = np.arange(maps.shape[1])
    if pairs is None:
        reach = (maps[(np.sort(maps, axis=1) == r).all(axis=1)] == 0).any(axis=0).all()
        pairs = (np.zeros_like(r[1:]), r[1:]) if reach else np.nonzero(r[:, None] < r)
    labels = np.where(r == pairs[1][:, None], pairs[0][:, None], r)
    while True:
        i, x = np.nonzero(labels != r)
        tx, ty = maps[:, x], maps[:, labels[i, x]]
        apart = labels[i, tx] != labels[i, ty]
        if not apart.any():
            break
        rel = labels[:, :, None] == labels[:, None, :]
        rel[np.broadcast_to(i, tx.shape)[apart], tx[apart], ty[apart]] = True
        labels = _closure(rel | rel.transpose(0, 2, 1)).argmax(axis=-1)
    return distinct(_keys(labels.astype(np.uint8)))


def _malcev_lattice(p: PolyadicGroup) -> tuple[Congruence, ...]:
    """Mal'cev's lemma, true in every algebra: Cg(a, b) is the least equivalence holding (a, b)
    that the basic translations (_translations) and skew respect, and every congruence is a
    join of these (R. Freese, Algebra Universalis 59, 2008): the join closure of _principal."""
    m = p.order
    principal = _principal(np.vstack([_translations(p), [p.skew_table]]))
    generators = _relations(principal, m)
    lattice = new = distinct(np.append(principal, _keys(np.arange(m, dtype=np.uint8))))
    while len(new):
        joins = _classes(_relations(new, m)[:, None] | generators)
        new = joins[lattice[np.minimum(np.searchsorted(lattice, joins), len(lattice) - 1)] != joins]
        lattice = np.sort(np.append(lattice, new))
    congs = [_partition_by(p, row.tolist()) for row in _rows(lattice, m)]
    return tuple(congs[i] for i in _canonical_order(congs))


def congruences_theorem(p: PolyadicGroup) -> list[Congruence]:
    """Enumerate congruences as the coset partitions of the twist-invariant
    normal subgroups of the base, mapped back to the original carrier
    (the relabelling round-trips for table presentations): the rows of p's
    kernel table."""
    return list(kernel_table(p).congruences)


def congruences(
    p: PolyadicGroup, strategy: Strategy = "auto", caps: Caps = DEFAULT_CAPS
) -> list[Congruence]:
    """All congruences, finest first, by the routes of the strategy."""
    return cross_check(
        "congruence",
        strategy,
        lambda: congruences_theorem(p),
        lambda: congruences_bruteforce(p, caps),
        oracle_refusal(p, caps) is None,
    )


@dataclass(frozen=True)
class KernelClass:
    """The congruence class of the base-group identity."""

    members: tuple[int, ...]
    b_related: bool


@dataclass(frozen=True, eq=False)
class KernelTable:
    """p's congruences, finest first (congruences_theorem's list), index[classes]
    into them, and a row for each: labels (x ↦ the least member of its
    class), the kernel as a mask over the view's carrier, whether b is
    related to the identity, and the normal mask (a related to skew(a) and
    to every tc[x, a], so a's class is a normal polyadic subgroup)."""

    congruences: tuple[Congruence, ...]
    index: dict
    labels: np.ndarray
    kernel: np.ndarray
    b_related: np.ndarray
    normal: np.ndarray


def kernel_table(p: PolyadicGroup) -> KernelTable:
    """p's kernel table, built and checked once and stored on p: see _kernel_table."""
    return cached_on(p, "kernels", lambda: _kernel_table(p))


def _kernel_table(p: PolyadicGroup) -> KernelTable:
    """The kernels are the rows of the view base's lattice masks that
    groups.invariant_normal keeps, so each is a twist-invariant normal
    subgroup by construction.  A block of rows at a time (row_blocks, m²
    cells a row): x is labelled by the least p-element of its coset, x·v over
    v ∈ K, in one gather; the cosets {f(x, h, a,…,a) : h ∈ a·K} of each
    row's first normal a, read by one eval_many, must be the congruence's
    classes (MethodDisagreement).  Then the rows are sorted finest first."""
    hg, m = p.view, p.order
    base, tc = hg.base, twisted_conjugates(p)
    relabel, unrelabel = hg.np_relabel, hg.np_unrelabel
    kernel = base.subgroup_masks[invariant_normal(base, hg.theta)]
    products = unrelabel[base.np_table[relabel]]  # [x, v] = x·v, x read in the view, back in p
    labels, normal = np.empty(kernel.shape, dtype=np.intp), np.empty(kernel.shape, dtype=bool)
    for r in row_blocks(np.arange(len(kernel)), m * m):
        lab = labels[r] = np.where(kernel[r, None], products, m).min(axis=2)
        ok = normal[r] = (lab[:, p.skew_table] == lab) & (lab[:, tc] == lab[:, None]).all(axis=1)
        row, v = np.nonzero(kernel[r] & ok.any(axis=1)[:, None])  # h = a·v, v ∈ K, in the view
        a = ok.argmax(axis=1)[row]
        cosets = _cosets(p, unrelabel[base.np_table[relabel[a], v]], a, np.arange(m)).T
        apart = (np.take_along_axis(lab[row], cosets, axis=1) != lab[row]).any(axis=1)
        if apart.any():
            i = apart.argmax()
            cong = _partition_by(p, lab[row[i]].tolist())
            raise MethodDisagreement(f"witness {a[i]} satisfies both conditions but its "
                                     f"subgroup's cosets do not reproduce {cong}")
    congs = [_partition_by(p, row.tolist()) for row in labels]
    order = _canonical_order(congs)
    labels, kernel, normal = labels[order], kernel[order], normal[order]
    congs = tuple(congs[i] for i in order)
    b_related = labels[:, unrelabel[0]] == labels[:, unrelabel[hg.b]]
    index = {c.classes: i for i, c in enumerate(congs)}
    return KernelTable(congs, index, labels, kernel, b_related, normal)


def _kernel_row(r: Congruence) -> tuple[KernelTable, int]:
    """r's row of its structure's kernel table; a partition that is not one
    of its congruences is refused (ValidationError)."""
    t = kernel_table(r.ambient)
    i = t.index.get(r.classes)
    if i is None:
        raise ValidationError(f"{r} is not a congruence of {r.ambient}")
    return t, i


def kernel_class(r: Congruence) -> KernelClass:
    """Class of the identity; always a twist-invariant normal base subgroup.

    Also reports whether the constant b is related to the identity, which is
    exactly when the kernel class is itself a polyadic subgroup.  Read from
    r's row of the kernel table, so no m^n table is built."""
    t, i = _kernel_row(r)
    members = r.ambient.view.np_unrelabel[t.kernel[i]]
    return KernelClass(tuple(sorted(members.tolist())), bool(t.b_related[i]))


@dataclass(frozen=True)
class LatticeOps:
    """Meet and join of congruences R, Q, one cell of p's lattice_table; each
    diagnostic compares the partitions with base-group products of the
    kernels K_R, K_Q: R∘Q = Q∘R, R∘Q is the coset relation of K_R·K_Q (for a
    group, the pair-set product R·Q), and the join's and meet's kernels are
    K_R·K_Q and K_R ∩ K_Q.  A failed diagnostic reads False."""

    meet: Congruence
    join: Congruence
    commutes: bool
    composition_is_product: bool
    kernel_identities: bool


@dataclass(frozen=True, eq=False)
class LatticeTable:
    """k×k meet and join arrays of indices into congruences_theorem's list,
    LatticeOps' three flags as k×k boolean arrays, and the modular law."""

    meet: np.ndarray
    join: np.ndarray
    commutes: np.ndarray
    composition_is_product: np.ndarray
    kernel_identities: np.ndarray
    modular: bool


def lattice_table(p: PolyadicGroup) -> LatticeTable:
    """p's lattice table, built once and stored on p: see _lattice_table."""
    return cached_on(p, "lattice", lambda: _lattice_table(p))


def _lattice_table(p: PolyadicGroup) -> LatticeTable:
    """Two routes, a block of rows at a time (row_blocks, k·m² cells a row).
    Partitions: the kernel table's labels, R[i] the relation; meet is R & Q,
    join the boolean product R∘Q (congruences of a polyadic group permute),
    each labelled row looked up in the list.  Kernels: the kernel table's
    masks K[i], the product P[i, j, x] = ∨ₙ K_i[n] ∧ K_j[n⁻¹x] by one einsum."""
    hg, kernels = p.view, kernel_table(p)
    labels, kernel = kernels.labels, kernels.kernel
    k, m = labels.shape
    rel = labels[:, :, None] == labels[:, None, :]
    weight = rel.astype(np.float32)  # boolean products by BLAS
    rows = {x.tobytes(): i for i, x in enumerate(labels)}
    left_quotient = hg.base.np_table[np.asarray(hg.base.inverses)]  # [n, x] = n⁻¹x
    shifted, cosets = kernel[:, left_quotient], left_quotient[np.ix_(hg.np_relabel, hg.np_relabel)]
    meet, join = np.zeros((2, k, k), dtype=np.intp)
    commutes, composition_is_product, kernel_identities = np.zeros((3, k, k), dtype=bool)
    for r in row_blocks(np.arange(k), k * m * m):
        rq, product = weight[r, None] @ weight > 0, np.einsum("rn,jnx->rjx", kernel[r], shifted)
        for out, relation in ((meet, rel[r, None] & rel), (join, rq)):
            found = [rows[x.tobytes()] for x in relation.argmax(axis=-1).reshape(-1, m)]
            out[r] = np.reshape(found, (len(r), k))
        commutes[r] = (rq == (weight @ weight[r, None] > 0)).all(axis=(2, 3))
        composition_is_product[r] = (rq == product[:, :, cosets]).all(axis=(2, 3))  # x⁻¹z ∈ P
        kernel_identities[r] = ((kernel[join[r]] == product).all(axis=2)
                                & (kernel[meet[r]] == kernel[r, None] & kernel).all(axis=2))
    # R ≤ T ⇒ R ∨ (Q ∧ T) = (R ∨ Q) ∧ T, a block of R at a time (k² cells each)
    modular = all(((join[a][:, meet] == meet[join[a]]) | (meet[a] != a[:, None])[:, None]).all()
                  for a in row_blocks(np.arange(k), k * k))
    return LatticeTable(meet, join, commutes, composition_is_product, kernel_identities, modular)


def lattice_ops(r: Congruence, q: Congruence) -> LatticeOps:
    """Meet (intersection) and join (composition) with diagnostics, one cell of
    lattice_table(p); a congruence not in p's lattice is refused (ValidationError)."""
    p = r.ambient
    if q.ambient is not p and q.ambient != p:
        raise ValidationError("congruences live on different polyadic groups")
    (kernels, i), (_, j), t = _kernel_row(r), _kernel_row(q), lattice_table(p)
    flags = (t.commutes, t.composition_is_product, t.kernel_identities)
    congs = kernels.congruences
    return LatticeOps(congs[t.meet[i, j]], congs[t.join[i, j]], *(bool(f[i, j]) for f in flags))


def is_normal_congruence(r: Congruence) -> Optional[int]:
    """The smallest witness a such that r is the coset congruence of a·[e]:
    a is related to its skew and to each twisted conjugate θ⁻¹(x⁻¹·a)·x.
    The first True of r's normal row, whose cosets the kernel table rebuilt."""
    t, i = _kernel_row(r)
    return int(t.normal[i].argmax()) if t.normal[i].any() else None


def enumerate_normal_polyadic(
    p: PolyadicGroup, strategy: Strategy = "auto", caps: Caps = DEFAULT_CAPS
) -> list[PolyadicSubgroup]:
    """All normal polyadic subgroups, sorted by (size, members).

    The theorem strategy reads the kernel table: the distinct classes [a]_r
    over every congruence r and every a with normal[r, a].  The oracle, the
    normal subset scan (substructures._oracle_subgroups), reads no view and
    re-tests no subset p's subgroup scan decided.  Each route's answer is
    stored on p; in auto mode both run (inside the oracles' gate) and must agree.
    """

    def theorem() -> tuple[PolyadicSubgroup, ...]:
        t = kernel_table(p)
        r, a = np.nonzero(t.normal)
        # a class is its row and its label: distinct kernels have no coset in common
        r, label = np.divmod(distinct(r * p.order + t.labels[r, a]), p.order)
        classes = t.labels[r] == label[:, None]
        return _as_subgroups(p, (tuple(np.flatnonzero(c).tolist()) for c in classes))

    return list(cross_check(
        "normal-subgroup",
        strategy,
        lambda: cached_on(p, "normal_theorem", theorem),
        lambda: _as_subgroups(p, _oracle_subgroups(p, caps, normal=True)),
        oracle_refusal(p, caps) is None,
    ))


def _quotient(p: PolyadicGroup, r: Congruence) -> tuple[PolyadicGroup, np.ndarray]:
    """der(G/K, θ̄, b̄), K r's kernel-table row, and proj, the map of the
    view's carrier onto it: the cosets vK are ordered by their least member,
    so K is element 0, and with reps those members, G/K's table is
    proj[G[reps, reps]], θ̄ is proj[θ[reps]] and b̄ is proj[b].  The kernel
    table checked that K is a θ-invariant normal subgroup; group_from_rows
    and _twist's gates check the result."""
    hg, (t, i) = p.view, _kernel_row(r)
    table, kernel = hg.base.np_table, t.kernel[i]
    reps, proj = np.unique(table[:, kernel].min(axis=1), return_inverse=True)
    name = hg.base.name and f"{hg.base.name}/{np.flatnonzero(kernel).tolist()}"
    base = group_from_rows(tuple(map(tuple, proj[table[np.ix_(reps, reps)]].tolist())), name)
    theta = Automorphism(tuple(proj[hg.theta.np_perm[reps]].tolist()))
    return _twist(base, theta, int(proj[hg.b]), p.arity, p.name and f"{p.name}/R"), proj


def quotient_by_congruence(p: PolyadicGroup, r: Congruence) -> PolyadicGroup:
    """Quotient in derived form: base modulo kernel, induced twist and
    constant, read off r's kernel-table row (see _quotient); p's arity and
    order passed the caps when p was built."""
    return _quotient(p, r)[0]


@dataclass(frozen=True)
class PolyadicQuotient:
    """Cosets of a normal polyadic subgroup with the induced operation."""

    classes: tuple[tuple[int, ...], ...]
    quotient: PolyadicGroup


def quotient_polyadic(
    p: PolyadicGroup, h: PolyadicSubgroup | Sequence[int], caps: Caps = DEFAULT_CAPS
) -> PolyadicQuotient:
    """Quotient by a normal polyadic subgroup H: a table on coset_classes'
    classes, in their order; the result is always reduced.  Its k^n cells
    are charged to axiom_cost_cap before both routes run through
    config.cross_check.  Theorem: the quotient of the congruence ∼_H
    (_quotient), der(G/K, θ̄, b̄), relabelled into class order and built by
    _twisted_table, with no class tuple read.  Oracle: _class_oracle."""
    classes = coset_classes(p, h)
    k, n, name = len(classes), p.arity, p.name and f"{p.name}/H"
    charge(caps, "axiom_cost_cap", k**n, "the quotient table")
    r = Congruence(p, classes)
    cls_of = np.asarray(r.class_of)

    def theorem() -> PolyadicGroup:
        q, proj = _quotient(p, r)
        to_q = proj[p.view.np_relabel[[c[0] for c in classes]]]  # each class's element of q
        pres, back = q.presentation, np.argsort(to_q)  # back: q's element ↦ its class
        table = back[pres.base.np_table[np.ix_(to_q, to_q)]]
        flat = _twisted_table(table, back[pres.theta.np_perm[to_q]], int(back[pres.b]), n)
        return _wrap_table(n, k, flat, name)

    def oracle() -> PolyadicGroup:
        return _wrap_table(n, k, _class_oracle(p, cls_of), name)

    quotient = cross_check("quotient", "auto", theorem, oracle, True)
    if n_ary_identity(quotient) is None:
        raise IllDefined("quotient lacks an identity element; expected reduced")
    return PolyadicQuotient(classes, quotient)


def _class_oracle(p: PolyadicGroup, cls_of: np.ndarray) -> np.ndarray:
    """The class operation of x ↦ cls_of[x] (classes 0..k−1, all inhabited)
    as a flat k^n table, one byte a cell through k = 256: p's eval_many at
    each class's least member, a row_blocks block of class tuples at a time,
    once every map t of _translations(p), whose compositions give every
    basic translation, keeps t(x) in the class of t(rep x); else
    IllDefined.  A table's maps are all its rows, so no axiom is read; a
    derived p's are Post's generators, and no m^n table is built."""
    k, n = int(cls_of.max()) + 1, p.arity
    reps = (cls_of == np.arange(k)[:, None]).argmax(axis=1)  # each class's least member
    maps = _translations(p)
    if not (cls_of[maps] == cls_of[maps[:, reps[cls_of]]]).all():
        raise IllDefined("quotient operation depends on representatives")
    flat = np.empty(k**n, dtype=np.min_scalar_type(k - 1))
    for cells in row_blocks(range(k**n), n):
        c = np.unravel_index(np.arange(cells.start, cells.stop), (k,) * n)
        flat[cells.start : cells.stop] = cls_of[p.eval_many(reps[np.stack(c)])]
    return flat
