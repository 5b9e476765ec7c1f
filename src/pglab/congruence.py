"""Congruence lattices of polyadic groups.

Two independent routes: Mal'cev's lemma (an equivalence is a congruence
exactly when every basic translation and skew respect it, so the lattice is
the join closure of the principal congruences), and the theorem that the
congruences of der(G, theta, b) are exactly the coset partitions of the
theta-invariant normal subgroups of G.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import Caps, DEFAULT_CAPS, Strategy, cached_on, cross_check
from .config import KEY_VALUES, oracle_fits, oracle_refusal
from .errors import IllDefined, MethodDisagreement
from .groups import enumerate_subgroups, twisted_quotient
from .polyadic import HosszuGloskin, PolyadicGroup, _twist
from .substructures import PolyadicSubgroup, class_signature, coset_classes


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

    def related(self, x: int, y: int) -> bool:
        return self.class_of[x] == self.class_of[y]

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        out = set()
        for cls in self.classes:
            out.update(itertools.product(cls, cls))
        return frozenset(out)

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
        raise ValueError("classes must partition the carrier into nonempty classes")
    cong = Congruence(p, canon)
    cls_of = np.asarray(cong.class_of)
    skew_classes = set(zip(cong.class_of, cls_of[np.asarray(p.skew_table)].tolist()))
    if len(skew_classes) != len(canon) or class_signature(p, cls_of) is None:
        raise ValueError("partition is not a congruence")
    return cong


def _partition_by(p: PolyadicGroup, keys: Iterable) -> Congruence:
    """The congruence whose classes are the fibres of x ↦ keys[x]."""
    fibres: dict = {}
    for x, key in enumerate(keys):
        fibres.setdefault(key, []).append(x)
    return Congruence(p, tuple(sorted(tuple(c) for c in fibres.values())))


def _canonical_sort(congs: list[Congruence]) -> list[Congruence]:
    # finest first: the diagonal leads, the full relation closes the list
    congs.sort(key=lambda c: (-c.num_classes, c.classes))
    return congs


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
    return np.unique(_keys(labels.reshape(-1, labels.shape[-1])))


def _relations(keys: np.ndarray, m: int) -> np.ndarray:
    labels = _rows(keys, m)
    return labels[:, :, None] == labels[:, None, :]


def congruences_bruteforce(
    p: PolyadicGroup, caps: Caps = DEFAULT_CAPS
) -> list[Congruence]:
    """The congruence lattice by Mal'cev's lemma, true in every algebra:
    Cg(a, b) is the least equivalence containing (a, b) that the basic
    translations and skew respect, and every congruence is a join of these
    (R. Freese, Algebra Universalis 59, 2008).  The oracles' gate
    (config.oracle_refusal) is checked on every call, before any table is
    built; the lattice is stored on p."""
    refusal = oracle_refusal(p, caps)
    if refusal:
        raise refusal
    return list(cached_on(p, "congruences_oracle", lambda: _malcev_lattice(p)))


def _malcev_lattice(p: PolyadicGroup) -> tuple[Congruence, ...]:
    m = p.order
    # the distinct basic translations x ↦ f(c₁,…,x,…,c_{n−1}), then skew
    keys = [np.unique(_keys(np.moveaxis(p.cube, i, -1).reshape(-1, m))) for i in range(p.arity)]
    maps = np.vstack([_rows(np.unique(np.concatenate(keys)), m), [p.skew_table]])
    # Cg(a, b) for every a < b, a fixpoint on a stack of relations held as
    # labels (x ↦ the least member of its class): a round relates t(x) to
    # t(label x) for every map t and every x not its own label, then closes
    # the relations; it stops when a round relates no new pair
    r = np.arange(m)
    a, b = np.nonzero(r[:, None] < r)
    labels = np.where(r == b[:, None], a[:, None], r)
    while True:
        i, x = np.nonzero(labels != r)
        tx, ty = maps[:, x], maps[:, labels[i, x]]
        apart = labels[i, tx] != labels[i, ty]
        if not apart.any():
            break
        rel = labels[:, :, None] == labels[:, None, :]
        rel[np.broadcast_to(i, tx.shape)[apart], tx[apart], ty[apart]] = True
        labels = _closure(rel | rel.transpose(0, 2, 1)).argmax(axis=-1)
    principal = np.unique(_keys(labels.astype(np.uint8)))
    generators = _relations(principal, m)
    lattice = new = np.union1d(principal, _keys(np.arange(m, dtype=np.uint8)))
    while len(new):
        joins = _classes(_relations(new, m)[:, None] | generators)
        new = np.setdiff1d(joins, lattice)
        lattice = np.union1d(lattice, new)
    return tuple(_canonical_sort([_partition_by(p, row.tolist()) for row in _rows(lattice, m)]))


def congruences_theorem(p: PolyadicGroup) -> list[Congruence]:
    """Enumerate congruences as the coset partitions of the twist-invariant
    normal subgroups of the base, mapped back to the original carrier
    (the relabelling round-trips for table presentations)."""
    hg = p.view
    base, unrelabel = hg.base, hg.unrelabel
    out = []
    for k in enumerate_subgroups(base, theta=hg.theta):
        cosets = {
            tuple(sorted(unrelabel[base.mul(x, h)] for h in k.members))
            for x in range(base.order)
        }
        out.append(Congruence(p, tuple(sorted(cosets))))
    return _canonical_sort(out)


def congruences(
    p: PolyadicGroup, strategy: Strategy = "auto", caps: Caps = DEFAULT_CAPS
) -> list[Congruence]:
    """All congruences, finest first, by the routes of the strategy."""
    return cross_check(
        "congruence",
        strategy,
        lambda: congruences_theorem(p),
        lambda: congruences_bruteforce(p, caps),
        oracle_fits(p, caps),
    )


@dataclass(frozen=True)
class KernelClass:
    """The congruence class of the base-group identity."""

    members: tuple[int, ...]
    b_related: bool


def kernel_class(r: Congruence) -> KernelClass:
    """Class of the identity; always a twist-invariant normal base subgroup.

    Also reports whether the constant b is related to the identity, which is
    exactly when the kernel class is itself a polyadic subgroup; the flag is
    read off that theorem, so no m^n table is built.  The class is found and
    checked once per congruence and stored on r.
    """
    return cached_on(r, "kernel", lambda: _kernel(r, r.ambient.view))


def _kernel(r: Congruence, hg: HosszuGloskin) -> KernelClass:
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
    b_related = r.related(identity_orig, hg.unrelabel[hg.b])
    return KernelClass(members_orig, b_related)


@dataclass(frozen=True)
class LatticeOps:
    """Meet and join of congruences R, Q; each diagnostic compares the
    partitions with base-group products of the kernels K_R, K_Q: R∘Q = Q∘R,
    R∘Q is the coset relation of K_R·K_Q (for a group, the pair-set product
    R·Q), and the join's and meet's kernels are K_R·K_Q and K_R ∩ K_Q."""

    meet: Congruence
    join: Congruence
    commutes: bool
    composition_is_product: bool
    kernel_identities: bool


def _composition(r: Congruence, q: Congruence) -> list[frozenset[int]]:
    """For each x, the z with x r y q z: the union of the q-classes that
    x's r-class meets."""
    out = [frozenset()] * r.ambient.order
    for cls in r.classes:
        image = frozenset().union(*(q.classes[c] for c in {q.class_of[y] for y in cls}))
        for x in cls:
            out[x] = image
    return out


def lattice_ops(r: Congruence, q: Congruence) -> LatticeOps:
    """Meet (intersection) and join (composition) with diagnostics, in O(m²).

    A polyadic group is congruence-permutable, so the join R∨Q is the
    relational composition R∘Q; both are read off the two partitions.
    """
    p = r.ambient
    if q.ambient != p:
        raise ValueError("congruences live on different polyadic groups")
    hg = p.view
    meet = _partition_by(p, zip(r.class_of, q.class_of))
    rq = _composition(r, q)
    join = _partition_by(p, rq)
    commutes = rq == _composition(q, r)

    base, relabel, unrelabel = hg.base, hg.relabel, hg.unrelabel
    kr = kernel_class(r).members
    kq = kernel_class(q).members
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


def sim_h(p: PolyadicGroup, h: PolyadicSubgroup | Sequence[int]) -> Congruence:
    """The congruence whose classes are the polyadic cosets of a normal h."""
    return Congruence(p, coset_classes(p, h))


def is_normal_congruence(r: Congruence) -> Optional[int]:
    """The smallest witness a such that r is the coset congruence of a·[e].

    Conditions scanned: a is related to its skew, and the twisted conjugate
    theta⁻¹(x⁻¹·a)·x is related to a for every x.  On success the subgroup
    a·kernel is rebuilt and its coset congruence must equal r.
    """
    p = r.ambient
    hg = p.view
    base, theta_inv = hg.base, hg.theta.inverse()
    relabel, unrelabel = hg.relabel, hg.unrelabel
    skew = p.skew_table
    for a_orig in range(p.order):
        if not r.related(a_orig, skew[a_orig]):
            continue
        a = relabel[a_orig]
        if not all(
            r.related(unrelabel[base.mul(theta_inv(base.mul(base.inv(x), a)), x)], a_orig)
            for x in range(base.order)
        ):
            continue
        kernel = kernel_class(r)
        members_view = [relabel[x] for x in kernel.members]
        h_view = tuple(sorted(base.mul(a, x) for x in members_view))
        h_orig = tuple(sorted(unrelabel[x] for x in h_view))
        if sim_h(p, h_orig).classes != r.classes:
            raise MethodDisagreement(
                f"witness {a_orig} satisfies both conditions but the rebuilt "
                f"subgroup {list(h_orig)} does not reproduce the congruence"
            )
        return a_orig
    return None


def quotient_by_congruence(p: PolyadicGroup, r: Congruence) -> PolyadicGroup:
    """Quotient in derived form: base modulo kernel, induced twist and
    constant; p's arity and order passed the caps when p was built."""
    hg = p.view
    kernel = kernel_class(r)
    members_view = tuple(sorted(hg.relabel[x] for x in kernel.members))
    quotient, proj, theta_r = twisted_quotient(hg.base, hg.theta, members_view)
    return _twist(quotient, theta_r, proj[hg.b], p.arity, p.name and f"{p.name}/R")
