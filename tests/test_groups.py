import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pglab.catalog import (
    A000001, catalog, catalog_group, cyclic, dihedral, direct_product, groups_of_order,
)
from pglab.errors import (
    NoIdentityAtZero,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    OrderCapExceeded,
    ValidationError,
)
from pglab.groups import (
    Automorphism,
    automorphisms,
    closure_lattice,
    enumerate_subgroups,
    invariant_subgroups,
    make_automorphism,
    make_group,
)

from reference import (
    NotInvariant, inner_automorphism, is_identity, is_inner, is_normal_subgroup, quotient_group,
    subgroup_closure, twisted_quotient,
)

Z3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
KLEIN_TABLE = [[i ^ j for j in range(4)] for i in range(4)]
# Latin square with identity at 0 that fails associativity: (1·1)·2 != 1·(1·2)
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def brute_subgroups(group):
    """Oracle: check all subsets for closure under product and inverse."""
    m = group.order
    out = []
    for mask in range(1, 1 << m):
        members = [i for i in range(m) if mask >> i & 1]
        if 0 not in members:
            continue
        mset = set(members)
        closed = all(
            group.mul(a, b) in mset and group.inv(a) in mset
            for a in members
            for b in members
        )
        if closed:
            out.append(tuple(members))
    out.sort(key=lambda s: (len(s), s))
    return out


def brute_automorphisms(group):
    """Oracle: scan every permutation fixing 0."""
    m = group.order
    out = []
    for perm in itertools.permutations(range(m)):
        if perm[0] != 0:
            continue
        if all(
            perm[group.mul(i, j)] == group.mul(perm[i], perm[j])
            for i in range(m)
            for j in range(m)
        ):
            out.append(perm)
    return sorted(out)


class TestMakeGroup:
    def test_cyclic_three(self):
        g = make_group(Z3_TABLE)
        assert g.order == 3
        assert g.mul(1, 2) == 0

    def test_latin_square_violation(self):
        with pytest.raises(NotLatinSquare, match="row 1"):
            make_group([[0, 1], [1, 1]])

    def test_klein_is_abelian(self):
        g = make_group(KLEIN_TABLE)
        assert (g.np_table == g.np_table.T).all()
        assert g.inverses == (0, 1, 2, 3)

    def test_identity_violation(self):
        with pytest.raises(NoIdentityAtZero):
            make_group([[1, 0], [0, 1]])

    def test_associativity_violation(self):
        with pytest.raises(NotAssociative):
            make_group(LOOP5)

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            make_group([[0] * 20 for _ in range(20)])

    @pytest.mark.parametrize("table", [[[0, 1], [1]], [[0, 1], [1, 5]], [[0, 1], [1, -1]]])
    def test_malformed_table_is_a_validation_error(self, table):
        with pytest.raises(ValidationError):
            make_group(table)

    def test_hash_is_by_value_and_stable(self):
        g, h = make_group(KLEIN_TABLE, name="V"), make_group(KLEIN_TABLE)
        assert g is not h and g == h
        assert hash(g) == hash(h) == hash(g) == hash((g.table,))
        assert len({g, h, make_group(Z3_TABLE)}) == 2


class TestSubgroups:
    def test_z4_all(self):
        z4 = catalog_group("Z4")
        got = [s.members for s in enumerate_subgroups(z4)]
        assert got == [(0,), (0, 2), (0, 1, 2, 3)]
        assert got == brute_subgroups(z4)

    def test_z9_inversion_invariant_normal(self):
        z9 = catalog_group("Z9")
        theta = Automorphism(tuple((-x) % 9 for x in range(9)))
        got = [
            s.members
            for s in enumerate_subgroups(z9, theta=theta)
        ]
        assert got == [(0,), (0, 3, 6), tuple(range(9))]

    def test_klein_swap_invariant(self):
        v4 = catalog_group("Z2xZ2")
        swap = Automorphism((0, 2, 1, 3))
        got = [
            s.members
            for s in enumerate_subgroups(v4, theta=swap)
        ]
        assert got == [(0,), (0, 3), (0, 1, 2, 3)]

    @pytest.mark.parametrize("name", ["Z6", "S3", "D4", "Q8", "Z2xZ4"])
    def test_matches_subset_oracle(self, name):
        g = catalog_group(name)
        assert [s.members for s in enumerate_subgroups(g)] == brute_subgroups(g)

    def test_normal_filter_s3(self):
        s3 = catalog_group("S3")
        got = [s.members for s in enumerate_subgroups(s3, Automorphism.identity(6))]
        assert [len(m) for m in got] == [1, 3, 6]

    def test_invariant_normal_equals_definition(self):
        # for every automorphism of every catalog group of order <= 11, the
        # lattice-mask test keeps exactly the theta-invariant normal subgroups
        for g in [g for g in catalog().values() if g.order <= 11]:
            for theta in automorphisms(g):
                assert [s.members for s in enumerate_subgroups(g, theta)] == [
                    members for members in g.subgroup_lattice
                    if {theta(x) for x in members} == set(members)
                    and is_normal_subgroup(g, members)
                ]

    def test_lattice_equals_product_closure_lattice(self):
        # the span walk closes each seed; the reference closes it by products
        v, z4 = catalog_group("Z2xZ2"), catalog_group("Z4")
        extra = [direct_product(v, v), direct_product(z4, z4), dihedral(8)]
        for g in [*catalog().values(), *extra]:
            reference = closure_lattice(partial(subgroup_closure, g.table), g.order)
            assert g.subgroup_lattice == reference, g

    def test_invariant_subgroups_per_permutation(self):
        # row i of the matrix: the subgroups perms[i] maps onto itself
        d4 = catalog_group("D4")
        perms = np.vstack([d4.conj_table, [a.perm for a in automorphisms(d4)]])
        kept = invariant_subgroups(d4, perms)
        assert kept.shape == (len(perms), len(d4.subgroup_lattice))
        for perm, row in zip(perms.tolist(), kept):
            assert row.tolist() == [
                {perm[x] for x in members} == set(members) for members in d4.subgroup_lattice
            ]


class TestAutomorphisms:
    def test_z3(self):
        got = [a.perm for a in automorphisms(catalog_group("Z3"))]
        assert got == [(0, 1, 2), (0, 2, 1)]

    def test_klein_has_six(self):
        v4 = catalog_group("Z2xZ2")
        got = [a.perm for a in automorphisms(v4)]
        assert len(got) == 6
        assert got == brute_automorphisms(v4)

    def test_trivial_group(self):
        assert [a.perm for a in automorphisms(catalog_group("Z1"))] == [(0,)]

    @pytest.mark.parametrize("name", [n for n, g in catalog().items() if g.order <= 8])
    def test_matches_permutation_oracle(self, name):
        g = catalog_group(name)
        assert [a.perm for a in automorphisms(g)] == brute_automorphisms(g)

    def test_group_closure(self):
        s3 = catalog_group("S3")
        auts = {a.perm for a in automorphisms(s3)}
        for a in auts:
            assert Automorphism(a).inverse().perm in auts
            for b in auts:
                assert Automorphism(a).compose(Automorphism(b)).perm in auts
        assert tuple(range(6)) in auts

    def test_cap(self):
        from pglab.config import Caps

        with pytest.raises(OrderCapExceeded):
            automorphisms(cyclic(6), caps=Caps(order_cap=4))

    def test_make_automorphism_rejects_non_hom(self):
        from pglab.errors import NotAutomorphism

        with pytest.raises(NotAutomorphism):
            make_automorphism(catalog_group("Z4"), (0, 2, 1, 3))


class TestInnerAutomorphisms:
    def test_abelian_inner_trivial(self):
        z6 = catalog_group("Z6")
        for a in range(6):
            assert is_identity(inner_automorphism(z6, a))

    def test_s3_transposition_fixed_points(self):
        s3 = catalog_group("S3")
        transpositions = [a for a in range(6) if s3.element_orders[a] == 2]
        for a in transpositions:
            conj = inner_automorphism(s3, a)
            fixed = [x for x in range(6) if conj(x) == x]
            assert fixed == sorted([0, a])

    def test_identity_element_gives_identity(self):
        assert is_identity(inner_automorphism(catalog_group("D4"), 0))

    def test_is_inner_inversion_on_z9(self):
        z9 = catalog_group("Z9")
        inv = Automorphism(tuple((-x) % 9 for x in range(9)))
        assert is_inner(z9, inv) is None

    def test_is_inner_identity(self):
        assert is_inner(catalog_group("D4"), Automorphism.identity(8)) == 0

    def test_is_inner_s3(self):
        s3 = catalog_group("S3")
        assert is_inner(s3, inner_automorphism(s3, 1)) == 1

    @given(st.sampled_from(["S3", "D4", "Q8", "Z6"]), st.data())
    def test_composition_law(self, name, data):
        g = catalog_group(name)
        a = data.draw(st.integers(0, g.order - 1))
        b = data.draw(st.integers(0, g.order - 1))
        lhs = inner_automorphism(g, a).compose(inner_automorphism(g, b))
        assert lhs.perm == inner_automorphism(g, g.mul(a, b)).perm


class TestQuotients:
    def test_z4_mod_two(self):
        q, proj = quotient_group(catalog_group("Z4"), (0, 2))
        assert q.table == ((0, 1), (1, 0))
        assert proj == (0, 1, 0, 1)

    def test_whole_group_quotient(self):
        g = catalog_group("S3")
        q, proj = quotient_group(g, tuple(range(6)))
        assert q.order == 1
        assert set(proj) == {0}

    def test_z9_mod_three(self):
        q, proj = quotient_group(catalog_group("Z9"), (0, 3, 6))
        assert q.table == tuple(tuple((i + j) % 3 for j in range(3)) for i in range(3))
        assert proj == (0, 1, 2, 0, 1, 2, 0, 1, 2)

    def test_not_normal_rejected(self):
        s3 = catalog_group("S3")
        h = next(
            s.members for s in enumerate_subgroups(s3) if s.size == 2
        )
        with pytest.raises(NotNormal):
            quotient_group(s3, h)

    @pytest.mark.parametrize("name", ["Z8", "D4", "Q8"])
    def test_projection_is_hom_with_kernel(self, name):
        g = catalog_group(name)
        for sub in enumerate_subgroups(g, Automorphism.identity(g.order)):
            q, proj = quotient_group(g, sub)
            for a in range(g.order):
                for b in range(g.order):
                    assert proj[g.mul(a, b)] == q.mul(proj[a], proj[b])
            assert {x for x in range(g.order) if proj[x] == 0} == set(sub.members)
            assert set(proj) == set(range(q.order))


class TestInducedAutomorphism:
    def test_z9_inversion(self):
        z9 = catalog_group("Z9")
        theta = Automorphism(tuple((-x) % 9 for x in range(9)))
        got = twisted_quotient(z9, theta, (0, 3, 6))[2]
        assert got.perm == (0, 2, 1)

    def test_identity_induces_identity(self):
        d4 = catalog_group("D4")
        sub = next(s for s in enumerate_subgroups(d4, Automorphism.identity(8)) if s.size == 2)
        got = twisted_quotient(d4, Automorphism.identity(8), sub.members)[2]
        assert is_identity(got)

    def test_whole_group(self):
        z4 = catalog_group("Z4")
        got = twisted_quotient(z4, Automorphism((0, 3, 2, 1)), (0, 1, 2, 3))[2]
        assert got.perm == (0,)

    def test_rejects_non_invariant(self):
        v4 = catalog_group("Z2xZ2")
        swap = Automorphism((0, 2, 1, 3))
        with pytest.raises(NotInvariant):
            twisted_quotient(v4, swap, (0, 1))[2]

    def test_commutes_with_projection(self):
        z9 = catalog_group("Z9")
        theta = Automorphism(tuple((4 * x) % 9 for x in range(9)))
        _, proj = quotient_group(z9, (0, 3, 6))
        induced = twisted_quotient(z9, theta, (0, 3, 6))[2]
        for x in range(9):
            assert induced(proj[x]) == proj[theta(x)]


class TestCatalog:
    def test_orders(self):
        expected = {
            "Z2xZ2": 4, "Z2xZ4": 8, "Z2xZ2xZ2": 8,
            "S3": 6, "D4": 8, "Q8": 8, "D5": 10, "A4": 12, "Z3xZ3": 9,
        }
        for name, order in expected.items():
            assert catalog_group(name).order == order

    def test_identity_pinned_at_zero(self):
        for g in catalog().values():
            for i in range(g.order):
                assert g.mul(0, i) == i and g.mul(i, 0) == i

    def test_groups_of_order_eight(self):
        names = [g.name for g in groups_of_order(8)]
        assert names == ["Z8", "Z2xZ4", "Z2xZ2xZ2", "D4", "Q8"]

    def test_complete_through_order_eleven(self):
        assert [len(groups_of_order(m)) for m in range(1, 12)] == list(A000001[:11])

    @given(st.sampled_from(sorted(catalog())), st.data())
    def test_cancellation(self, name, data):
        g = catalog_group(name)
        i = data.draw(st.integers(0, g.order - 1))
        j = data.draw(st.integers(0, g.order - 1))
        k = data.draw(st.integers(0, g.order - 1))
        if g.mul(i, j) == g.mul(i, k):
            assert j == k
        if g.mul(j, i) == g.mul(k, i):
            assert j == k
