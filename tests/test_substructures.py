import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pglab import polyadic, substructures
from pglab.catalog import catalog, catalog_group, cyclic, dihedral, direct_product, quaternion8
from pglab.congruence import (
    congruences_bruteforce, congruences_theorem, enumerate_normal_polyadic, quotient_polyadic,
)
from pglab.errors import CostCapExceeded, NotNormal, ValidationError
from pglab.groups import Automorphism, enumerate_subgroups, make_group
from pglab.morphisms import is_polyadic_hom
from pglab.polyadic import (
    PolyadicGroup, all_derived, as_table, derive, derive_b, from_table, n_ary_identity,
    verify_axioms,
)
from pglab.config import DEFAULT_CAPS, Caps
from pglab.simplicity import census, simplicity_report
from pglab.substructures import (
    _conjugates,
    _oracle_subgroups,
    _subset_scan,
    coset_classes,
    enumerate_polyadic_subgroups,
    is_normal_polyadic,
    is_polyadic_subgroup,
)

from reference import (
    cube, gu_group, gu_inv, gu_psi_raw, gu_star, is_identity, is_normal_subgroup,
    no_derived_table, normal_by_conjugate_table, polyadic_coset, reference_cube_scan,
    reference_normal_scan, reference_theorem_subgroups, right_translate, sim_h, z2_4,
)


def reference_subset_scan(p):
    """The per-mask Python scan the batched oracle replaced: skew and
    diagonal images, then closure under f, one subset at a time."""
    m = p.order
    diag = [p.eval([x] * p.arity) for x in range(m)]
    out = []
    for mask in range(1, 1 << m):
        members = tuple(i for i in range(m) if mask >> i & 1)
        mset = set(members)
        if any(p.skew(x) not in mset or diag[x] not in mset for x in members):
            continue
        idx = np.asarray(members)
        if set(cube(p)[np.ix_(*([idx] * p.arity))].ravel().tolist()) <= mset:
            out.append(members)
    return tuple(out)


def unary_rows(p, normal=False):
    """The unary maps an oracle's scan filters by: skew and the diagonal,
    and for the normal oracle every conjugation h ↦ conj[x, h] too."""
    return np.vstack([p.skew_table, p.diagonal] + ([_conjugates(p)] if normal else []))


def fresh(p):
    """A copy of p with nothing stored on it: no scan, no closure verdict."""
    return PolyadicGroup(p.arity, p.presentation, p.name)


def relabelled(p, sigma):
    """p as a raw table carried along the permutation sigma of its carrier."""
    grid = sigma[cube(p)[np.ix_(*([np.argsort(sigma)] * p.arity))]]
    return from_table(p.arity, p.order, grid.ravel().tolist(), verify=False)


class TestGuGroup:
    def test_anchor_at_identity_recovers_base(self, structs):
        gu = gu_group(structs["T3"], 0)
        assert gu.group.table == catalog_group("Z3").table
        assert is_identity(gu.psi_u)
        assert gu.relabel == (0, 1, 2)

    def test_alternating_anchor_one(self, structs):
        gu = gu_group(structs["T4inv"], 1)
        # pre-relabel law: x∗y = x - 1 + y and psi(x) = 2 - x
        assert [gu_star(gu, x, 2) for x in range(4)] == [1, 2, 3, 0]
        assert [gu_psi_raw(gu, x) for x in range(4)] == [2, 1, 0, 3]

    def test_inversion_twist_anchor_zero(self, structs):
        gu = gu_group(structs["T9"], 0)
        assert gu.psi_u.perm == tuple((-x) % 9 for x in range(9))

    def test_pre_relabel_law(self, small_corpus):
        for p in small_corpus[::6]:
            base = p.presentation.base
            for u in range(p.order):
                gu = gu_group(p, u)
                assert gu_star(gu, u, u) == u  # u is the twisted identity
                for x in range(p.order):
                    assert gu_star(gu, x, gu_inv(gu, x)) == u
                    # the twist is a homomorphism for the twisted product
                    for y in range(p.order):
                        assert gu_psi_raw(gu, gu_star(gu, x, y)) == gu_star(
                            gu, gu_psi_raw(gu, x), gu_psi_raw(gu, y)
                        )

    def test_relabel_transports_to_base(self, structs):
        p = structs["V4swap"]
        for u in range(4):
            gu = gu_group(p, u)
            for x in range(4):
                for y in range(4):
                    lhs = gu.relabel[gu_star(gu, x, y)]
                    assert lhs == gu.group.mul(gu.relabel[x], gu.relabel[y])


class TestEnumerateSubgroups:
    def test_plain_sum(self, structs):
        got = [s.members for s in enumerate_polyadic_subgroups(structs["T3"])]
        assert got == [(0,), (0, 1, 2)]

    def test_shifted_sum_only_whole(self, structs):
        got = [s.members for s in enumerate_polyadic_subgroups(structs["T2b"])]
        assert got == [(0, 1)]

    def test_alternating_sum_singletons(self, structs):
        got = [s.members for s in enumerate_polyadic_subgroups(structs["T4inv"])]
        assert got == [(0,), (1,), (2,), (3,), (0, 2), (1, 3), (0, 1, 2, 3)]

    def test_strategies_agree_on_corpus_sample(self, corpus):
        for p in corpus[::17]:
            oracle = [
                s.members for s in enumerate_polyadic_subgroups(p, strategy="oracle")
            ]
            theorem = [
                s.members for s in enumerate_polyadic_subgroups(p, strategy="theorem")
            ]
            assert oracle == theorem

    def test_oracle_equals_reference_scan(self, small_corpus, twists_9_10):
        for p in small_corpus + [as_table(p) for p in small_corpus] + twists_9_10:
            assert _oracle_subgroups(p, DEFAULT_CAPS) == reference_subset_scan(p)

    @pytest.mark.parametrize("cells", range(1, 8))
    def test_scan_in_small_blocks(self, small_corpus, monkeypatch, cells):
        monkeypatch.setattr(polyadic, "_BLOCK_CELLS", cells)
        for p in small_corpus[cells::9]:
            # each scan on its own fresh copy, so each decides its own masks
            assert _subset_scan(fresh(p), []) == reference_subset_scan(p)
            q = fresh(p)
            assert _subset_scan(q, [_conjugates(q)]) == reference_normal_scan(p)

    def test_is_polyadic_subgroup_spot(self, structs):
        assert is_polyadic_subgroup(structs["T4inv"], (0, 2))
        assert not is_polyadic_subgroup(structs["T2b"], (0,))


class TestNormality:
    def test_whole_set_always_normal(self, structs):
        for p in structs.values():
            whole = tuple(range(p.order))
            assert is_normal_polyadic(p, whole)
            assert normal_by_conjugate_table(p, whole)

    def test_diagonal_of_swap(self, structs):
        assert is_normal_polyadic(structs["V4swap"], (0, 3))
        assert normal_by_conjugate_table(structs["V4swap"], (0, 3))

    @pytest.mark.parametrize("members", [[], [1], [1, 2]], ids=["empty", "singleton", "pair"])
    def test_no_polyadic_subgroup_is_not_normal(self, structs, members):
        # on der(Z3, id, 0, 3) none of these is closed under f; each has
        # its twisted conjugates inside
        p = structs["T3"]
        assert not is_polyadic_subgroup(p, members)
        assert not is_normal_polyadic(p, members)

    def test_alternating_singleton_not_normal(self, structs):
        assert not is_normal_polyadic(structs["T4inv"], (1,))
        assert not normal_by_conjugate_table(structs["T4inv"], (1,))

    def test_inversion_twist_only_whole(self, structs):
        got = [s.members for s in enumerate_normal_polyadic(structs["T9"])]
        assert got == [tuple(range(9))]

    def test_swap_twist(self, structs):
        got = [s.members for s in enumerate_normal_polyadic(structs["V4swap"])]
        assert got == [(0, 3), (1, 2), (0, 1, 2, 3)]

    def test_plain_sum(self, structs):
        got = [s.members for s in enumerate_normal_polyadic(structs["T3"])]
        assert got == [(0,), (0, 1, 2)]

    def test_strategies_agree_on_corpus_sample(self, corpus):
        for p in corpus[::17]:
            oracle = [
                s.members for s in enumerate_normal_polyadic(p, strategy="oracle")
            ]
            theorem = [
                s.members for s in enumerate_normal_polyadic(p, strategy="theorem")
            ]
            assert oracle == theorem


    def test_binary_oracle_reads_only_the_operation(self, monkeypatch):
        """At arity 2 the normal oracle checks x⁻¹·h·x in the table and never
        reads the derived view, yet equals the theorem route."""
        twists = [p for g in catalog().values() if g.order <= 8 for p in all_derived(g, 2)]
        structures = twists + [as_table(p) for p in twists]
        theorem = [enumerate_normal_polyadic(p, strategy="theorem") for p in structures]

        def no_view(p):
            raise AssertionError("the oracle read the derived view")

        monkeypatch.setattr(PolyadicGroup, "view", property(no_view))
        oracle = [enumerate_normal_polyadic(p, strategy="oracle") for p in structures]
        assert len(structures) == 2 * 78 and oracle == theorem


ORDER_12_TO_16 = {
    "Z2xZ6": lambda: direct_product(cyclic(2), cyclic(6)),
    "Z2xZ7": lambda: direct_product(cyclic(2), cyclic(7)),
    "Z2^4": lambda: direct_product(direct_product(catalog_group("Z2xZ2"), cyclic(2)), cyclic(2)),
    "Z4xZ4": lambda: direct_product(cyclic(4), cyclic(4)),
    "Z2xZ8": lambda: direct_product(cyclic(2), cyclic(8)),
}

ORDER_16 = {name: ORDER_12_TO_16[name] for name in ("Z2^4", "Z4xZ4", "Z2xZ8")} | {
    "Z16": lambda: cyclic(16),
    "D8": lambda: dihedral(8),
    "Q8xZ2": lambda: direct_product(quaternion8(), cyclic(2)),
}


@pytest.fixture(scope="module")
def twists_to_11():
    """Every valid twist of every catalog group, orders 1-11, arities 2-5."""
    bases = [g for g in catalog().values() if g.order <= 11]
    return [p for g in bases for n in (2, 3, 4, 5) for p in all_derived(g, n)]


class TestNormalScan:
    """The normal oracle scans only the subsets closed under skew, the
    diagonal and every conjugation; before, it filtered the subgroup scan
    by the definition (reference_normal_scan).  The two must agree."""

    def test_equals_reference_on_corpus(self, corpus):
        rng = random.Random(25)
        for p in corpus:
            sigma = np.asarray(rng.sample(range(p.order), p.order))
            for q in (p, as_table(p), relabelled(p, sigma)):
                assert _oracle_subgroups(q, DEFAULT_CAPS, normal=True) == reference_normal_scan(q)

    @pytest.mark.parametrize("name", sorted(ORDER_12_TO_16))
    def test_equals_reference_on_orders_12_to_16(self, name):
        base = ORDER_12_TO_16[name]()
        rng = random.Random(base.order)
        for arity in (3, 4, 5):
            for p in rng.sample(all_derived(base, arity), 3):
                assert _oracle_subgroups(p, DEFAULT_CAPS, normal=True) == reference_normal_scan(p)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_equals_reference_on_random_twists(self, twists_to_11, data):
        p = data.draw(st.sampled_from(twists_to_11))
        t = relabelled(p, np.asarray(data.draw(st.permutations(range(p.order)))))
        for q in (p, t):
            assert _oracle_subgroups(q, DEFAULT_CAPS, normal=True) == reference_normal_scan(q)

    @pytest.mark.parametrize("normal", [False, True])
    def test_closure_sees_only_filtered_subsets(self, small_corpus, monkeypatch, normal):
        """Each subset the scan checks for closure is closed under every
        unary map the oracle passes (skew, the diagonal, the conjugations
        for the normal one) and has 2..m−1 members: a singleton is settled
        by the diagonal row, the whole carrier needs no check."""
        checked = []
        real = substructures._closed
        monkeypatch.setattr(
            substructures, "_closed", lambda q, rows: checked.append(rows) or real(q, rows)
        )
        seen = 0
        for p in small_corpus:
            t = as_table(p)  # a fresh structure: nothing of it is stored yet
            checked.clear()
            _oracle_subgroups(t, DEFAULT_CAPS, normal)
            images = unary_rows(t, normal)
            for rows in checked:
                for row in rows:
                    members = np.flatnonzero(row)
                    assert 1 < len(members) < t.order
                    assert set(images[:, members].ravel().tolist()) <= set(members.tolist())
                seen += len(rows)
        assert seen > 0


class TestSharedVerdicts:
    """The two oracle scans on one structure share its closure verdicts, one
    a mask: the normal scan after the subgroup scan sends _closed no row,
    the subgroup scan after the normal scan sends it only the masks the
    normal scan left undecided, no mask is decided twice on one structure,
    and in both orders both answers equal the references."""

    @pytest.fixture
    def decided(self, monkeypatch):
        """The masks of the rows _closed is sent, in call order."""
        masks, real = [], substructures._closed
        monkeypatch.setattr(
            substructures, "_closed",
            lambda q, rows: masks.extend((rows @ (1 << np.arange(q.order))).tolist())
            or real(q, rows),
        )
        return masks

    @staticmethod
    def assert_shared(p, decided, subgroups, normal):
        decided.clear()
        q = fresh(p)
        assert _oracle_subgroups(q, DEFAULT_CAPS) == subgroups
        by_subgroup_scan = list(decided)
        assert _oracle_subgroups(q, DEFAULT_CAPS, normal=True) == normal
        assert decided == by_subgroup_scan  # the normal scan sent no row

        decided.clear()
        q = fresh(p)
        assert _oracle_subgroups(q, DEFAULT_CAPS, normal=True) == normal
        by_normal_scan = set(decided)
        assert _oracle_subgroups(q, DEFAULT_CAPS) == subgroups
        assert len(set(decided)) == len(decided)  # no mask decided twice
        assert set(decided) == set(by_subgroup_scan) >= by_normal_scan
        return len(by_normal_scan)

    def test_corpus_and_table_forms(self, corpus, decided):
        shared = 0
        for p in corpus + [as_table(p) for p in corpus[::3]]:
            subgroups, normal = reference_subset_scan(p), reference_normal_scan(p)
            shared += self.assert_shared(p, decided, subgroups, normal)
        assert shared > 0

    @pytest.mark.parametrize("name", sorted(ORDER_12_TO_16))
    def test_orders_12_to_16(self, name, decided):
        base = ORDER_12_TO_16[name]()
        rng = random.Random(base.order)
        for arity in (3, 4, 5):
            for p in rng.sample(all_derived(base, arity), 3):
                # the per-mask Python reference takes minutes at order 16; the
                # cube scan is its batched form
                subgroups = reference_cube_scan(p, np.vstack([p.skew_table, p.diagonal]))
                self.assert_shared(p, decided, subgroups, reference_normal_scan(p))


def spy_routes(monkeypatch) -> list:
    """Record, as (p, route) pairs, each run of the subgroup theorem route
    ("theorem") and of the subset scan, with extra rows ("normal scan") or
    without ("scan")."""
    runs, scan, theorem = [], substructures._subset_scan, substructures._theorem_subgroups

    def spied_scan(p, extra_rows):
        runs.append((p, "normal scan" if len(extra_rows) else "scan"))
        return scan(p, extra_rows)

    def spied_theorem(p):
        runs.append((p, "theorem"))
        return theorem(p)

    monkeypatch.setattr(substructures, "_subset_scan", spied_scan)
    monkeypatch.setattr(substructures, "_theorem_subgroups", spied_theorem)
    return runs


def assert_routes_agree(p):
    """Theorem and oracle give the same polyadic subgroups, normal ones and
    congruences, and a report runs both routes."""
    for enumerate_ in (enumerate_polyadic_subgroups, enumerate_normal_polyadic):
        theorem = [s.members for s in enumerate_(p, strategy="theorem")]
        oracle = [s.members for s in enumerate_(p, strategy="oracle")]
        assert theorem == oracle
    oracle = congruences_bruteforce(p)
    assert [c.classes for c in oracle] == [c.classes for c in congruences_theorem(p)]
    assert simplicity_report(p).method == "both"


class TestBeyondDefaultOracleRange:
    """Orders 13-16 and arities whose m^n table is past axiom_cost_cap: the
    filtered subset scan (Post's closure families) and the Mal'cev
    congruence oracle (Post's translations) are the independent checks of
    the theorem routes there, "auto" runs both oracles, and on derived
    input no route builds the m^n table."""

    @pytest.mark.parametrize(
        "base",
        [
            dihedral(7),
            cyclic(13),
            direct_product(cyclic(2), cyclic(8)),
            direct_product(quaternion8(), cyclic(2)),
            dihedral(8),
            direct_product(direct_product(catalog_group("Z2xZ2"), cyclic(2)), cyclic(2)),
            direct_product(cyclic(4), cyclic(4)),
            cyclic(16),
        ],
        ids=["D7", "Z13", "Z2xZ8", "Q8xZ2", "D8", "Z2^4", "Z4xZ4", "Z16"],
    )
    def test_theorem_equals_closure_oracle(self, base, monkeypatch):
        rng = random.Random(base.order)
        no_derived_table(monkeypatch)
        for arity in (3, 4, 5):
            for p in rng.sample(all_derived(base, arity), 3):
                assert_routes_agree(p)

    @pytest.mark.parametrize(
        "images, arity, counts",
        [((1, 2, 4, 8), 8, (67, 67, 67)), ((2, 4, 8, 15), 6, (17, 1, 2))],
        ids=["id-8", "theta5-6"],
    )
    def test_z2_4_past_the_table_cap(self, monkeypatch, images, arity, counts):
        # θ₅ (the companion map of x⁴+x³+x²+x+1) has order 5, so θ₅^5 = id
        p = z2_4(images, arity)
        assert p.order**arity > DEFAULT_CAPS.axiom_cost_cap
        no_derived_table(monkeypatch)
        assert_routes_agree(p)
        subs, normal = enumerate_polyadic_subgroups(p), enumerate_normal_polyadic(p)
        assert (len(subs), len(normal), len(congruences_theorem(p))) == counts

    def test_census_8_8_representatives(self, monkeypatch):
        entries = census(8, 8)
        assert len(entries) == 7 and all(e.report.method == "both" for e in entries)
        no_derived_table(monkeypatch)
        for e in entries:
            r = e.representative
            assert_routes_agree(PolyadicGroup(r.arity, r.presentation))

    def test_no_table_on_derived_input(self, corpus, monkeypatch):
        """Both routes of the subgroup, normal and simplicity deciders run
        on every sampled derived structure, and none builds its m^n table."""
        no_derived_table(monkeypatch)
        runs = spy_routes(monkeypatch)
        for r in corpus[::7]:
            p = PolyadicGroup(r.arity, r.presentation)
            enumerate_polyadic_subgroups(p)
            enumerate_normal_polyadic(p)
            assert simplicity_report(p).method == "both"
            assert {route for q, route in runs if q is p} == {"theorem", "scan", "normal scan"}
            assert {"normal_theorem", "normal_oracle_scan", "congruences_oracle"} <= set(p.__dict__)


class TestSubsetScanCap:
    """The subset scan runs only inside the oracles' one gate: its m·2^m
    mask fits axiom_cost_cap, and the order fits a packed key.  Outside it
    the scan is refused before the mask is built; inside it, a derived
    group's scan builds no m^n table, however large that table would be."""

    def test_order_24_refused_before_the_scan(self, monkeypatch):
        caps = Caps(order_cap=24)
        base = make_group([[(i + j) % 24 for j in range(24)] for i in range(24)], caps=caps)
        p = derive_b(base, 0, 3, caps=caps)
        monkeypatch.setattr(substructures, "_subset_scan", lambda p, rows: pytest.fail("scan ran"))
        monkeypatch.setattr(substructures, "_conjugates", lambda p: pytest.fail("table built"))
        for enumerate_ in (enumerate_polyadic_subgroups, enumerate_normal_polyadic):
            with pytest.raises(CostCapExceeded, match="402653184 cells") as err:
                enumerate_(p, strategy="oracle", caps=caps)
            assert err.value.cap == "axiom_cost_cap"
        assert not {"diagonal", "normal_oracle_scan"} & set(p.__dict__)

    def test_large_arity_subgroup_oracle_builds_no_table(self, monkeypatch):
        # 12^8 ≈ 4.3e8 cells a table would hold; the mask is only 12·2^12
        p = derive_b(cyclic(12), 0, 8)
        runs = spy_routes(monkeypatch)
        both = enumerate_polyadic_subgroups(p)
        assert sorted(route for _, route in runs) == ["scan", "theorem"]  # auto ran the oracle too
        assert both == enumerate_polyadic_subgroups(p, "oracle")
        assert both == enumerate_polyadic_subgroups(p, "theorem")
        assert "flat_np" not in p.__dict__

    def test_large_arity_normal_oracle_builds_no_table(self):
        p = derive_b(cyclic(12), 0, 8)
        both = enumerate_normal_polyadic(p)
        assert "normal_oracle_scan" in p.__dict__
        assert both == enumerate_normal_polyadic(p, "oracle")
        assert both == enumerate_normal_polyadic(p, "theorem")
        assert "flat_np" not in p.__dict__

    @pytest.mark.parametrize("slack, runs", [(-1, False), (0, True)])
    def test_gate_is_the_mask_size(self, slack, runs):
        caps = Caps(axiom_cost_cap=(13 << 13) + slack)
        p = derive_b(cyclic(13), 0, 3)
        if runs:
            assert len(_oracle_subgroups(p, caps)) == 2
        else:
            with pytest.raises(CostCapExceeded):
                _oracle_subgroups(p, caps)


class TestTheoremMask:
    """The theorem route tests every pair (u, K) at once on the lattice
    masks; before, it built one G_u per u and walked the lattice a frozenset
    at a time (reference_theorem_subgroups).  The two must agree."""

    def test_equals_reference_on_corpus(self, corpus):
        rng = random.Random(26)
        for p in corpus:
            sigma = np.asarray(rng.sample(range(p.order), p.order))
            for q in (p, as_table(p), relabelled(p, sigma)):
                got = [s.members for s in enumerate_polyadic_subgroups(q, "theorem")]
                assert got == list(reference_theorem_subgroups(q))

    @pytest.mark.parametrize("name", ["Z2^4", "Z4xZ4", "Z2xZ8", "Z16", "D8", "Q8xZ2"])
    def test_equals_reference_on_order_16(self, name):
        base = ORDER_16[name]()
        rng = random.Random(16)
        for arity in (3, 5):
            for p in rng.sample(all_derived(base, arity), 4):
                for q in (p, relabelled(p, np.asarray(rng.sample(range(16), 16)))):
                    got = [s.members for s in enumerate_polyadic_subgroups(q, "theorem")]
                    assert got == list(reference_theorem_subgroups(q))


class TestShiftCorrespondence:
    def test_both_directions(self, small_corpus):
        # base subgroup is twist-invariant normal exactly when its shift by u
        # is a psi_u-invariant normal subgroup of G_u
        for p in small_corpus[::4]:
            base = p.presentation.base
            theta = p.presentation.theta
            subgroups = [s.members for s in enumerate_subgroups(base)]
            for u in range(p.order):
                gu = gu_group(p, u)
                for members in subgroups:
                    invariant_normal = (
                        frozenset(theta(x) for x in members) == frozenset(members)
                        and is_normal_subgroup(base, members)
                    )
                    shifted = right_translate(base, members, u)
                    assert invariant_normal == _gu_invariant_normal(gu, shifted, p)

    def test_singleton_shift(self, structs):
        p = structs["T4inv"]
        base = p.presentation.base
        assert right_translate(base, (0, 2), 1) == (1, 3)


def _gu_invariant_normal(gu, members, p) -> bool:
    mset = set(members)
    if gu.u not in mset:
        return False
    for x in members:
        if gu_inv(gu, x) not in mset:
            return False
        for y in members:
            if gu_star(gu, x, y) not in mset:
                return False
    if frozenset(gu_psi_raw(gu, x) for x in members) != mset:
        return False
    return all(
        gu_star(gu, gu_star(gu, gu_inv(gu, x), h), x) in mset
        for x in range(p.order)
        for h in members
    )


class TestCosets:
    def test_swap_coset(self, structs):
        assert polyadic_coset(structs["V4swap"], (0, 3), 2) == (1, 2)

    def test_member_coset_is_subgroup(self, structs):
        p = structs["V4swap"]
        for h in enumerate_normal_polyadic(p):
            for x in h.members:
                assert polyadic_coset(p, h, x) == h.members

    def test_singleton_subgroup(self, structs):
        assert polyadic_coset(structs["T3"], (0,), 2) == (2,)
        assert polyadic_coset(structs["T3"], (), 2) == ()

    def test_cosets_partition(self, corpus):
        for p in corpus[::23]:
            for h in enumerate_normal_polyadic(p):
                cosets = {polyadic_coset(p, h, x) for x in range(p.order)}
                assert sum(len(c) for c in cosets) == p.order
                assert all(len(c) == h.size for c in cosets)

    def test_coset_is_the_whole_block(self, corpus):
        # {f(x, h1, ..., h_{n-1})} over every (n−1)-tuple of members, on
        # every polyadic subgroup, normal or not
        for p in corpus:
            if p.order > 4:
                continue
            for h in enumerate_polyadic_subgroups(p):
                for x in range(p.order):
                    block = {
                        p.eval([x, *hs])
                        for hs in itertools.product(h.members, repeat=p.arity - 1)
                    }
                    assert polyadic_coset(p, h, x) == tuple(sorted(block))


class TestQuotient:
    def test_swap_quotient_is_reduced(self, structs):
        q = quotient_polyadic(structs["V4swap"], (0, 3))
        assert [list(c) for c in q.classes] == [[0, 3], [1, 2]]
        assert n_ary_identity(q.quotient) is not None
        assert verify_axioms(q.quotient).ok

    def test_whole_subgroup_gives_point(self, structs):
        q = quotient_polyadic(structs["T9"], tuple(range(9)))
        assert q.quotient.order == 1

    def test_trivial_subgroup_copies(self, structs):
        q = quotient_polyadic(structs["T3"], (0,))
        assert q.quotient.order == 3
        assert n_ary_identity(q.quotient) is not None

    def test_rejects_non_normal(self, structs):
        with pytest.raises(NotNormal):
            quotient_polyadic(structs["T4inv"], (1,))

    def test_rejects_a_set_that_is_no_subgroup(self, structs):
        # {0, 1} passes the twist criterion of der(Z3, id, 0, 3) but is not
        # closed: f(1, 1, 1) = 0 and f(0, 1, 1) = 2
        with pytest.raises(NotNormal):
            quotient_polyadic(structs["T3"], (0, 1))

    def test_accepts_exactly_the_normal_subgroups(self, corpus):
        for p in corpus[::7]:
            if p.order > 4:
                continue
            normal = {h.members for h in enumerate_normal_polyadic(p)}
            for r in range(p.order + 1):
                for h in itertools.combinations(range(p.order), r):
                    try:
                        coset_classes(p, h)
                        accepted = True
                    except NotNormal:
                        accepted = False
                    assert accepted == (h in normal), (p, h)

    def test_table_past_the_cost_cap_is_refused_unbuilt(self):
        p = derive_b(catalog_group("Z4"), 0, 5)  # 4^5 = 1,024 table cells
        with pytest.raises(CostCapExceeded) as err:
            quotient_polyadic(p, (1,), Caps(axiom_cost_cap=500))
        assert (err.value.cap, err.value.required) == ("axiom_cost_cap", 4**5)
        assert "flat_np" not in p.__dict__
        assert len(quotient_polyadic(p, (1,), Caps(axiom_cost_cap=4**5)).classes) == 4

    def test_theorem_route_alone_builds_no_table(self):
        # p's 1,024 cells are past the cap, the quotient's 2^5 = 32 are not
        p = derive_b(catalog_group("Z4"), 0, 5)
        q = quotient_polyadic(p, (0, 2), Caps(axiom_cost_cap=500))
        assert q.classes == ((0, 2), (1, 3))
        assert q.quotient == quotient_polyadic(derive_b(catalog_group("Z4"), 0, 5), (0, 2)).quotient
        assert "flat_np" not in p.__dict__

    def test_theorem_route_holds_under_four_bytes_a_cell(self):
        # der(Z2⁴, id, 0, 7) / {0, 1}: 8 classes, 8^7 = 2,097,152 class cells;
        # both routes run, and neither builds p's 16^7 cells
        v = catalog_group("Z2xZ2")
        p = derive(direct_product(v, v), Automorphism.identity(16), 0, 7)
        tracemalloc.start()
        try:
            q = quotient_polyadic(p, (0, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.quotient.order == 8 and "flat_np" not in p.__dict__
        assert peak < 4 * 8**7, peak / 8**7

    def test_reduced_on_corpus_sample(self, corpus):
        for p in corpus[::31]:
            for h in enumerate_normal_polyadic(p):
                q = quotient_polyadic(p, h)
                assert n_ary_identity(q.quotient) is not None


class TestSingletonImpliesReduced:
    def test_corpus_sample(self, corpus):
        for p in corpus[::9]:
            if any(s.size == 1 for s in enumerate_normal_polyadic(p)):
                assert n_ary_identity(p) is not None


class TestMemberRange:
    @pytest.mark.parametrize(
        "call",
        [
            lambda t: quotient_polyadic(t, [-3]),
            lambda t: sim_h(t, [-3]),
            lambda t: is_normal_polyadic(t, [0, 3]),
            lambda t: is_polyadic_subgroup(t, [-1]),
            lambda t: polyadic_coset(t, [0], -1),
            lambda t: polyadic_coset(t, [5], 0),
            lambda t: is_polyadic_hom((0, -1, -2), t, t),
            lambda t: is_polyadic_hom((0, 5, 1), t, t),
            lambda t: is_polyadic_hom((0, 1.5, 2), t, t),
            lambda t: is_polyadic_hom((0, True, 2), t, t),
            lambda t: is_polyadic_subgroup(t, [0, 1.5]),
            lambda t: is_polyadic_subgroup(t, [0, True]),
            lambda t: is_normal_polyadic(t, [0, 1.5]),
            lambda t: is_normal_polyadic(t, [True]),
            lambda t: coset_classes(t, [0.0, 1.0, 2.0]),
            lambda t: quotient_polyadic(t, [0, 0.5]),
        ],
        ids=[
            "quotient", "sim_h", "normal", "subgroup", "coset_x", "coset_members",
            "hom_negative", "hom_too_large", "hom_non_integer", "hom_bool", "subgroup_float",
            "subgroup_bool",
            "normal_float", "normal_bool", "coset_float", "quotient_float",
        ],
    )
    def test_out_of_range_elements_refused(self, structs, call):
        with pytest.raises(ValidationError):
            call(structs["T3"])

    def test_empty_members_are_no_subgroup(self, structs):
        assert not is_polyadic_subgroup(structs["T3"], [])
