import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pglab import morphisms, polyadic
from pglab.catalog import catalog, catalog_group
from pglab.config import Caps
from pglab.errors import (
    ArityMismatch,
    ConditionViolated,
    CostCapExceeded,
    DecompositionFailed,
    ValidationError,
)
from pglab.groups import Automorphism, FiniteGroup, hom_rows
from pglab.morphisms import (
    PolyadicHom,
    are_isomorphic,
    binary_homs,
    compose_hom,
    decompose_hom,
    enumerate_homs,
    is_polyadic_hom,
)
from pglab.polyadic import (
    as_table, derive, derive_b, from_table, hg_anchor0, packed_tuples,
)

from reference import cube, hom_compose, reference_hom_check


def brute_homs(p, q):
    """Oracle: try every map and check the defining identity tuple by tuple."""
    out = []
    for image in itertools.product(range(q.order), repeat=p.order):
        good = all(
            image[p.eval(list(args))] == q.eval([image[x] for x in args])
            for args in itertools.product(range(p.order), repeat=p.arity)
        )
        if good:
            out.append(image)
    return sorted(out)


def dense_hom_maps(p, q):
    """Reference oracle: every one of the |Q|^|P| maps as one dense matrix,
    cut by the diagonal, skew and edge filters one numpy pass at a time,
    then the exhaustive check on each survivor."""
    mp, mq, n = p.order, q.order, p.arity
    total = mq**mp
    idx = np.arange(total)
    maps = np.empty((total, mp), dtype=np.int16)
    for i in range(mp):
        maps[:, i] = (idx // mq ** (mp - 1 - i)) % mq
    alive = np.ones(total, dtype=bool)
    p_diag = [p.eval([x] * n) for x in range(mp)]
    q_diag = np.asarray([q.eval([y] * n) for y in range(mq)])
    for x in range(mp):
        alive &= q_diag[maps[:, x]] == maps[:, p_diag[x]]
    q_skew = np.asarray(q.skew_table)
    for x in range(mp):
        alive &= q_skew[maps[:, x]] == maps[:, p.skew_table[x]]
    edge = cube(p)[(slice(None),) + (0,) * (n - 2) + (slice(None),)]
    for x in range(mp):
        for y in range(mp):
            args = (maps[:, x],) + (maps[:, 0],) * (n - 2) + (maps[:, y],)
            alive &= cube(q)[args] == maps[:, edge[x, y]]
    survivors = []
    for row in maps[alive]:
        psi = row.astype(np.int64)
        if np.array_equal(psi[p.flat_np], q.flat_np[packed_tuples(psi, mq, n)]):
            survivors.append(tuple(int(v) for v in row))
    return sorted(survivors)


def relabelled_table(p, sigma):
    """p as a raw table carried along the permutation sigma of its carrier."""
    n = p.arity
    grid = sigma[cube(p)[np.ix_(*([np.argsort(sigma)] * n))]]
    return from_table(n, p.order, grid.ravel().tolist(), verify=False)


def assert_decides_like_the_reference(psi, p, q):
    """is_polyadic_hom decides psi as the m^n reference check does, and its
    witness, when psi is no hom, is a tuple w with psi(f(w)) != h(psi(w))."""
    ok, witness = is_polyadic_hom(psi, p, q)
    assert ok == reference_hom_check(psi, p, q)[0]
    assert (witness is None) == ok
    if witness is not None:
        assert psi[p.eval(list(witness))] != q.eval([psi[x] for x in witness])


def one_cell_perturbations(psi, order):
    """Every map that differs from psi in exactly one image."""
    return [psi[:x] + (y,) + psi[x + 1:] for x in range(len(psi)) for y in range(order) if y != psi[x]]


class TestIsHom:
    def test_identity(self, structs):
        assert is_polyadic_hom((0, 1, 2), structs["T3"], structs["T3"]) == (True, None)

    def test_doubling(self, structs):
        assert is_polyadic_hom((0, 2, 1), structs["T3"], structs["T3"])[0]

    def test_shift_fails_at_origin(self, structs):
        ok, witness = is_polyadic_hom((1, 2, 0), structs["T3"], structs["T3"])
        assert not ok
        assert witness == (0, 0, 0)

    def test_arity_mismatch(self, structs):
        with pytest.raises(ArityMismatch):
            is_polyadic_hom((0, 1), structs["T2"], structs["T5"])

    def test_cost_cap(self, structs):
        with pytest.raises(CostCapExceeded):
            is_polyadic_hom((0, 1, 2), structs["T3"], structs["T3"], caps=Caps(axiom_cost_cap=8))

    def test_one_map_check_builds_no_table(self):
        """The check reads the m² + 2m rows of the source (the diagonal,
        skew and Post's (A_1)), charged before they are built, and neither
        m^n table: der(Z8, id, 0, 8) (8^8 cells) is checked at the default
        caps."""
        p = derive(catalog_group("Z8"), Automorphism.identity(8), 0, 8)
        with pytest.raises(CostCapExceeded) as info:
            is_polyadic_hom(tuple(range(8)), p, p, caps=Caps(axiom_cost_cap=64 + 15))
        assert (info.value.cap, info.value.required) == ("axiom_cost_cap", 64 + 16)
        assert "hom_scan_rows" not in p.__dict__
        assert is_polyadic_hom(tuple(range(8)), p, p) == (True, None)
        shift = tuple(range(1, 8)) + (0,)
        ok, witness = is_polyadic_hom(shift, p, p)
        assert not ok and shift[p.eval(list(witness))] != p.eval([shift[x] for x in witness])
        assert "flat_np" not in p.__dict__


class TestEnumerate:
    def test_plain_sum_self_homs(self, structs):
        homs = enumerate_homs(structs["T3"], structs["T3"])
        assert [h.map for h in homs] == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
        assert [h.map for h in homs] == brute_homs(structs["T3"], structs["T3"])

    def test_into_shifted_sum_is_empty(self, structs):
        homs = enumerate_homs(structs["T2"], structs["T2b"])
        assert homs == []
        assert brute_homs(structs["T2"], structs["T2b"]) == []

    def test_into_point(self, structs):
        homs = enumerate_homs(structs["T9"], structs["T1"])
        assert len(homs) == 1

    def test_strategies_agree(self, structs):
        pairs = [("T2", "T4"), ("T4inv", "T4"), ("T3", "T3"), ("T2b", "T2b"),
                 ("V4swap", "T2")]
        for a, b in pairs:
            p, q = structs[a], structs[b]
            theorem = [h.map for h in enumerate_homs(p, q, strategy="theorem")]
            oracle = [h.map for h in enumerate_homs(p, q, strategy="oracle")]
            assert theorem == oracle == brute_homs(p, q)

    def test_oracle_cap(self, structs):
        p = structs["T3"]
        theorem = enumerate_homs(p, p, strategy="theorem")
        with pytest.raises(CostCapExceeded) as info:
            enumerate_homs(p, p, strategy="oracle", caps=Caps(hom_oracle_cap=26))
        assert info.value.required == 3**3
        # past the cap, auto runs the theorem route alone instead of refusing
        assert enumerate_homs(p, p, caps=Caps(hom_oracle_cap=26)) == theorem
        assert enumerate_homs(p, p, strategy="oracle", caps=Caps(hom_oracle_cap=27)) == theorem

    @staticmethod
    def _pair(m, k, arity):
        return tuple(derive(catalog_group(f"Z{o}"), Automorphism.identity(o), 0, arity)
                     for o in (m, k))

    def test_oracle_reads_no_target_table(self, monkeypatch):
        """Der(Z2) → der(Z4) at arity 5 has 4^2 candidate maps and a 4^5-cell
        target: the oracle reads q through eval_many, so it runs within
        axiom_cost_cap=1000, equals the theorem, and builds no table on
        either side; auto runs both routes."""
        theorem = [h.map for h in enumerate_homs(*self._pair(2, 4, 5), strategy="theorem")]
        assert len(theorem) == 8
        caps = Caps(axiom_cost_cap=1000)
        p, q = self._pair(2, 4, 5)
        assert [h.map for h in enumerate_homs(p, q, strategy="oracle", caps=caps)] == theorem
        assert "flat_np" not in p.__dict__ and "flat_np" not in q.__dict__
        ran = []
        oracle = morphisms._oracle_hom_maps
        monkeypatch.setattr(morphisms, "_oracle_hom_maps", lambda *a: ran.append(a) or oracle(*a))
        p, q = self._pair(2, 4, 5)
        assert [h.map for h in enumerate_homs(p, q, caps=caps)] == theorem
        assert len(ran) == 1
        assert "flat_np" not in p.__dict__ and "flat_np" not in q.__dict__

    def test_oracle_reads_no_source_table(self):
        """Der(Z4) → der(Z2) at arity 5: the oracle reads q's 2^5 cells, not
        p's 4^5, so it runs within axiom_cost_cap=1000 and equals the
        theorem, and p's table is never built."""
        theorem = [h.map for h in enumerate_homs(*self._pair(4, 2, 5), strategy="theorem")]
        assert len(theorem) == 4
        p, q = self._pair(4, 2, 5)
        oracle = enumerate_homs(p, q, strategy="oracle", caps=Caps(axiom_cost_cap=1000))
        assert [h.map for h in oracle] == theorem
        assert "flat_np" not in p.__dict__

    def test_auto_runs_both_routes_without_the_source_table(self, monkeypatch):
        """At the default caps der(Z8) → der(Z2) at arity 8 fits the oracle's
        gate (2^8 maps, a 2^8-cell target table): auto runs both routes and
        never builds the 8^8-cell source table."""
        p, q = self._pair(8, 2, 8)
        ran = []
        oracle = morphisms._oracle_hom_maps
        monkeypatch.setattr(morphisms, "_oracle_hom_maps", lambda *a: ran.append(a) or oracle(*a))
        assert [h.map for h in enumerate_homs(p, q)] == [(0,) * 8, (0, 1) * 4]
        assert len(ran) == 1
        assert "flat_np" not in p.__dict__

    def test_binary_groups_have_the_group_homs(self):
        """At arity 2 der(G, id, 0, 2) is G itself and the (B) rows (x, y)
        are the whole hom check: both routes find the group homomorphisms."""
        for a, b in [("Z4", "Z2"), ("Z2xZ2", "Z4"), ("S3", "Z2"), ("Z6", "S3")]:
            g, h = catalog_group(a), catalog_group(b)
            p, q = (derive(k, Automorphism.identity(k.order), 0, 2) for k in (g, h))
            for strategy in ("theorem", "oracle"):
                assert tuple(psi.map for psi in enumerate_homs(p, q, strategy)) == binary_homs(g, h)

    def test_oracle_equals_dense_reference(self, corpus):
        pairs = [
            (p, q)
            for p in corpus
            for q in corpus
            if p.arity == q.arity and q.order**p.order <= 10_000
        ]
        caps = Caps(hom_oracle_cap=10_000)
        found = []
        for p, q in random.Random(8).sample(pairs, 150):
            oracle = [h.map for h in enumerate_homs(p, q, strategy="oracle", caps=caps)]
            assert oracle == dense_hom_maps(p, q)
            found.append(len(oracle))
        assert 0 in found and max(found) > 1

    def test_oracle_in_small_blocks(self, structs, monkeypatch):
        monkeypatch.setattr(polyadic, "_BLOCK_CELLS", 7)
        for a, b in [("T4inv", "T4"), ("T3", "T3"), ("V4swap", "V4swap"), ("T9", "T1")]:
            p, q = structs[a], structs[b]
            assert [h.map for h in enumerate_homs(p, q)] == dense_hom_maps(p, q)

    def test_witness_is_first_bad_tuple(self, structs):
        """The check decides every hom, random maps and every one-cell
        perturbation of a hom as the m^n reference does, and a witness is a
        real counterexample (the first failing row of the stored order)."""
        rng = random.Random(8)
        for a, b in [("T3", "T3"), ("T4inv", "T4"), ("V4swap", "T2"), ("T5", "T5"), ("T2", "T4")]:
            p, q = structs[a], structs[b]
            homs = [h.map for h in enumerate_homs(p, q)]
            maps = [tuple(rng.randrange(q.order) for _ in range(p.order)) for _ in range(20)]
            for psi in homs + maps + [m for h in homs for m in one_cell_perturbations(h, q.order)]:
                assert_decides_like_the_reference(psi, p, q)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_witness_is_first_bad_tuple_on_corpus_pairs(self, small_corpus, data):
        # homs, random maps and one-cell perturbations of homs, between
        # derived, table and relabelled table forms
        def form(p):
            kind = data.draw(st.sampled_from(["derived", "table", "relabelled"]))
            if kind == "relabelled":
                return relabelled_table(p, np.asarray(data.draw(st.permutations(range(p.order)))))
            return as_table(p) if kind == "table" else p

        p = form(data.draw(st.sampled_from(small_corpus)))
        q = form(data.draw(st.sampled_from([q for q in small_corpus if q.arity == p.arity])))
        homs = [h.map for h in enumerate_homs(p, q)]
        maps = st.lists(st.integers(0, q.order - 1), min_size=p.order, max_size=p.order).map(tuple)
        if homs:
            perturbed = st.sampled_from(homs).flatmap(
                lambda h: st.sampled_from(one_cell_perturbations(h, q.order) or [h])
            )
            maps = st.sampled_from(homs) | maps | perturbed
        assert_decides_like_the_reference(data.draw(maps), p, q)

    def test_composition_is_hom(self, structs):
        p = structs["T4inv"]
        homs = enumerate_homs(p, p)
        for f, g in itertools.product(homs, repeat=2):
            composite = hom_compose(f, g)
            assert is_polyadic_hom(composite.map, p, p)[0]


class TestRelabelledTables:
    @settings(max_examples=30)
    @given(data=st.data())
    def test_routes_equal_the_relabelled_homs(self, small_corpus, data):
        p = data.draw(st.sampled_from(small_corpus))
        q = data.draw(st.sampled_from([q for q in small_corpus if q.arity == p.arity]))
        sigma = np.asarray(data.draw(st.permutations(range(p.order))))
        tau = np.asarray(data.draw(st.permutations(range(q.order))))
        pt, qt = relabelled_table(p, sigma), relabelled_table(q, tau)
        inv_sigma = np.argsort(sigma)
        image = sorted(
            tuple(int(tau[h.map[x]]) for x in inv_sigma) for h in enumerate_homs(p, q)
        )
        assert [h.map for h in enumerate_homs(pt, qt, strategy="theorem")] == image
        assert [h.map for h in enumerate_homs(pt, qt, strategy="oracle")] == image
        if q.order**p.order <= 256:
            assert brute_homs(pt, qt) == image


class TestDecompose:
    def test_identity_split(self, structs):
        psi = PolyadicHom(structs["T3"], structs["T3"], (0, 1, 2))
        dec = decompose_hom(psi)
        assert dec.a == 0 and dec.phi == (0, 1, 2)

    def test_doubling_split(self, structs):
        psi = PolyadicHom(structs["T3"], structs["T3"], (0, 2, 1))
        dec = decompose_hom(psi)
        assert dec.a == 0 and dec.phi == (0, 2, 1)

    def test_split_is_unique_on_small_pairs(self, structs):
        """Of the maps phi_a = psi ∗ a⁻¹, one for every anchor a (psi in
        presentation coordinates), exactly one is a group homomorphism that
        passes both split conditions at its own anchor: decompose_hom's."""
        for s, t in [("T3", "T3"), ("T2b", "T2b"), ("T4inv", "T4inv"), ("T2", "T4")]:
            p, q = structs[s], structs[t]
            src, tgt = p.view, hg_anchor0(q)
            h = tgt.base
            for psi in enumerate_homs(p, q):
                psi_t = np.asarray([tgt.relabel[psi.map[x]] for x in src.unrelabel])
                phis = h.np_table[psi_t, np.asarray(h.inverses)[:, None]]
                anchor, intertwine = morphisms._condition_masks(src, tgt, phis)
                is_hom = (phis[:, src.base.np_table] == h.np_table[phis[:, :, None], phis[:, None]])
                valid = [
                    a for a in range(h.order)
                    if is_hom[a].all() and anchor[a, a] and intertwine[a, a]
                ]
                split = decompose_hom(psi)
                assert valid == [split.a], (p, q, psi)
                assert tuple(phis[split.a].tolist()) == split.phi

    @pytest.mark.parametrize("s, t, image, failure", [
        ("T3", "T3", (0, 1, 1), "is not a group homomorphism"),
        ("T3", "T3", (1, 1, 1), "fails the anchor condition"),
        ("T4", "T4inv", (0, 1, 2, 3), "fails the intertwine condition"),
    ])
    def test_failed_split_names_its_condition(self, structs, s, t, image, failure):
        with pytest.raises(DecompositionFailed, match=failure):
            decompose_hom(PolyadicHom(structs[s], structs[t], image))

    def test_roundtrip(self, structs):
        for a, b in [("T3", "T3"), ("T4inv", "T4"), ("V4swap", "V4swap")]:
            p, q = structs[a], structs[b]
            for psi in enumerate_homs(p, q):
                dec = decompose_hom(psi)
                rebuilt = compose_hom(dec.a, dec.phi, p, q)
                assert rebuilt.map == psi.map

    def test_rejects_arity_mismatch(self):
        # (0, 1) is a hom of neither arity into the other: der(Z2) at arity 3
        # and at arity 4 differ in f(1, 1, 1) = 1 against f(1, 1, 1, 1) = 0
        z2 = catalog_group("Z2")
        p3, p4 = (derive(z2, Automorphism.identity(2), 0, n) for n in (3, 4))
        with pytest.raises(ArityMismatch):
            decompose_hom(PolyadicHom(p3, p4, (0, 1)))

    @pytest.mark.parametrize(
        "image",
        [(99, 99, 99), (-1, -1, -1), (0, 1), (0, 1, 2, 0), (0, 3, 1), (0, 1, 2.7), (0, True, 2),
         (0.0, 1, 2), (0, 1.0, 2), (np.float64(0), 1, 2), (np.bool_(False), 1, 2)],
    )
    def test_rejects_a_map_outside_the_carriers(self, structs, image):
        """Refused on a fresh pair and again once the pair is enumerated,
        where an image that hashes like a stored map's would find its split."""
        assert_refused_before_any_lookup(
            lambda p: decompose_hom(PolyadicHom(p, p, image)), structs, len(image)
        )


def _fresh(p):
    """An equal copy of p that holds none of p's stored answers."""
    return dataclasses.replace(p)


def assert_refused_before_any_lookup(call, structs, length):
    """call(p) on T3 is refused by the map's check, on a fresh p and again
    after p → p is enumerated: a map of the wrong length by ArityMismatch,
    any other by the carrier check, which no failed split condition
    (ConditionViolated, a ValidationError too) may stand in for."""
    p = _fresh(structs["T3"])
    for enumerated in (False, True):
        if enumerated:
            enumerate_homs(p, p)
            assert "split_tables" in p.__dict__
        if length != p.order:
            with pytest.raises(ArityMismatch):
                call(p)
            continue
        with pytest.raises(ValidationError, match="elements of the carrier") as info:
            call(p)
        assert not isinstance(info.value, ConditionViolated)


def outcome(call, *args):
    """call(*args)'s answer, or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestStoredSplits:
    """The theorem route stores every hom's split per pair; decompose_hom
    and compose_hom read it instead of re-deriving the split conditions."""

    @staticmethod
    def _pairs(corpus):
        """Same-arity corpus pairs of orders 2..6, a third with a table
        target and a third with a table source (139 homs)."""
        small = [p for p in corpus if 2 <= p.order <= 6]
        same = [(p, q) for p in small[::11] for q in small[::13] if p.arity == q.arity]
        return [
            (as_table(p) if k % 3 == 2 else _fresh(p), as_table(q) if k % 3 == 1 else _fresh(q))
            for k, (p, q) in enumerate(same)
        ]

    def test_enumerated_homs_split_from_the_table(self, corpus, monkeypatch):
        homs = [(p, q, enumerate_homs(p, q, strategy="theorem")) for p, q in self._pairs(corpus)]
        one_split = {
            (i, psi.map): decompose_hom(PolyadicHom(_fresh(p), q, psi.map))
            for i, (p, q, found) in enumerate(homs) for psi in found
        }
        assert one_split

        def rederived(*args):
            raise AssertionError("split conditions re-derived for an enumerated hom")

        monkeypatch.setattr(morphisms, "_split_failure", rederived)
        for i, (p, q, found) in enumerate(homs):
            for psi in found:
                split = decompose_hom(psi)
                assert split == one_split[i, psi.map]
                assert compose_hom(split.a, split.phi, p, q).map == psi.map

    def test_second_enumeration_reads_the_table(self, structs, monkeypatch):
        p, q = _fresh(structs["V4swap"]), structs["V4swap"]
        first = enumerate_homs(p, q, strategy="theorem")
        monkeypatch.setattr(morphisms, "hom_rows", lambda *a, **k: pytest.fail("re-enumerated"))
        assert enumerate_homs(p, q, strategy="theorem") == first
        assert enumerate_homs(p, _fresh(q), strategy="theorem") == first

    def test_corrupted_entry_is_caught_by_the_complete_check(self, structs):
        # compose_hom(1, id) builds the shift (1, 2, 0), which fails the
        # anchor condition; a stored entry claiming it skips that test, and
        # the complete check must still refuse the map
        p = _fresh(structs["T3"])
        enumerate_homs(p, p, strategy="theorem")
        morphisms._split_table(p, p)[(1, 2, 0)] = (1, (0, 1, 2))
        with pytest.raises(DecompositionFailed, match="non-homomorphism"):
            compose_hom(1, (0, 1, 2), p, p)

    def test_entry_for_another_split_is_not_trusted(self, structs):
        p = _fresh(structs["T3"])
        enumerate_homs(p, p, strategy="theorem")
        morphisms._split_table(p, p)[(1, 2, 0)] = (0, (0, 1, 2))
        with pytest.raises(ConditionViolated, match="anchor"):
            compose_hom(1, (0, 1, 2), p, p)

    def test_enumerated_splits_are_lookups(self, structs, monkeypatch):
        """compose_hom of a stored split reads its map from the table's
        reverse view: no map is built and no condition derived, and the hom
        check runs once a call."""
        pairs = [(_fresh(structs[a]), structs[b])
                 for a, b in [("T3", "T3"), ("T4inv", "T4"), ("V4swap", "V4swap"), ("T2", "T4")]]
        found = [(p, q, enumerate_homs(p, q)) for p, q in pairs]
        splits = [[decompose_hom(psi) for psi in homs] for _, _, homs in found]
        assert sum(map(len, splits)) > 10
        for name in ("_raw_maps", "_split_failure"):
            monkeypatch.setattr(morphisms, name, lambda *a, name=name: pytest.fail(f"{name} ran"))
        checks = []
        hom_check = morphisms._hom_check
        monkeypatch.setattr(
            morphisms, "_hom_check", lambda *a: checks.append(a[0]) or hom_check(*a)
        )
        for (p, q, homs), split in zip(found, splits):
            for psi, dec in zip(homs, split):
                checks.clear()
                assert compose_hom(dec.a, dec.phi, p, q).map == psi.map
                assert checks == [psi.map]
            assert set(p.split_views[q]) == set(p.split_tables[q].values())

    def test_stored_and_unstored_paths_agree_on_c9_pairs(self, corpus):
        """On a seeded sample of C9's pairs, enumerated on p, compose_hom and
        decompose_hom answer every stored split and map, and every one-cell
        perturbation of them, as on a fresh copy of p that stores nothing."""
        rng = random.Random("stored splits")
        pairs = [(p, q) for p in corpus for q in corpus
                 if p.arity == q.arity and q.order**p.order <= 10_000]
        caps = Caps(hom_oracle_cap=10_000)
        pick = lambda seq, k: rng.sample(seq, min(len(seq), k))  # noqa: E731
        built = 0
        for p, q in rng.sample(pairs, 40):
            p = _fresh(p)
            homs = enumerate_homs(p, q, caps=caps)
            fresh = _fresh(p)
            for psi in pick(homs, 3):
                maps = [psi.map] + pick(one_cell_perturbations(psi.map, q.order), 2)
                for image in maps:
                    stored = outcome(decompose_hom, PolyadicHom(p, q, image))
                    assert stored == outcome(decompose_hom, PolyadicHom(fresh, q, image))
                dec = decompose_hom(psi)
                splits = [(dec.a, dec.phi), ((dec.a + 1) % q.order, dec.phi)]
                splits += [(dec.a, phi) for phi in pick(one_cell_perturbations(dec.phi, q.order), 2)]
                for a, phi in splits:
                    stored = outcome(compose_hom, a, phi, p, q)
                    assert stored == outcome(compose_hom, a, phi, fresh, q)
                    built += isinstance(stored, PolyadicHom)
            assert not {"split_tables", "split_views"} & fresh.__dict__.keys()
        assert built > 20

    def test_pair_never_enumerated_takes_the_one_split_path(self, structs, monkeypatch):
        p, q = _fresh(structs["T4"]), _fresh(structs["T4inv"])
        calls = []
        split_failure = morphisms._split_failure
        monkeypatch.setattr(
            morphisms, "_split_failure", lambda *a: calls.append(a) or split_failure(*a)
        )
        for image in [(0, 0, 0, 0), (1, 3, 1, 3)]:
            split = decompose_hom(PolyadicHom(p, q, image))
            assert compose_hom(split.a, split.phi, p, q).map == image
        assert len(calls) == 4
        assert not {"split_tables", "split_views"} & p.__dict__.keys()
        with pytest.raises(DecompositionFailed, match="intertwine"):
            decompose_hom(PolyadicHom(p, q, (0, 1, 2, 3)))


class TestStoredOracleAnswer:
    """The hom oracle stores its answer per pair; the hom check of
    compose_hom and is_polyadic_hom reads it instead of evaluating a map the
    oracle found, and evaluates every other map."""

    PAIRS = [("T3", "T3"), ("T4inv", "T4"), ("V4swap", "V4swap"), ("V4swap", "T2"), ("T2", "T4")]

    @staticmethod
    def _eval_spy(monkeypatch):
        calls = []
        eval_many = polyadic.PolyadicGroup.eval_many
        monkeypatch.setattr(
            polyadic.PolyadicGroup, "eval_many",
            lambda self, args: calls.append(self) or eval_many(self, args),
        )
        return calls

    def _oracle_pairs(self, structs, corpus):
        """Fresh struct pairs and a few corpus pairs in table form, each
        enumerated by the oracle alone, with its homs."""
        small = [p for p in corpus if p.order <= 6][::23]
        pairs = [(_fresh(structs[a]), _fresh(structs[b])) for a, b in self.PAIRS]
        pairs += [(as_table(p), _fresh(q)) for p in small for q in small if p.arity == q.arity]
        return [(p, q, enumerate_homs(p, q, strategy="oracle")) for p, q in pairs]

    def test_found_maps_are_not_evaluated_again(self, structs, corpus, monkeypatch):
        pairs = self._oracle_pairs(structs, corpus)
        assert sum(len(found) for _, _, found in pairs) > 20
        splits = [[decompose_hom(psi) for psi in found] for _, _, found in pairs]
        calls = self._eval_spy(monkeypatch)
        for (p, q, found), split in zip(pairs, splits):
            for psi, dec in zip(found, split):
                assert compose_hom(dec.a, dec.phi, p, q).map == psi.map
                assert is_polyadic_hom(psi.map, p, q) == reference_hom_check(psi.map, p, q)
            assert not {"split_tables", "split_views"} & p.__dict__.keys()
        assert calls == []

    def test_theorem_answer_is_not_read(self, structs, monkeypatch):
        """The check is independent of the product: after the theorem route
        alone, every map is evaluated."""
        p, q = _fresh(structs["T3"]), _fresh(structs["T3"])
        found = enumerate_homs(p, q, strategy="theorem")
        assert "oracle_homs" not in p.__dict__
        morphisms._scan_rows(p)
        calls = self._eval_spy(monkeypatch)
        for psi in found:
            assert is_polyadic_hom(psi.map, p, q) == (True, None)
        assert len(calls) == len(found) and all(c is q for c in calls)

    def test_other_maps_get_the_reference_answer(self, structs, monkeypatch):
        p = _fresh(structs["T3"])
        found = [h.map for h in enumerate_homs(p, p, strategy="oracle")]
        assert found == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
        calls = self._eval_spy(monkeypatch)
        shift = (1, 2, 0)
        assert is_polyadic_hom(shift, p, p) == reference_hom_check(shift, p, p) == (False, (0, 0, 0))
        assert calls == [p]
        # a corrupted theorem entry skips the split conditions, not the check
        morphisms._split_table(p, p)[(1, 2, 0)] = (1, (0, 1, 2))
        with pytest.raises(DecompositionFailed, match=r"non-homomorphism at \(0, 0, 0\)"):
            compose_hom(1, (0, 1, 2), p, p)
        # every map outside the answer is decided as the reference decides
        # it, with the witness of a pair the oracle never scanned
        for a, b in self.PAIRS:
            p, q = _fresh(structs[a]), structs[b]
            homs = [h.map for h in enumerate_homs(p, q, strategy="oracle")]
            for psi in [m for h in homs for m in one_cell_perturbations(h, q.order)]:
                assert_decides_like_the_reference(psi, p, q)
                assert is_polyadic_hom(psi, p, q) == is_polyadic_hom(psi, _fresh(p), q)

    def test_caps_still_refuse(self, structs):
        """With the answer stored, the check still charges its m² + 2m rows
        first, and the oracle's gate still runs on every enumeration."""
        p = _fresh(structs["T3"])
        enumerate_homs(p, p, strategy="oracle")
        tight = Caps(axiom_cost_cap=9 + 6 - 1)
        with pytest.raises(CostCapExceeded) as info:
            is_polyadic_hom((0, 1, 2), p, p, caps=tight)
        assert info.value.required == 9 + 6
        with pytest.raises(CostCapExceeded):
            compose_hom(0, (0, 1, 2), p, p, caps=tight)
        with pytest.raises(CostCapExceeded):
            enumerate_homs(p, p, strategy="oracle", caps=Caps(hom_oracle_cap=26))
        assert is_polyadic_hom((0, 1, 2), p, p, caps=Caps(axiom_cost_cap=9 + 6)) == (True, None)

    def test_second_enumeration_is_a_lookup(self, structs, monkeypatch):
        p, q = _fresh(structs["V4swap"]), structs["V4swap"]
        first = enumerate_homs(p, q, strategy="oracle")
        assert len(first) > 1
        monkeypatch.setattr(morphisms, "_rows_hold", lambda *a: pytest.fail("re-scanned"))
        assert enumerate_homs(p, q, strategy="oracle") == first
        assert enumerate_homs(p, _fresh(q), strategy="oracle") == first
        assert enumerate_homs(p, q) == first


class TestFrontierOrder:
    """The hom oracle's frontier assigns 0, then ū = skew(0), then the rest
    ascending, so Post's (A_1) rows (x, y, 0^(n−3), ū) prune from its second
    step; the hom check still reads the rows in element-step order."""

    @staticmethod
    def _source():
        return derive(catalog_group("Z2xZ2"), Automorphism.identity(4), 3, 4)

    @staticmethod
    def _targets():
        return [
            derive(catalog_group("Z8"), Automorphism.identity(8), 0, 4),
            derive(catalog_group("Q8"), Automorphism((0, 1, 6, 7, 2, 3, 4, 5)), 1, 4),
        ]

    def test_witnesses_keep_the_element_step_order(self):
        """The first failing row is read in the element-step order, not the
        frontier's: these witnesses differ on the frontier's grouping."""
        p, q = self._source(), self._targets()[0]
        assert p.skew_table[0] == 3
        for psi, witness in [((5, 4, 1, 4), (1, 1, 1, 1)), ((6, 5, 2, 0), (1, 1, 1, 1)),
                             ((1, 5, 0, 4), (2, 2, 2, 2))]:
            assert is_polyadic_hom(psi, p, q) == (False, witness)

    def test_witness_has_the_smallest_largest_entry(self):
        """Der(Z3, id, 2, 3) → der(Z2, id, 0, 3): (1, 0, 1) fails on the
        diagonal row (1, 1, 1), value 2, stored first, but the skew row
        (0, 0, 1), value 0, has the smaller largest entry and is the
        witness."""
        p = derive(catalog_group("Z3"), Automorphism.identity(3), 2, 3)
        q = derive(catalog_group("Z2"), Automorphism.identity(2), 0, 3)
        assert p.eval([1, 1, 1]) == 2 and p.eval([0, 0, 1]) == 0
        for psi in [(1, 0, 1), (0, 1, 0)]:
            assert is_polyadic_hom(psi, p, q) == (False, (0, 0, 1))

    def test_anchor_pair_first_bounds_the_frontier(self, monkeypatch):
        """The candidate maps the frontier checks, summed over its steps:
        4,680 into der(Z8) when the (A_1) rows waited for step ū = 3."""
        seen = []
        rows_hold = morphisms._rows_hold
        monkeypatch.setattr(
            morphisms, "_rows_hold", lambda maps, q, rows: seen.append(len(maps)) or rows_hold(maps, q, rows)
        )
        for q, bound in zip(self._targets(), (120, 264)):
            p = self._source()
            seen.clear()
            assert morphisms._frontier_homs(p, q) == dense_hom_maps(p, q)
            assert 0 < sum(seen) <= bound

    def test_reordered_sources_equal_dense_reference(self, corpus):
        """Every corpus source of order ≤ 4 with skew(0) > 1, derived, as a
        table and relabelled, into a seeded sample of targets: the frontier
        gives the reference's maps in the reference's order."""
        rng = random.Random(0)
        sources = [p for p in corpus if p.order <= 4 and p.skew_table[0] > 1]
        assert len(sources) == 21
        reordered = 0
        for p in sources:
            targets = [q for q in corpus if q.arity == p.arity and q.order**p.order <= 4096]
            sigma = np.asarray(rng.sample(range(p.order), p.order))
            for form in (p, as_table(p), relabelled_table(p, sigma)):
                reordered += morphisms._scan_rows(form)[1] is not None
                for q in rng.sample(targets, 3):
                    assert morphisms._frontier_homs(form, q) == dense_hom_maps(form, q)
        assert reordered >= 2 * len(sources)

    def test_binary_sources_reorder_on_their_skew_row(self):
        """At arity 2 ū = skew(0) is the identity, and only the skew row
        (0, ū) reads it: binary groups relabelled so that the identity is
        the last element take the reordered path and give the reference's
        maps in its order."""
        binary = {name: derive(catalog_group(name), Automorphism.identity(catalog_group(name).order), 0, 2)
                  for name in ("Z3", "Z4", "Z2xZ2", "S3", "Z6")}
        last = lambda g: relabelled_table(g, np.roll(np.arange(g.order), 1))  # noqa: E731
        for a, b in [("Z3", "Z6"), ("Z4", "Z2xZ2"), ("Z2xZ2", "Z4"), ("S3", "Z6"), ("Z6", "S3")]:
            p = last(binary[a])
            assert p.skew_table[0] == p.order - 1 and morphisms._scan_rows(p)[1] is not None
            for q in (binary[b], last(binary[b])):
                assert morphisms._frontier_homs(p, q) == dense_hom_maps(p, q)


class TestCompose:
    def test_identity(self, structs):
        psi = compose_hom(0, (0, 1, 2), structs["T3"], structs["T3"])
        assert psi.map == (0, 1, 2)

    def test_doubling(self, structs):
        psi = compose_hom(0, (0, 2, 1), structs["T3"], structs["T3"])
        assert psi.map == (0, 2, 1)

    def test_anchor_condition_violation(self, structs):
        with pytest.raises(ConditionViolated, match="anchor"):
            compose_hom(1, (0, 1, 2), structs["T3"], structs["T3"])

    def test_intertwine_condition_violation(self, structs):
        # phi = id meets the anchor condition but not eta∘phi = phi∘theta
        with pytest.raises(ConditionViolated, match="intertwine"):
            compose_hom(0, (0, 1, 2, 3), structs["T4"], structs["T4inv"])

    @pytest.mark.parametrize("a, phi", [(0, (0, 1)), (0, (0, 1, 2, 0)), (0, (0, 1, 3)),
                                        (0, (0, -1, 1)), (3, (0, 1, 2)), (-1, (0, 1, 2)),
                                        (0.5, (0, 1, 2)), (0, (0, True, 2)), (False, (0, 1, 2)),
                                        (0.0, (0, 1, 2)), (1.0, (0, 1, 2)),
                                        (np.float64(0), (0, 1, 2)), (np.bool_(False), (0, 1, 2)),
                                        (0, (0.0, 1, 2)), (0, (0, 1.0, 2)),
                                        (0, (np.float64(0), 1, 2)), (0, (np.bool_(False), 1, 2))])
    def test_rejects_out_of_range_split(self, structs, a, phi):
        """Refused before the split is looked up: (False, (0, 1, 2)) and
        (0.0, (0, 1, 2)) hash like the stored split (0, (0, 1, 2))."""
        assert_refused_before_any_lookup(lambda p: compose_hom(a, phi, p, p), structs, len(phi))

    def test_rejects_non_homomorphism_phi(self, structs):
        with pytest.raises(ConditionViolated, match="homomorphism"):
            compose_hom(0, (0, 1, 1), structs["T3"], structs["T3"])

    @pytest.mark.parametrize("b", [0, 2])
    def test_arity_mismatch_builds_no_split(self, b):
        # (0, 1, 2, 3) has p's length: only the arities differ
        z4 = catalog_group("Z4")
        p, q = derive(z4, Automorphism.identity(4), 0, 3), derive_b(z4, b, 4)
        with pytest.raises(ArityMismatch, match="arities differ: 3 vs 4"):
            compose_hom(0, (0, 1, 2, 3), p, q)
        assert not {"view", "anchor0_view"} & (p.__dict__.keys() | q.__dict__.keys())


class TestMapShape:
    """A map of the wrong length is one refusal in all three entry points."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda psi, p: is_polyadic_hom(psi, p, p),
            lambda psi, p: decompose_hom(PolyadicHom(p, p, psi)),
            lambda psi, p: compose_hom(0, psi, p, p),
        ],
        ids=["is_polyadic_hom", "decompose_hom", "compose_hom"],
    )
    @pytest.mark.parametrize("psi", [(0, 1), (0, 1, 2, 0)], ids=["short", "long"])
    def test_wrong_length(self, structs, call, psi):
        with pytest.raises(ArityMismatch, match=rf"^map has {len(psi)} entries for order 3$"):
            call(psi, structs["T3"])


def brute_binary_homs(g, h):
    """Oracle: every one of the |h|^|g| maps, in lexicographic order, that
    satisfies phi(x·y) = phi(x)·phi(y) on every pair."""
    maps = np.indices((h.order,) * g.order).reshape(g.order, -1).T
    holds = (maps[:, g.np_table] == h.np_table[maps[:, :, None], maps[:, None, :]]).all(axis=(1, 2))
    return maps[holds]


SMALL_CATALOG_PAIRS = [
    (a, b) for a, g in catalog().items() for b, h in catalog().items() if h.order**g.order <= 10**5
]


class TestBinaryHoms:
    @pytest.mark.parametrize(
        "source, target", SMALL_CATALOG_PAIRS, ids=[f"{a}->{b}" for a, b in SMALL_CATALOG_PAIRS]
    )
    def test_equals_brute_force_scan(self, source, target):
        """The search finds every homomorphism of the |h|^|g| scan, in its
        order, and its injective mode the injective maps among them."""
        g, h = catalog_group(source), catalog_group(target)
        brute = brute_binary_homs(g, h)
        assert binary_homs(g, h) == tuple(map(tuple, brute.tolist()))
        injective = [row for row in brute.tolist() if len(set(row)) == g.order]
        assert hom_rows(g, h, injective=True).tolist() == injective

    def test_z2_to_z4(self):
        homs = binary_homs(catalog_group("Z2"), catalog_group("Z4"))
        assert homs == ((0, 0), (0, 2))

    def test_counts_on_selected_pairs(self):
        s3 = catalog_group("S3")
        z6 = catalog_group("Z6")
        # maps to the abelianization: 1 trivial + sign-like maps
        assert len(binary_homs(s3, catalog_group("Z2"))) == 2
        assert len(binary_homs(z6, z6)) == 6

    def test_stored_on_the_source_group(self):
        g, h = catalog_group("Z6"), catalog_group("Z2")
        fresh = FiniteGroup(g.table)
        assert binary_homs(fresh, h) == binary_homs(g, h)
        assert h.table in fresh.__dict__["binary_homs"]

    def test_all_are_homs(self):
        g, h = catalog_group("D4"), catalog_group("Z2xZ2")
        for phi in binary_homs(g, h):
            for i in range(8):
                for j in range(8):
                    assert phi[g.mul(i, j)] == h.mul(phi[i], phi[j])


class TestIsomorphism:
    def test_plain_vs_shifted_on_z2(self, structs):
        assert are_isomorphic(structs["T2"], structs["T2b"]) is None

    def test_self_isomorphic(self, structs):
        psi = are_isomorphic(structs["T3"], structs["T3"])
        assert psi is not None and psi.map == (0, 1, 2)

    def test_alternating_vs_plain(self, structs):
        assert are_isomorphic(structs["T4inv"], structs["T4"]) is None

    def test_bijective_means_onto_the_target(self, structs):
        z2, v4 = catalog_group("Z2"), catalog_group("Z2xZ2")
        p, q = derive_b(z2, 0, 3), derive_b(v4, 0, 3)
        homs = enumerate_homs(p, q)
        assert {(0, 1), (1, 0)} <= {h.map for h in homs}
        assert not any(h.is_bijective() for h in homs)
        assert not PolyadicHom(q, p, (0, 1, 1, 0)).is_bijective()
        for a, b in [("T3", "T3"), ("V4swap", "V4swap"), ("T2", "T2")]:
            psi = are_isomorphic(structs[a], structs[b])
            assert psi.is_bijective()

    def test_shifted_sums_on_z3_are_isomorphic(self):
        z3 = catalog_group("Z3")
        p = derive(z3, Automorphism.identity(3), 0, 3)
        q = derive(z3, Automorphism.identity(3), 1, 3)
        psi = are_isomorphic(p, q)
        assert psi is not None
        assert is_polyadic_hom(psi.map, p, q)[0]
        assert psi.is_bijective()

    def test_symmetric(self, structs):
        pairs = [("T2", "T2b"), ("T4", "T4inv"), ("T3", "T3")]
        for a, b in pairs:
            fwd = are_isomorphic(structs[a], structs[b])
            bwd = are_isomorphic(structs[b], structs[a])
            assert (fwd is None) == (bwd is None)

    def test_order_or_arity_mismatch(self, structs):
        assert are_isomorphic(structs["T2"], structs["T3"]) is None
        assert are_isomorphic(structs["T5"], structs["T3"]) is None

    def test_transitive_on_shifted_sums(self):
        # three pairwise-isomorphic twists of Z3
        z3 = catalog_group("Z3")
        chain = [derive(z3, Automorphism.identity(3), b, 3) for b in range(3)]
        for p, q in itertools.combinations(chain, 2):
            assert are_isomorphic(p, q) is not None
        first_last = are_isomorphic(chain[0], chain[2])
        assert first_last is not None and is_polyadic_hom(
            first_last.map, chain[0], chain[2]
        )[0]
