"""The batched operation-level readers against their one-tuple-at-a-time
references (tests/reference.py): same value, or the same error type and
message, and the same first witness, on the corpus, its table forms and
seeded one-cell corruptions of them."""

import random

import numpy as np
import pytest

import reference
from pglab import substructures
from pglab.catalog import catalog, groups_of_order
from pglab.config import DEFAULT_CAPS
from pglab.polyadic import all_derived, as_table, dornte_witness, from_table, n_ary_identity
from pglab.substructures import _oracle_subgroups, is_polyadic_subgroup


def outcome(call):
    try:
        return ("value", call())
    except Exception as exc:  # the type and message are what is compared
        return (type(exc), str(exc))


def corrupted(p, cell, rng):
    """p's table with one cell moved to another carrier element, unverified."""
    flat = p.flat_np.tolist()
    flat[cell] = (flat[cell] + rng.randrange(1, p.order)) % p.order
    return from_table(p.arity, p.order, flat, verify=False)


@pytest.fixture(scope="module")
def forms(corpus):
    """(structure, the subgroups of its uncorrupted form) for each corpus
    structure and each arity-2 twist of order up to 8, its table form, a
    corruption at a seeded random cell and one at (skew(x), x,…,x, skew(x))
    for a seeded x, where the left and right identities of x at y = skew(x)
    read the same cell; at arity 2, at (x, x⁻¹) for a seeded x other than
    the identity e = skew(x), so that row x lacks e."""
    rng = random.Random(21)
    out = []
    arity_2 = [q for g in catalog().values() if g.order <= 8 for q in all_derived(g, 2)]
    for p in list(corpus) + arity_2:
        subs = _oracle_subgroups(p, DEFAULT_CAPS)
        out += [(p, subs), (as_table(p), subs)]
        if p.order > 1:
            x = rng.randrange(p.order)
            s = p.skew(x)
            cell = int(np.ravel_multi_index((s,) + (x,) * (p.arity - 2) + (s,), (p.order,) * p.arity))
            if p.arity == 2:
                x = (s + 1 + x % (p.order - 1)) % p.order
                cell = x * p.order + int(np.argmax(reference.cube(p)[x] == s))
            out += [(corrupted(p, rng.randrange(p.order**p.arity), rng), subs),
                    (corrupted(p, cell, rng), subs)]
    return out


def test_skew_oracle_equals_the_loop(forms):
    for p, _ in forms:
        for x in range(p.order):
            assert outcome(lambda: p.skew_oracle(x)) == outcome(lambda: reference.skew_oracle(p, x))
        want = outcome(lambda: tuple(reference.skew_oracle(p, x) for x in range(p.order)))
        assert outcome(lambda: p.skew_table) == want


def test_n_ary_identity_equals_the_loop(forms):
    for p, _ in forms:
        assert outcome(lambda: n_ary_identity(p)) == outcome(lambda: reference.n_ary_identity(p))


def test_dornte_witness_equals_the_loop(forms):
    kinds = set()
    for p, _ in forms:
        got = outcome(lambda: dornte_witness(p))
        assert got == outcome(lambda: reference.dornte_witness(p))
        kinds.add((got[1] or [None])[0] if got[0] == "value" else got[0])
    # every kind of witness, no witness, and a skew that cannot be solved
    assert {"fixed", "left", "right", None} < kinds


def test_normal_by_definition_equals_the_loop(forms):
    kinds = set()
    for p, subs in forms:
        for members in subs:
            got = outcome(lambda: reference.normal_by_conjugate_table(p, members))
            assert got == outcome(lambda: reference.normal_by_definition(p, members))
            kinds.add((p.arity == 2, got[0] if got[0] == "value" else got[1].split(" for")[0]))
    # an arity-2 row that lacks the identity is named, not read as x⁻¹ = 0
    assert (True, "no inverse candidate") in kinds


def test_normal_by_definition_at_arity_2():
    # the conjugates x⁻¹·h·x of every arity-2 twist and its table form, on
    # every subgroup and on seeded nonempty subsets
    rng = random.Random(2)
    for base in [g for g in catalog().values() if g.order <= 8]:
        for p in all_derived(base, 2):
            subsets = [tuple(sorted(rng.sample(range(p.order), rng.randint(1, p.order))))
                       for _ in range(4)]
            for q in (p, as_table(p)):
                for members in _oracle_subgroups(p, DEFAULT_CAPS) + tuple(subsets):
                    assert reference.normal_by_conjugate_table(
                        q, members
                    ) == reference.normal_by_definition(q, members)


@pytest.mark.parametrize("arity", [2, 3, 4, 5])
def test_all_derived_equals_the_gate_loop(arity):
    for base in [g for m in range(1, 12) for g in groups_of_order(m)]:
        got, want = all_derived(base, arity), reference.all_derived(base, arity)
        assert got == want and [p.name for p in got] == [p.name for p in want]


def test_is_polyadic_subgroup_equals_closure(small_corpus, monkeypatch):
    """The one-set test (skew, then one _closed row) against closure under f
    and skew on the m^n table, on every subset of each structure of order up
    to 5, of each arity-2 twist of order up to 5 and of their table forms;
    _closed is handed only sets that skew keeps, the condition its proof
    reads."""
    checked = []
    real = substructures._closed
    monkeypatch.setattr(
        substructures, "_closed", lambda q, rows: checked.append((q, rows)) or real(q, rows)
    )
    found = 0
    arity_2 = [q for g in catalog().values() if g.order <= 5 for q in all_derived(g, 2)]
    for p in list(small_corpus) + arity_2:
        for t in (p, as_table(p)):
            for mask in range(1, 1 << t.order):
                members = [x for x in range(t.order) if mask >> x & 1]
                got = is_polyadic_subgroup(t, members)
                assert got == reference.polyadic_subgroup_by_closure(t, members), (t, members)
                found += got
    assert found > 0 and checked
    for q, rows in checked:
        assert all(row[np.asarray(q.skew_table)[row]].all() for row in rows)
