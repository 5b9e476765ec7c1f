"""Acceptance sweep: theorem-vs-oracle agreement over the full small corpus.

The corpus is every valid twist of the catalog base groups of order at most
eight at arities three, four, and five (770 structures).  Each criterion
prints a PASS/FAIL line; run with -s to see them.
"""

import itertools
import time

import numpy as np

from reference import cube

from pglab.congruence import (
    congruences_bruteforce,
    congruences_theorem,
    enumerate_normal_polyadic,
    lattice_ops,
    quotient_polyadic,
)
from pglab.morphisms import are_isomorphic, compose_hom, decompose_hom, enumerate_homs
from pglab.polyadic import as_table, dornte_witness, hosszu_gloskin
from pglab.simplicity import census, is_gts, is_gts_star, is_uas, simplicity_report
from pglab.config import DEFAULT_CAPS, Caps


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def test_c01_congruence_characterization(corpus):
    start = time.monotonic()
    mismatches = []
    total = 0
    for p in corpus:
        brute = [c.classes for c in congruences_bruteforce(p)]
        theorem = [c.classes for c in congruences_theorem(p)]
        total += len(brute)
        if brute != theorem:
            mismatches.append(p)
    elapsed = time.monotonic() - start
    ok = not mismatches and total == 4143 and elapsed < 300.0
    _report(
        "C1 congruence-characterization",
        ok,
        f"({len(corpus)} structures, {total} congruences, {elapsed:.1f}s)",
    )


def test_c02_normal_subgroup_characterization(corpus):
    mismatches = []
    total = 0
    for p in corpus:
        oracle = [s.members for s in enumerate_normal_polyadic(p, strategy="oracle")]
        theorem = [s.members for s in enumerate_normal_polyadic(p, strategy="theorem")]
        total += len(oracle)
        if oracle != theorem:
            mismatches.append(p)
    _report(
        "C2 normal-subgroup-characterization",
        not mismatches and total == 3743,
        f"({total} normal subgroups across {len(corpus)} structures)",
    )


def test_c03_uas_decider(structs):
    t5_theorem = is_uas(structs["T5"], method="theorem")[0]
    t5_oracle = is_uas(structs["T5"], method="oracle")[0]
    t9_theorem = is_uas(structs["T9"], method="theorem")[0]
    t9_oracle = is_uas(structs["T9"], method="oracle")[0]
    ok = t5_theorem and t5_oracle and not t9_theorem and not t9_oracle
    _report(
        "C3 uas-decider",
        ok,
        f"(doubling twist on Z5: {t5_theorem}/{t5_oracle}, "
        f"inversion twist on Z9: {t9_theorem}/{t9_oracle})",
    )


def test_c04_gts_star_decider(structs):
    checks = []
    for method in ("theorem", "oracle"):
        checks.append(is_gts_star(structs["T9"], method=method)[0])
        checks.append(not is_uas(structs["T9"], method=method)[0])
        gts_flag, witness = is_gts(structs["V4swap"], method=method)
        checks.append(not gts_flag and witness.members == (0, 3))
        checks.append(is_gts(structs["T3"], method=method)[0])
        checks.append(not is_gts_star(structs["T3"], method=method)[0])
    _report("C4 gts-star-decider", all(checks), f"({len(checks)} checks, both methods)")


def test_c05_simplicity_implications(corpus):
    violations = 0
    for p in corpus:
        rep = simplicity_report(p)
        if rep.uas and not rep.gts:
            violations += 1
        singleton = any(
            s.size == 1 for s in enumerate_normal_polyadic(p)
        )
        if singleton and not rep.reduced:
            violations += 1
    _report(
        "C5 uas-implies-gts-and-singleton-implies-reduced",
        violations == 0,
        f"({len(corpus)} structures, {violations} counterexamples)",
    )


def test_c06_skew_formula(corpus):
    bad = 0
    for p in corpus:
        for x in range(p.order):
            if p.skew(x) != p.skew_oracle(x):
                bad += 1
    _report("C6 skew-formula", bad == 0, f"({sum(p.order for p in corpus)} elements)")


def test_c07_dornte_identities(corpus):
    bad = [p for p in corpus if dornte_witness(p) is not None]
    survivors = [e.representative for e in census(2, 3, "exhaustive")]
    bad += [p for p in survivors if dornte_witness(p) is not None]
    _report(
        "C7 dornte-identities",
        not bad,
        f"({len(corpus)} corpus structures + {len(survivors)} census survivors)",
    )


def test_c08_hosszu_gloskin_roundtrip(corpus):
    checked = 0
    for p in corpus:
        grid = cube(p)
        for a in range(p.order):
            hg = hosszu_gloskin(p, a)  # internal gate also verifies
            unrelabel = np.asarray(hg.unrelabel)
            relabel = np.asarray(hg.relabel)
            original = relabel[grid[np.ix_(*([unrelabel] * p.arity))]].ravel()
            if not np.array_equal(original, hg.group.flat_np):
                _report("C8 decomposition-roundtrip", False, f"at anchor {a} of {p}")
            checked += 1
    _report("C8 decomposition-roundtrip", True, f"({checked} anchors, table-exact)")


def test_c09_hom_decomposition(corpus):
    caps = Caps(hom_oracle_cap=10_000)
    pairs = [
        (p, q)
        for p in corpus
        for q in corpus
        if p.arity == q.arity and q.order**p.order <= 10_000
    ]
    total_homs = 0
    start = time.monotonic()
    for p, q in pairs:
        homs = enumerate_homs(p, q, strategy="auto", caps=caps)  # both + agreement
        total_homs += len(homs)
        for psi in homs:
            split = decompose_hom(psi)
            rebuilt = compose_hom(split.a, split.phi, p, q)
            if rebuilt.map != psi.map:
                _report("C9 hom-decomposition", False, f"roundtrip broke {psi.map}")
    elapsed = time.monotonic() - start
    _report(
        "C9 hom-decomposition",
        len(pairs) == 22225 and total_homs == 162077,
        f"({len(pairs)} pairs, {total_homs} homomorphisms, {elapsed:.1f}s)",
    )


def test_c10_quotients(corpus):
    # quotient_polyadic refuses a quotient that is not reduced, and runs both
    # routes on every quotient: the kernel-table gathers, built into the k^n
    # table by _twisted_table, and the class oracle, which reads p through
    # eval_many; config.cross_check compares them by equality.  The corpus's
    # m^n tables fit the cost cap, so each table form is built, and it must
    # give the same answer.
    assert max(p.order**p.arity for p in corpus) <= DEFAULT_CAPS.axiom_cost_cap
    quotients = 0
    for p in corpus:
        table = as_table(p)
        for h in enumerate_normal_polyadic(p):
            if quotient_polyadic(table, h.members) != quotient_polyadic(p, h):
                _report("C10 quotients", False, f"table form differs on {p}")
            quotients += 1
    _report(
        "C10 quotients",
        quotients == 3743,
        f"({quotients} quotients, both forms, all reduced, routes agree)",
    )


def test_c11_lattice(corpus):
    pair_checks = 0
    triple_checks = 0
    for p in corpus:
        congs = congruences_theorem(p)
        k = len(congs)
        index = {c.classes: i for i, c in enumerate(congs)}
        meet = [[0] * k for _ in range(k)]
        join = [[0] * k for _ in range(k)]
        for i, r in enumerate(congs):
            for j, q in enumerate(congs):
                ops = lattice_ops(r, q)
                if not (ops.commutes and ops.composition_is_product and ops.kernel_identities):
                    _report("C11 lattice", False, f"pair diagnostics on {p}")
                meet[i][j] = index[ops.meet.classes]
                join[i][j] = index[ops.join.classes]
                pair_checks += 1
        for a, b, c in itertools.product(range(k), repeat=3):
            if meet[a][c] != a:  # modular law premise: a below c
                continue
            if join[a][meet[b][c]] != meet[join[a][b]][c]:
                _report("C11 lattice", False, f"modular law on {p}")
            triple_checks += 1
    _report(
        "C11 lattice",
        pair_checks == 28153 and triple_checks == 90305,
        f"({pair_checks} pairs, {triple_checks} modular triples)",
    )


def test_c12_census_completeness():
    start = time.monotonic()
    exhaustive = census(2, 3, "exhaustive")
    derived = census(2, 3, "derived")
    elapsed = time.monotonic() - start
    matched = len(exhaustive) == len(derived) == 2
    if matched:
        for e in exhaustive:
            if not any(
                are_isomorphic(e.representative, d.representative) is not None
                for d in derived
            ):
                matched = False
    ok = matched and elapsed < 1.0
    _report(
        "C12 census-completeness",
        ok,
        f"(2 isomorphism classes both modes, {elapsed:.2f}s)",
    )
