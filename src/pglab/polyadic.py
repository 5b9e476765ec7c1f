"""n-ary groups: derived presentations, raw tables, skew elements, retracts.

A derived presentation twists a binary group by an automorphism theta and a
constant b, with f(x1..xn) = x1·theta(x2)·theta²(x3)···theta^(n-1)(xn)·b.
Raw tables store the full n-dimensional operation flat, last argument
varying fastest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, reduce
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .config import Caps, DEFAULT_CAPS, cached_on, charge, cross_check, refusal
from .errors import (
    ArityMismatch,
    BNotFixed,
    CapExceeded,
    NoSolution,
    NotAssociative,
    NotCentral,
    NotSolvable,
    NotUnique,
    NotAutomorphism,
    PowerCondition,
    RoundTripMismatch,
    ValidationError,
)
from .groups import (
    Automorphism,
    FiniteGroup,
    automorphisms,
    group_from_rows,
    inverse_perm,
    make_automorphism,
)


@dataclass(frozen=True)
class DerivedPresentation:
    base: FiniteGroup
    theta: Automorphism
    b: int


@dataclass(frozen=True)
class TablePresentation:
    """The cells of the flat table, as flat_np holds them, in bytes."""

    order: int
    flat: bytes


Presentation = Union[DerivedPresentation, TablePresentation]


@dataclass(frozen=True)
class AxiomReport:
    """associative is None when undecided: a table that is not solvable has
    no split, and no exhaustive check when the cells that check's largest
    level compares pass axiom_cost_cap.  Two reports are
    equal when they decide alike; the violations are witnesses, and the
    theorem route and the oracle find different ones."""

    associative: Optional[bool]
    solvable: bool
    violations: tuple[tuple, ...] = field(compare=False)

    @property
    def ok(self) -> bool:
        return self.associative is True and self.solvable


@dataclass(frozen=True)
class PolyadicGroup:
    """An n-ary group held either as a derived presentation or a raw table."""

    arity: int
    presentation: Presentation
    name: str = field(default="", compare=False)

    @cached_property
    def order(self) -> int:
        if isinstance(self.presentation, DerivedPresentation):
            return self.presentation.base.order
        return self.presentation.order

    @property
    def is_derived(self) -> bool:
        return isinstance(self.presentation, DerivedPresentation)

    def __hash__(self) -> int:  # the dataclass's value hash, computed once
        return cached_on(self, "hash", lambda: hash((self.arity, self.presentation)))

    def eval(self, args: Sequence[int]) -> int:
        """f(args), read by eval_many; arguments outside 0..m−1 are refused
        (ValidationError)."""
        if len(args) != self.arity:
            raise ArityMismatch(f"expected {self.arity} arguments, got {len(args)}")
        return int(self.eval_many(np.asarray(self._in_carrier(args))[:, None])[0])

    def _in_carrier(self, args) -> tuple[int, ...]:
        """args as a tuple of Python ints, refused (ValidationError) unless
        each is an integer, not a bool, in 0..m−1: a non-empty flat tuple or
        list of exact ints in pure Python, any other input by numpy, whose
        array form must be 1-D (a nested or ragged input is refused)."""
        m = self.order
        if type(args) in (tuple, list) and args and all(type(v) is int and 0 <= v < m for v in args):
            return tuple(args)
        try:
            column = np.asarray(args)
        except ValueError:  # ragged nesting: numpy has no array form of it
            column = np.asarray(args, dtype=object)
        if (column.ndim != 1 or not _holds_integers(column, args)
                or column.min() < 0 or column.max() >= m):
            shown = np.asarray(args, dtype=object).tolist()
            raise ValidationError(f"arguments {shown} must be elements of the carrier 0..{m - 1}")
        return tuple(column.tolist())

    @cached_property
    def power_tables(self) -> tuple[np.ndarray, ...]:
        """A derived group's _power_tables, on its base table."""
        pres = self.presentation
        return _power_tables(pres.base.np_table, pres.theta.np_perm, pres.b, self.arity)

    def eval_many(self, args: np.ndarray) -> np.ndarray:
        """eval on every column of args, n equal-shaped arrays of carrier
        elements in any integer dtype, read from the presentation: a table
        by one gather of its cells, a derived group (in every oracle and
        check) by one gather of power_tables an argument, with no m^n
        table.  Unchecked: callers pass integer arrays in 0..m−1."""
        if not self.is_derived:
            return self.flat_np[np.ravel_multi_index(tuple(args), (self.order,) * self.arity)]
        acc = args[0]
        for table, x in zip(self.power_tables, args[1:]):
            acc = table[acc, x]
        return acc

    @cached_property
    def diagonal(self) -> np.ndarray:
        """f(x, ..., x) for every element x, by eval_many: a derived group
        builds no m^n table."""
        return self.eval_many(np.broadcast_to(np.arange(self.order), (self.arity, self.order)))

    @cached_property
    def flat_np(self) -> np.ndarray:
        """Flat operation table, index of (x1..xn) being sum of xi·m^(n-i), in
        the smallest unsigned dtype holding m−1 (one byte a cell through order
        256): index with it through np.take, widen it before arithmetic.  A
        derived group's cells are built (_twisted_table) for as_table alone,
        which charges them; every other reader takes eval_many."""
        pres = self.presentation
        if isinstance(pres, TablePresentation):
            return np.frombuffer(pres.flat, dtype=np.min_scalar_type(self.order - 1))
        return _twisted_table(pres.base.np_table, pres.theta.np_perm, pres.b, self.arity)

    @cached_property
    def skew_table(self) -> tuple[int, ...]:
        pres = self.presentation
        if isinstance(pres, TablePresentation):
            return tuple(self._skew_scan(np.arange(self.order)))
        # skew(x) = b⁻¹·P_{n−2}, every x at once: P_0 = e and
        # P_k = θ(P_{k−1}·x⁻¹) = θ^k(x⁻¹)⋯θ(x⁻¹)
        table, inverses = pres.base.np_table, np.asarray(pres.base.inverses)
        acc = np.zeros(self.order, dtype=np.intp)
        for _ in range(self.arity - 2):
            acc = pres.theta.np_perm[table[acc, inverses]]
        return tuple(table[pres.base.inv(pres.b), acc].tolist())

    def skew(self, x: int) -> int:
        return self.skew_table[x]

    def skew_oracle(self, x: int) -> int:
        """The unique y with f(x,...,x,y) = x, found by scanning all candidates;
        an x outside 0..m−1 is refused (ValidationError)."""
        return self._skew_scan(np.asarray(self._in_carrier([x])))[0]

    def _skew_scan(self, xs: np.ndarray) -> list[int]:
        """skew_oracle of each x in xs, by one eval_many of every (x,...,x,y);
        the first x with no candidate or several raises."""
        args = np.empty((self.arity, len(xs), self.order), dtype=np.intp)
        args[:-1], args[-1] = xs[:, None], np.arange(self.order)
        hits = self.eval_many(args.reshape(self.arity, -1)).reshape(len(xs), -1) == xs[:, None]
        wrong = np.flatnonzero(hits.sum(axis=1) != 1)
        if len(wrong):
            x, found = int(xs[wrong[0]]), np.flatnonzero(hits[wrong[0]]).tolist()
            if not found:
                raise NoSolution(f"no skew candidate for {x}; structure is corrupted")
            raise NotUnique(f"multiple skew candidates {found} for {x}")
        return hits.argmax(axis=1).tolist()

    @cached_property
    def view(self) -> "HosszuGloskin":
        """The derived coordinates der(G, θ, b) every theorem route reads: a
        derived group is its own view, relabelled by the identity; a table is
        read through its split at anchor 0, whose round trip is checked on
        every cell (from_table's verification builds it).  The caps were
        checked when the group was built."""
        if self.is_derived:
            return HosszuGloskin(self, tuple(range(self.order)))
        return hosszu_gloskin(self, 0)

    def __repr__(self) -> str:
        if isinstance(self.presentation, DerivedPresentation):
            base = self.presentation.base.name or f"order {self.order}"
            return f"PolyadicGroup(n={self.arity}, der({base}, b={self.presentation.b}))"
        return f"PolyadicGroup(n={self.arity}, table, order {self.order})"


def _power_tables(table: np.ndarray, theta: np.ndarray, b: int, n: int) -> tuple[np.ndarray, ...]:
    """The n−1 tables x·θ^i(y), i = 1..n−1, in table's dtype, the last
    multiplied by b: f(x1..xn) of der(table, θ, b) is x1 carried through
    them, one gather an argument (at arity 2 one table holds both θ and b)."""
    tables, perm = [], np.arange(len(table))
    for _ in range(n - 1):
        perm = np.take(theta, perm)
        tables.append(table[:, perm])
    tables[-1] = table[tables[-1], b]
    return tuple(tables)


def _twisted_table(table: np.ndarray, theta: np.ndarray, b: int, n: int) -> np.ndarray:
    """The flat table of x1·θ(x2)···θ^(n−1)(xn)·b, one byte a cell through
    order 256: acc holds f's prefix x1·θ(x2)···θ^i(x_{i+1}) for every prefix
    in flat order, and the rows of the next power table (_power_tables)
    taken at acc append the next argument as the fastest axis.  The widest
    index array is the m^(n−1) prefixes of the last gather."""
    table = np.asarray(table, dtype=np.min_scalar_type(len(table) - 1))
    acc = np.arange(len(table), dtype=table.dtype)
    for powers in _power_tables(table, theta, b, n):
        acc = np.take(powers, acc, axis=0).ravel()
    return acc


def packed_tuples(values: np.ndarray, base: int, n: int) -> np.ndarray:
    """For every argument tuple (x1..xn), in flat-table order, the number
    whose digits in the given base are values[x1], ..., values[xn]; for a
    stack of values (rows), one row of such numbers per row."""
    out = values = np.asarray(values, dtype=np.int64)
    for _ in range(n - 1):
        out = (out[..., :, None] * base + values[..., None, :]).reshape(*values.shape[:-1], -1)
    return out


# Cells (rows × tuples) per block of a batched check: its temporaries stay a
# few MB however many rows it is handed.
_BLOCK_CELLS = 1 << 16


def row_blocks(rows: np.ndarray, cells_per_row: int) -> Iterator[np.ndarray]:
    """rows in consecutive blocks of at most _BLOCK_CELLS cells (one row at least)."""
    step = max(1, _BLOCK_CELLS // max(1, cells_per_row))
    return (rows[lo : lo + step] for lo in range(0, len(rows), step))


def distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for a 1-D array, without the numpy.ma import np.unique makes."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])[: len(values)]]


def _firsts(rows: np.ndarray) -> np.ndarray:
    """The first row of each class of equal rows of a 2-D array, ascending,
    rows equal when all their cells are.  A row is one void key, sorted,
    and a class's first row the least index in its run, so no np.unique
    (and no numpy.ma) is read."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1] * rows.itemsize)))[:, 0]
    order = keys.argsort()
    ranked = keys[order]
    firsts = np.minimum.reduceat(order, np.concatenate(([0], (ranked[1:] != ranked[:-1]).nonzero()[0] + 1)))
    firsts.sort()
    return firsts


def _check_arity_order(n: int, m: int, caps: Caps) -> None:
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in (n, m)):
        raise ValidationError(f"arity and order must be integers, got {n!r} and {m!r}")
    if n < 2:
        raise ValidationError(f"arity must be at least 2, got {n}")
    if m < 1:
        raise ValidationError(f"order must be at least 1, got {m}")
    charge(caps, "arity_cap", n, "the operation")
    charge(caps, "order_cap", m, "the carrier")


def derive(
    base: FiniteGroup,
    theta: Automorphism,
    b: int,
    arity: int,
    caps: Caps = DEFAULT_CAPS,
    name: str = "",
) -> PolyadicGroup:
    """Twist a binary group into an n-ary one, within the arity and order caps.

    Requires theta(b) = b and theta^(n-1) = conjugation by b; associativity
    then holds by construction and is not re-verified.
    """
    _check_arity_order(arity, base.order, caps)
    return _twist(base, theta, b, arity, name)


def _twist(base: FiniteGroup, theta: Automorphism, b: int, arity: int, name: str) -> PolyadicGroup:
    """derive without the caps, for an arity and order already checked."""
    failures = _twist_gates(base, theta.np_perm[None], arity)[0, b]
    if failures[0]:
        raise BNotFixed(f"theta({b}) = {theta(b)} differs from {b}")
    if failures.any():
        x, power = int(failures.argmax()) - 1, theta.power(arity - 1)
        raise PowerCondition(
            f"theta^{arity - 1}({x}) = {power(x)} but {b}·{x}·{b}⁻¹ = {base.conj(b, x)}"
        )
    return PolyadicGroup(arity, DerivedPresentation(base, theta, b), name=name)


def _twist_gates(base: FiniteGroup, perms: np.ndarray, arity: int) -> np.ndarray:
    """derive's gates for a (k, m) stack of automorphisms θ and every b, a (k, m, m + 1) array:
    θ(b) ≠ b, then θ^(n−1)(x) ≠ b·x·b⁻¹ for each x (the Hosszú–Gluskin conditions)."""
    pw = reduce(lambda q, _: np.take_along_axis(perms, q, axis=1), range(arity - 2), perms)
    return np.dstack([(perms != np.arange(base.order))[..., None], base.conj_table != pw[:, None]])


def derive_b(
    base: FiniteGroup, b: int, arity: int, caps: Caps = DEFAULT_CAPS, name: str = ""
) -> PolyadicGroup:
    """The b-derived operation x1·x2···xn·b for a central constant b."""
    if b not in base.center:
        raise NotCentral(f"{b} does not commute with every element")
    return derive(base, Automorphism.identity(base.order), b, arity, caps=caps, name=name)


def verify_table_axioms(
    arity: int,
    order: int,
    flat: Sequence[int],
    caps: Caps = DEFAULT_CAPS,
) -> AxiomReport:
    """Check n-ary associativity and per-position solvability of a raw table
    exhaustively, with no theorem: the oracle of verify_axioms and the
    exhaustive census's check.

    Associativity compares f(x₀…x_{i−1}, f(x_i…x_{i+n−1}), x_{i+n}…)
    for every adjacent pair of placements i over all m^(2n−1) argument
    tuples, read as one tuple per distinct block and key
    (_associativity_witness).  It refuses (CostCapExceeded) when the
    cells its largest level compares exceed the cost cap rather than
    silently sampling.
    """
    m, n = order, arity
    _check_arity_order(n, m, caps)
    small = _table_array(n, m, flat)
    ws = _key_classes(small, m, n)
    exc = _exhaustive_refusal(len(ws), m, n, caps)
    if exc:
        raise exc
    return _exhaustive_report(small, m, n, ws, _check_solvability(small, m, n))


def _exhaustive_refusal(classes: int, m: int, n: int, caps: Caps) -> Optional[CapExceeded]:
    """The exhaustive check's gate: the cells its largest level compares
    within axiom_cost_cap.  Level i compares B_i·K·m^(n−i) cells for its
    B_i ≤ m^(i−1) blocks and the K = m·classes keys (_key_classes' w
    classes), so the first level, one block, compares the most: K·m^(n−1)."""
    return refusal(caps, "axiom_cost_cap", classes * m**n, "exhaustive associativity")


def _exhaustive_report(small: np.ndarray, m: int, n: int, ws: np.ndarray, solvability: tuple) -> AxiomReport:
    """The exhaustive check's report on the raw table small: its
    associativity witness first, then solvability's violations."""
    bad = _associativity_witness(small, m, n, ws)
    solvable, violations = solvability
    return AxiomReport(bad is None, solvable, ((bad,) if bad else ()) + violations)


def _key_classes(small: np.ndarray, m: int, n: int) -> np.ndarray:
    """The least w = x_i…x_{i+n−2} of each class of w's that the placement
    pairs cannot tell apart, ascending: w's told apart by their column
    T[·, w] and their row T[w, ·] (_firsts).  A grid of one block
    (_BLOCK_CELLS) takes every w as its own class and sorts nothing."""
    if m ** (2 * n - 1) <= _BLOCK_CELLS:
        return np.arange(m ** (n - 1))
    return _firsts(np.concatenate([small.reshape(m, -1).T, small.reshape(-1, m)], axis=1))


def _associativity_witness(small: np.ndarray, m: int, n: int, ws: np.ndarray) -> Optional[tuple]:
    """("associativity", i, args) for the smallest i whose placements i−1
    and i differ, args their first differing tuple in C order; None when
    the table is associative.

    For the pair (i−1, i) write a tuple as (π, a, w, r), π = x₀…x_{i−2},
    a = x_{i−1}, w = x_i…x_{i+n−2} and r the last n−i coordinates.  Over
    r, placement i−1 is row T(a, w) of π's level-(i−1) block T[π, ·, …],
    and placement i is row a of that block, (π, a)'s level-i block,
    indexed along its first axis by w's row T[w, ·].  Both depend on the
    tuple only through π's block and the key (a, w's class) (ws,
    _key_classes), so each level compares one π per distinct block, its
    least, with every a and each w of ws: m^(n−i) cells a tuple, in blocks
    of π's and a's (row_blocks; one (π, a) at least, at most m^(2n−2)
    cells, one x₀ row of the grid).  Blocks, told apart by all their cells
    (_firsts), are found among the last level's representatives extended
    by one coordinate, since π's block is a row of its parent's block; m
    or fewer, or any when every w is its own class, are taken as they are.
    Blocks run in (π, a, w) order, each class read through its least
    member, so the first differing tuple at the smallest failing level is
    the witness."""
    # T(a, w) for every a and each w of ws, and w's row T[w, ·]
    values, rows = small.reshape(m, -1).take(ws, axis=1), small.reshape(-1, m).take(ws, axis=0)
    pis = np.zeros(1, dtype=np.intp)
    for i in range(1, n):
        width = m ** (n - i)
        if i > 1:
            pis = (pis[:, None] * m + np.arange(m)).ravel()
            if len(pis) > m and len(ws) < m ** (n - 1):
                pis = pis[_firsts(small.reshape(m ** (i - 1), -1).take(pis, axis=0))]
        for ps in row_blocks(pis, m * len(ws) * width):
            blocks, lo = small.reshape(-1, m, width).take(ps, axis=0), 0
            for vs in row_blocks(values, len(ps) * len(ws) * width):  # a = lo, lo + 1, …
                prev = blocks.take(vs, axis=1)
                cur = blocks.reshape(len(ps), m, m, -1)[:, lo : lo + len(vs)].take(rows, axis=2)
                differ = prev != cur.reshape(prev.shape)
                if differ.any():
                    p, k, j, r = np.unravel_index(int(differ.argmax()), differ.shape)
                    at = ((int(ps[p]) * m + lo + int(k)) * m ** (n - 1) + int(ws[j])) * width + int(r)
                    bad = np.unravel_index(at, (m,) * (2 * n - 1))
                    return ("associativity", i, tuple(int(v) for v in bad))
                lo += len(vs)
    return None


def _check_solvability(flat: np.ndarray, m: int, n: int) -> tuple[bool, tuple]:
    """Existence of solutions at each position of the flat table (rows must be onto)."""
    for i in range(n):
        rows = np.moveaxis(flat.reshape((m,) * n), i, -1).reshape(-1, m)
        hit = np.zeros(rows.shape, dtype=bool)
        hit[np.arange(len(rows))[:, None], rows] = True
        ok = hit.all(axis=1)
        if not ok.all():
            row = int(np.argwhere(~ok)[0][0])
            missing = int(np.argwhere(~hit[row])[0][0])
            context = np.unravel_index(row, (m,) * (n - 1))
            return False, (("solvability", i, tuple(int(v) for v in context), missing),)
    return True, ()


_BOOLS = frozenset({bool, np.bool_})


def _holds_integers(arr: np.ndarray, values) -> bool:
    """Whether arr, np.asarray(values), holds integers and no bool.  numpy
    reads a bool among ints as 0 or 1, so the cell types of values that is
    not an array are read; an array's dtype says it all."""
    return arr.dtype.kind in "iu" and (
        isinstance(values, np.ndarray) or _BOOLS.isdisjoint(map(type, values))
    )


def _table_array(n: int, m: int, flat: Sequence[int]) -> np.ndarray:
    """flat in flat_np's dtype, refused (ValidationError) unless it has m^n
    entries, each an integer (not a bool) in 0..m−1; bytes are read as a
    sequence of byte values."""
    if isinstance(flat, bytes):
        flat = np.frombuffer(flat, dtype=np.uint8)
    arr = np.asarray(flat)
    if not _holds_integers(arr, flat):
        raise ValidationError("table entries must be integers")
    if arr.shape != (m**n,):
        raise ValidationError(f"flat table must have m^n = {m ** n} entries")
    if arr.min() < 0 or arr.max() >= m:
        raise ValidationError("table entries out of range")
    return arr.astype(np.min_scalar_type(m - 1), copy=False)


def _solvability(p: PolyadicGroup, caps: Caps) -> tuple[bool, tuple]:
    """_check_solvability of p's table, stored on p; reading its m^n cells
    is charged to axiom_cost_cap (CostCapExceeded)."""
    charge(caps, "axiom_cost_cap", p.order**p.arity, "the axiom check")
    return cached_on(p, "solvability", lambda: _check_solvability(p.flat_np, p.order, p.arity))


def _split_report(p: PolyadicGroup) -> AxiomReport:
    """The theorem route for a solvable table: it is an n-ary group iff its
    split at anchor 0 succeeds (Hosszú 1963, Gluskin 1965), and a split that
    fails (a retract that is not a group, an invalid twist, a round trip
    that differs) means it is not associative.  A split that succeeds is
    p's view, built here once."""
    try:
        p.view
    except (ValidationError, RoundTripMismatch) as exc:
        return AxiomReport(False, True, (("split", 0, str(exc)),))
    return AxiomReport(True, True, ())


def verify_axioms(p: PolyadicGroup, caps: Caps = DEFAULT_CAPS) -> AxiomReport:
    """Axiom report for a table-form polyadic group, decided through
    config.cross_check.  Solvability is read first, from the m^n cells.  On
    a solvable table the theorem route is the split at anchor 0
    (_split_report); the oracle, verify_table_axioms' exhaustive check,
    runs too where the cells its largest level compares fit
    axiom_cost_cap (_exhaustive_refusal), and its witness comes first,
    then the split's; a solvable table has m w classes or more (w₁ ↦
    T(w₁, w′, x) is onto), so past m·m^n cells none is sorted.  A table
    that is not solvable has no split: its associativity is the oracle's,
    None past the cap.  Reading the m^n cells is charged to axiom_cost_cap
    (CostCapExceeded)."""
    if p.is_derived:
        raise ValidationError("verify_axioms expects a table presentation")
    m, n = p.order, p.arity
    solvable, violations = _solvability(p, caps)
    ws = cache(lambda: _key_classes(p.flat_np, m, n))
    feasible = (_exhaustive_refusal(m if solvable else 1, m, n, caps) is None
                and _exhaustive_refusal(len(ws()), m, n, caps) is None)
    oracle = cache(lambda: _exhaustive_report(p.flat_np, m, n, ws(), (solvable, violations)))
    if not solvable:
        return oracle() if feasible else AxiomReport(None, False, violations)
    report = cross_check("table axioms", "auto", lambda: _split_report(p), oracle, feasible)
    witness = oracle().violations if feasible else ()
    return AxiomReport(report.associative, True, witness + report.violations)


def from_table(
    arity: int,
    order: int,
    flat: Sequence[int],
    caps: Caps = DEFAULT_CAPS,
    verify: bool = True,
    name: str = "",
) -> PolyadicGroup:
    """Wrap a raw flat table, verifying the n-ary group axioms by default
    (verify_axioms, solvability first; a verified table keeps its split as
    its view); its length, cells and range are checked (ValidationError)
    whatever verify says."""
    _check_arity_order(arity, order, caps)
    p = _wrap_table(arity, order, flat, name)
    if verify:
        solvable, violations = _solvability(p, caps)
        if not solvable:
            raise NotSolvable(f"table fails solvability: {violations[0]}")
        report = verify_axioms(p, caps)
        if not report.associative:
            raise NotAssociative(f"table fails associativity: {report.violations[0]}")
    return p


def _wrap_table(arity: int, order: int, flat: Sequence[int], name: str = "") -> PolyadicGroup:
    """from_table without the caps or the axioms, for an arity and order
    already checked and a table that is an n-ary group by construction."""
    table = _table_array(arity, order, flat)
    return PolyadicGroup(arity, TablePresentation(order, table.tobytes()), name=name)


def as_table(p: PolyadicGroup, caps: Caps = DEFAULT_CAPS) -> PolyadicGroup:
    """Forget the presentation, keeping only the raw operation table; a
    derived group's m^n cells must fit axiom_cost_cap before it is built."""
    if not p.is_derived:
        return p
    charge(caps, "axiom_cost_cap", p.order**p.arity, "the table form")
    return PolyadicGroup(p.arity, TablePresentation(p.order, p.flat_np.tobytes()), name=p.name)


def split_tuples(p: PolyadicGroup, a: int, xs: Sequence[int]) -> np.ndarray:
    """Columns (x, a,…,a, y), x-major, then (skew(a), x, a,…,a), then
    (skew(a),…,skew(a)), x and y in xs: they read p's retract, twist and c at a."""
    abar, k = p.skew(a), len(xs)
    args = np.full((p.arity, k * k + k + 1), a)
    args[0, : k * k], args[-1, : k * k] = np.repeat(xs, k), np.tile(xs, k)
    args[0, k * k :], args[1, k * k :] = abar, np.append(xs, abar)
    args[2:, -1] = abar
    return args


def _retract(p: PolyadicGroup, a: int):
    """The retract at a and its relabelling (see `retract`), then the
    split_tuples at a over the carrier and p's values on them."""
    m = p.order
    if not 0 <= a < m:
        raise ValidationError(f"anchor {a} is outside the carrier 0..{m - 1}")
    args, abar = split_tuples(p, a, np.arange(m)), p.skew(a)
    values = p.eval_many(args)
    unrelabel = np.asarray([abar] + [x for x in range(m) if x != abar])
    relabel = np.argsort(unrelabel)
    table = relabel[values[: m * m].reshape(m, m)[np.ix_(unrelabel, unrelabel)]].tolist()
    rows, name = tuple(map(tuple, table)), p.name and f"ret_{a}({p.name})"
    # a derived p's retracts are validated once per base: der(G, θ, b)'s at
    # 0 is x·b·y whatever θ is, and every twist of (G, b) shares it
    groups = cached_on(p.presentation.base, "retract_groups", dict) if p.is_derived else {}
    if (rows, name) not in groups:
        groups[rows, name] = group_from_rows(rows, name)
    return groups[rows, name], relabel, args, values


def retract(p: PolyadicGroup, a: int) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The binary group x∗y = f(x, a,...,a, y), relabelled so skew(a) ↦ 0.

    skew(a) is the identity of the retract; the returned relabelling moves it
    to index 0 and keeps the remaining elements in ascending order.
    """
    group, relabel, *_ = _retract(p, a)
    return group, tuple(relabel.tolist())


@dataclass(frozen=True)
class HosszuGloskin:
    """A derived-form group plus the relabelling of the original carrier
    onto its carrier: the derived coordinates of a polyadic group."""

    group: PolyadicGroup
    relabel: tuple[int, ...]

    @property
    def presentation(self) -> DerivedPresentation:
        return self.group.presentation

    @cached_property
    def base(self) -> FiniteGroup:
        return self.presentation.base

    @cached_property
    def theta(self) -> Automorphism:
        return self.presentation.theta

    @cached_property
    def b(self) -> int:
        return self.presentation.b

    @cached_property
    def unrelabel(self) -> tuple[int, ...]:
        return inverse_perm(self.relabel)

    @cached_property
    def np_relabel(self) -> np.ndarray:
        """relabel as a read-only array, for gathers."""
        return _read_only(self.relabel)

    @cached_property
    def np_unrelabel(self) -> np.ndarray:
        """unrelabel as a read-only array, for gathers."""
        return _read_only(self.unrelabel)


def _read_only(values: Sequence[int]) -> np.ndarray:
    arr = np.asarray(values)
    arr.flags.writeable = False
    return arr


def hosszu_gloskin(p: PolyadicGroup, a: int) -> HosszuGloskin:
    """Decompose f over the retract at a: twist phi(x) = f(skew(a), x, a,...,a)
    and constant c = f(skew(a),...,skew(a)), checking the derived-form gates
    and that der(retract, phi, c), rebuilt in p's coordinates, is f.  A table,
    which may hold any cells, is compared on every cell, a RoundTripMismatch
    naming the flat index.  A derived p and the rebuilt side are n-ary groups
    by construction, each fixed by its split at a, so they are compared on
    the m²+m+1 split_tuples alone, with no m^n table, a RoundTripMismatch
    naming the argument tuple."""
    m, n = p.order, p.arity
    group, relabel, args, values = _retract(p, a)
    ret, twist, c = values[: m * m].reshape(m, m), values[m * m : -1], int(values[-1])
    try:
        phi = make_automorphism(group, tuple(relabel[twist[np.argsort(relabel)]].tolist()))
        derived = _twist(group, phi, int(relabel[c]), n, p.name and f"hg({p.name})")
    except (NotAutomorphism, BNotFixed, PowerCondition) as exc:
        raise RoundTripMismatch(f"retract twist is not a valid presentation: {exc}")

    if p.is_derived:
        bad = np.flatnonzero(relabel[values] != derived.eval_many(relabel[args]))
        if len(bad):
            where = tuple(args[:, bad[0]].tolist())
            raise RoundTripMismatch(f"rebuilt operation differs at {where}")
    else:
        # the retract, phi and c carried back to p's carrier
        bad = np.flatnonzero(_twisted_table(ret, twist, c, n) != p.flat_np)
        if len(bad):
            raise RoundTripMismatch(f"rebuilt operation differs at flat index {bad[0]}")
    return HosszuGloskin(derived, tuple(relabel.tolist()))


def n_ary_identity(p: PolyadicGroup) -> Optional[int]:
    """The smallest element acting as identity in every slot, if any: only
    an idempotent can be one, so the n·m slot tuples (a,…,a, x, a,…,a) of
    every idempotent a are read at once."""
    m, n = p.order, p.arity
    candidates = np.flatnonzero(p.diagonal == np.arange(m))
    if not len(candidates):
        return None
    # args[j, a, i, x]: slot j of the tuple with x in slot i, a elsewhere
    slot = np.eye(n, dtype=bool)[:, None, :, None]
    args = np.where(slot, np.arange(m), candidates[:, None, None])
    values = p.eval_many(args.reshape(n, -1)).reshape(len(candidates), -1)
    identities = candidates[(values == np.tile(np.arange(m), n)).all(axis=1)]
    return int(identities[0]) if len(identities) else None


def is_reduced(p: PolyadicGroup) -> bool:
    """Reduced means the operation comes from a plain group: an identity exists."""
    return n_ary_identity(p) is not None


def dornte_witness(p: PolyadicGroup) -> Optional[tuple]:
    """First violated skew identity, or None when all hold.

    The identities assert that skew(x) cancels x in every slot arrangement:
    f(x..x, skew, x..x, y) = y, f(y, x..x, skew, x..x) = y and
    f(x..x, skew, x..x) = x.  Every instance is read by one eval_many.
    """
    m, n = p.order, p.arity
    checks = []  # (witness, arguments, value the identity asserts), in scan order
    for x, sx in enumerate(p.skew_table):
        for k in range(1, n + 1):
            checks.append((("fixed", x, k), [x] * (k - 1) + [sx] + [x] * (n - k), x))
        for y in range(m):
            for i in range(2, n + 1):
                checks.append((("left", x, y, i), [x] * (i - 2) + [sx] + [x] * (n - i) + [y], y))
            for j in range(2, n + 1):
                checks.append((("right", x, y, j), [y] + [x] * (n - j) + [sx] + [x] * (j - 2), y))
    witnesses, args, values = zip(*checks)
    bad = np.flatnonzero(p.eval_many(np.asarray(args).T) != values)
    return witnesses[bad[0]] if len(bad) else None


def hg_anchor0(p: PolyadicGroup) -> HosszuGloskin:
    """The anchor-0 decomposition, the canonical presentation for hom work:
    a table's view; a derived p with b = 0 is its own split at 0
    (θ^(n−1) = conj(0) = id, so the retract is x·y, the twist θ and the
    constant 0), its view; any other derived p's split at 0 is stored on p
    and built without p's m^n table, its gates and round trip checked, its
    retract group shared by the twists of its (G, b) (_retract)."""
    if not p.is_derived or p.presentation.b == 0:
        return p.view
    return cached_on(p, "anchor0_view", lambda: hosszu_gloskin(p, 0))


def all_derived(
    base: FiniteGroup, arity: int, caps: Caps = DEFAULT_CAPS
) -> list[PolyadicGroup]:
    """Every valid twist (theta, b) of a base group at a given arity, theta
    in automorphism order, then b ascending: _valid_twists' pairs."""
    auts, _, thetas, bs = _valid_twists(base, arity, caps)
    return [
        PolyadicGroup(arity, DerivedPresentation(base, auts[i], b), name=base.name)
        for i, b in zip(thetas.tolist(), bs.tolist())
    ]


def _valid_twists(base: FiniteGroup, arity: int, caps: Caps) -> tuple:
    """Aut(base), its (k, m) stack of permutations and the valid twists as
    index arrays (θ's row, b) in all_derived's order, by one _twist_gates."""
    auts = automorphisms(base, caps=caps)
    _check_arity_order(arity, base.order, caps)
    perms = np.asarray([a.perm for a in auts], dtype=np.int64).reshape(len(auts), base.order)
    return (auts, perms, *np.nonzero(~_twist_gates(base, perms, arity).any(axis=2)))
