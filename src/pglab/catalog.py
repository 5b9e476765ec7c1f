"""Built-in inventory of small groups, each encoded with identity at index 0."""

from __future__ import annotations

import itertools
from functools import lru_cache

from .groups import FiniteGroup, make_group


def cyclic(m: int, name: str = "") -> FiniteGroup:
    table = [[(i + j) % m for j in range(m)] for i in range(m)]
    return make_group(table, name=name or f"Z{m}")


def direct_product(g1: FiniteGroup, g2: FiniteGroup, name: str = "") -> FiniteGroup:
    """Product group with index (a, b) packed as a·|G2| + b."""
    m2 = g2.order
    m = g1.order * m2
    table = [[0] * m for _ in range(m)]
    for a1, b1 in itertools.product(range(g1.order), range(m2)):
        i = a1 * m2 + b1
        for a2, b2 in itertools.product(range(g1.order), range(m2)):
            j = a2 * m2 + b2
            table[i][j] = g1.mul(a1, a2) * m2 + g2.mul(b1, b2)
    return make_group(table, name=name or f"{g1.name}x{g2.name}")


def _perm_group(perms: list[tuple[int, ...]], name: str) -> FiniteGroup:
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = [[0] * m for _ in range(m)]
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i][j] = index[tuple(p[q[x]] for x in range(len(p)))]
    return make_group(table, name=name)


def symmetric3() -> FiniteGroup:
    perms = sorted(itertools.permutations(range(3)))
    return _perm_group(list(perms), "S3")


def alternating4() -> FiniteGroup:
    def parity(p: tuple[int, ...]) -> int:
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j])
        return inv % 2

    perms = [p for p in sorted(itertools.permutations(range(4))) if parity(p) == 0]
    return _perm_group(perms, "A4")


def dihedral(k: int, name: str = "") -> FiniteGroup:
    """Symmetries of the regular k-gon; r^i s^j has index i + k·j."""
    m = 2 * k
    table = [[0] * m for _ in range(m)]
    for i, j in itertools.product(range(k), range(2)):
        for p, q in itertools.product(range(k), range(2)):
            rot = (i + (p if j == 0 else -p)) % k
            table[i + k * j][p + k * q] = rot + k * ((j + q) % 2)
    return make_group(table, name=name or f"D{k}")


def quaternion8() -> FiniteGroup:
    """Unit quaternions; index 2·unit + sign with units 1, i, j, k."""
    unit_mul = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }
    table = [[0] * 8 for _ in range(8)]
    for i in range(8):
        ui, si = i // 2, -1 if i % 2 else 1
        for j in range(8):
            uj, sj = j // 2, -1 if j % 2 else 1
            uk, sk = unit_mul[(ui, uj)]
            sign = si * sj * sk
            table[i][j] = 2 * uk + (1 if sign < 0 else 0)
    return make_group(table, name="Q8")


# OEIS A000001: the number of groups of order 1, 2, ..., 16.
A000001 = (1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14)


@lru_cache(maxsize=1)
def catalog() -> dict[str, FiniteGroup]:
    """Name → group for the built-in small-group inventory."""
    groups: dict[str, FiniteGroup] = {}
    for m in range(1, 13):
        groups[f"Z{m}"] = cyclic(m)
    z2, z3, z4 = groups["Z2"], groups["Z3"], groups["Z4"]
    groups["Z2xZ2"] = direct_product(z2, z2, "Z2xZ2")
    groups["Z2xZ4"] = direct_product(z2, z4, "Z2xZ4")
    groups["Z2xZ2xZ2"] = direct_product(groups["Z2xZ2"], z2, "Z2xZ2xZ2")
    groups["S3"] = symmetric3()
    groups["D4"] = dihedral(4)
    groups["Q8"] = quaternion8()
    groups["D5"] = dihedral(5)
    groups["A4"] = alternating4()
    groups["Z3xZ3"] = direct_product(z3, z3, "Z3xZ3")
    return groups


def catalog_group(name: str) -> FiniteGroup:
    try:
        return catalog()[name]
    except KeyError:
        raise KeyError(f"unknown catalog group {name!r}; known: {sorted(catalog())}")


def groups_of_order(m: int) -> list[FiniteGroup]:
    """Catalog groups of a given order, in catalog insertion order."""
    return [g for g in catalog().values() if g.order == m]
