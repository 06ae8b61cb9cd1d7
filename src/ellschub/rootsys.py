"""Root systems of simple Cartan types, built from their Cartan matrix.

All vectors live in simple-root (resp. simple-coroot) integer coordinates.
With simple roots a_1..a_r and Cartan matrix A, A[i][j] = <a_j, a_i^v>, the
simple reflection s_i acts by

    s_i(a_j)   = a_j   - A[i][j] a_i        (root lattice),
    s_i(a_j^v) = a_j^v - A[j][i] a_i^v      (coroot lattice).

Positive roots are enumerated together with their coroots by closing the
paired simple (root, coroot) basis vectors under all simple reflections, so
the i-th stored coroot is the coroot of the i-th stored root.
"""

from __future__ import annotations

from dataclasses import dataclass

ROOT = "root"
COROOT = "coroot"

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class InvalidCartanError(ValueError):
    """Raised for labels outside the simple families or malformed input."""


@dataclass(frozen=True)
class CartanLabel:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_BOUNDS:
            raise InvalidCartanError(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise InvalidCartanError(
                f"rank {self.rank} out of bounds for family {self.family} "
                f"(expected {lo}..{hi if hi is not None else 'inf'})"
            )

    def __str__(self):
        return f"{self.family}{self.rank}"


def parse_label(text: str) -> CartanLabel:
    """Parse labels like "B2", "A3", "G2".

    >>> parse_label("B2")
    CartanLabel(family='B', rank=2)
    """
    text = text.strip()
    if len(text) < 2 or not text[0].isalpha() or not text[1:].isdigit():
        raise InvalidCartanError(f"cannot parse Cartan label {text!r}")
    return CartanLabel(text[0].upper(), int(text[1:]))


def cartan_matrix(label: CartanLabel) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with A[i][j] = 2(a_i, a_j)/(a_i, a_i)."""
    n = label.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def chain(i, j, down=-1, up=-1):
        a[i][j] = down
        a[j][i] = up

    fam = label.family
    if fam in ("A", "B", "C", "D", "F", "G"):
        for i in range(n - 1):
            chain(i, i + 1)
    if fam == "B":
        # last simple root short
        a[n - 1][n - 2] = -2
    elif fam == "C":
        a[n - 2][n - 1] = -2
    elif fam == "D":
        chain(n - 3, n - 1)
        a[n - 2][n - 1] = 0
        a[n - 1][n - 2] = 0
    elif fam == "G":
        # first simple root long
        a[1][0] = -3
    elif fam == "F":
        # roots 1,2 long; 3,4 short
        a[2][1] = -2
    elif fam == "E":
        # chain 1-3-4-5-..., node 2 hangs off node 4
        for i in range(n):
            for j in range(n):
                a[i][j] = 2 if i == j else 0
        bonds = [(0, 2), (2, 3), (3, 4)] + [(i, i + 1) for i in range(4, n - 1)]
        bonds.append((1, 3))
        for i, j in bonds:
            chain(i, j)
    return tuple(tuple(row) for row in a)


@dataclass(frozen=True)
class RootSystem:
    label: CartanLabel
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    positive_coroots: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.label.rank


def _basis(rank, s):
    if not 1 <= s <= rank:
        raise IndexError(f"simple index {s} out of range 1..{rank}")
    return tuple(1 if t == s - 1 else 0 for t in range(rank))


def _reflect_coords(cartan, s, coords, lattice):
    """Coordinates of s_s(v); uses the transposed matrix on the coroot side."""
    i = s - 1
    if lattice == ROOT:
        pair = sum(cartan[i][j] * coords[j] for j in range(len(coords)))
    else:
        pair = sum(cartan[j][i] * coords[j] for j in range(len(coords)))
    out = list(coords)
    out[i] -= pair
    return tuple(out)


def build_root_system(label: CartanLabel) -> RootSystem:
    """Enumerate positive roots and index-aligned coroots by reflection closure."""
    cartan = cartan_matrix(label)
    n = label.rank
    seeds = [(_basis(n, s), _basis(n, s)) for s in range(1, n + 1)]
    seen = set(seeds)
    queue = list(seeds)
    while queue:
        root, coroot = queue.pop()
        for s in range(1, n + 1):
            pair = (
                _reflect_coords(cartan, s, root, ROOT),
                _reflect_coords(cartan, s, coroot, COROOT),
            )
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    positive = sorted(p for p in seen if all(c >= 0 for c in p[0]))
    return RootSystem(
        label,
        cartan,
        tuple(p[0] for p in positive),
        tuple(p[1] for p in positive),
    )


def langlands_dual(rs: RootSystem) -> RootSystem:
    """Dual root system: transposed Cartan matrix, roots and coroots swapped.

    The (root, coroot) pairs of rs are carried over with the roles exchanged,
    so applying this twice is the identity on all stored data.
    """
    swap = {"B": "C", "C": "B"}
    dual_label = CartanLabel(swap.get(rs.label.family, rs.label.family), rs.label.rank)
    transposed = tuple(tuple(row[i] for row in rs.cartan) for i in range(rs.rank))
    pairs = sorted(zip(rs.positive_coroots, rs.positive_roots))
    return RootSystem(
        dual_label,
        transposed,
        tuple(p[0] for p in pairs),
        tuple(p[1] for p in pairs),
    )
