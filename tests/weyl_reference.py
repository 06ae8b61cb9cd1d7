"""Test-side references for Weyl groups, independent of weyl.enumerate_group.

The library knows an element only by its root_index row. Here every element
is an integer matrix on root-lattice coordinates (column j = image of the
j-th simple root), with a companion matrix on the coroot lattice, found by a
BFS over matrix products; the tables are then built from the matrices by
their definitions. The Bruhat order is the standard descent recursion,
with no cache. A root or coroot is a `LatticeVector`, its simple
coordinates tagged with its lattice, which `reflect` and `pairing` read.
"""

from dataclasses import dataclass
from functools import lru_cache

from ellschub.rootsys import COROOT, ROOT, _basis, _reflect_coords


@dataclass(frozen=True)
class LatticeVector:
    coords: tuple[int, ...]
    lattice: str

    def __post_init__(self):
        if self.lattice not in (ROOT, COROOT):
            raise ValueError(f"bad lattice tag {self.lattice!r}")


def reflect(rs, s: int, v: LatticeVector) -> LatticeVector:
    """Simple reflection s_s applied to v, staying in v's lattice.

    >>> from ellschub.rootsys import build_root_system, parse_label
    >>> reflect(build_root_system(parse_label("B2")), 2,
    ...         LatticeVector((1, 0), ROOT)).coords
    (1, 2)
    """
    if not 1 <= s <= rs.rank:
        raise IndexError(f"simple index {s} out of range 1..{rs.rank}")
    return LatticeVector(_reflect_coords(rs.cartan, s, v.coords, v.lattice), v.lattice)


def pairing(rs, root: LatticeVector, coroot: LatticeVector) -> int:
    """<root, coroot> in simple coordinates: coroot^T A root."""
    if root.lattice != ROOT or coroot.lattice != COROOT:
        raise ValueError("pairing expects (root, coroot)")
    a = rs.cartan
    n = rs.rank
    return sum(
        coroot.coords[i] * a[i][j] * root.coords[j]
        for i in range(n)
        for j in range(n)
    )


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _matmul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _matvec(m, v):
    n = len(m)
    return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))


def _generator(cartan, s, lattice):
    n = len(cartan)
    cols = [_reflect_coords(cartan, s, _basis(n, j + 1), lattice) for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _walk(rmult, w, word):
    for s in word:
        w = rmult[w][s - 1]
    return w


def _signed(vectors):
    return vectors + tuple(tuple(-c for c in v) for v in vectors)


def _column_index(matrices, vectors):
    """[w][s-1] -> index in vectors of column s of matrices[w]."""
    where = {v: i for i, v in enumerate(vectors)}
    return tuple(tuple(where[col] for col in zip(*m)) for m in matrices)


@lru_cache(maxsize=None)
def matrix_group(rs):
    """Every WeylGroup table of rs (but rs itself), keyed by field name, plus
    the "matrices" and "coroot_matrices" of the elements: a BFS from the
    identity by right multiplication with the generator matrices."""
    n = rs.rank
    gens = [_generator(rs.cartan, s, ROOT) for s in range(1, n + 1)]
    cogens = [_generator(rs.cartan, s, COROOT) for s in range(1, n + 1)]
    matrices, comatrices, lengths = [_identity(n)], [_identity(n)], [0]
    index = {matrices[0]: 0}
    rmult_rows = [[-1] * n]
    frontier = [0]
    while frontier:
        nxt = []
        for w in frontier:
            for s in range(1, n + 1):
                m = _matmul(matrices[w], gens[s - 1])
                i = index.get(m)
                if i is None:
                    i = index[m] = len(matrices)
                    matrices.append(m)
                    comatrices.append(_matmul(comatrices[w], cogens[s - 1]))
                    lengths.append(lengths[w] + 1)
                    rmult_rows.append([-1] * n)
                    nxt.append(i)
                rmult_rows[w][s - 1] = i
        frontier = nxt
    rmult = tuple(tuple(row) for row in rmult_rows)

    words = [()]
    for w in range(1, len(matrices)):
        t = next(t for t in range(1, n + 1) if lengths[rmult[w][t - 1]] < lengths[w])
        words.append(words[rmult[w][t - 1]] + (t,))
    inverses = tuple(_walk(rmult, 0, reversed(word)) for word in words)
    t0 = max(range(len(matrices)), key=lambda i: lengths[i])
    simple = {matrices[rmult[0][s - 1]]: s for s in range(1, n + 1)}
    star = tuple(simple[_matmul(_matmul(matrices[t0], gens[s - 1]), matrices[t0])]
                 for s in range(1, n + 1))
    roots = _signed(rs.positive_roots)
    root_index = _column_index(matrices, roots)
    where = {beta: i for i, beta in enumerate(roots)}
    return {
        "matrices": tuple(matrices),
        "coroot_matrices": tuple(comatrices),
        "lengths": tuple(lengths),
        "rmult_table": rmult,
        "words": tuple(words),
        "inverses": inverses,
        "t0": t0,
        "star": star,
        "roots": roots,
        "root_index": root_index,
        "step_roots": tuple(tuple(dict.fromkeys(row[s] for row in root_index))
                            for s in range(n)),
        "coroots": _signed(rs.positive_coroots),
        "reflected": tuple(tuple(where[_matvec(g, beta)] for beta in roots) for g in gens),
    }


def matrices(W):
    """W's elements as root-lattice matrices, by element index."""
    return matrix_group(W.rs)["matrices"]


def coroot_matrices(W):
    """W's elements as coroot-lattice matrices, by element index."""
    return matrix_group(W.rs)["coroot_matrices"]


def act(W, w, v: LatticeVector) -> LatticeVector:
    """w(v), in v's lattice."""
    m = (matrices if v.lattice == ROOT else coroot_matrices)(W)[w]
    return LatticeVector(_matvec(m, v.coords), v.lattice)


def simple_root(rs, s) -> LatticeVector:
    return LatticeVector(_basis(rs.rank, s), ROOT)


def simple_coroot(rs, s) -> LatticeVector:
    return LatticeVector(_basis(rs.rank, s), COROOT)


# --- Bruhat order -----------------------------------------------------------


def descents_right(W, w):
    return [s for s in range(1, W.rank + 1)
            if W.lengths[W.rmult(w, s)] < W.lengths[w]]


def bruhat_leq(W, u, w):
    """Bruhat order by the standard descent recursion: for a right descent s
    of w, u <= w iff min(u, u s) <= w s."""
    if u == W.identity:
        return True
    if W.lengths[u] > W.lengths[w]:
        return False
    if u == w:
        return True
    s = descents_right(W, w)[0]
    us = W.rmult(u, s)
    return bruhat_leq(W, us if W.lengths[us] < W.lengths[u] else u, W.rmult(w, s))
