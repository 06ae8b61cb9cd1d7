"""Weyl groups: exhaustive enumeration, lengths, words, Bruhat order.

Elements are stored as integer matrices acting on root-lattice coordinates
(column j = image of the j-th simple root) together with the companion
matrices on the coroot lattice, built from the same generator words.
Everything else the recursions look up per element (reduced words,
inverses, tau0, s -> s*, and the index of w(alpha_s) among the roots) is a
table filled once when the group is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .rootsys import COROOT, ROOT, LatticeVector, RootSystem, _reflect_coords

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_ORDER_CAP = 10**6


class GroupTooLargeError(RuntimeError):
    pass


def _identity(n) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _matvec(m: Matrix, v):
    n = len(m)
    return tuple(sum(m[i][j] * v[j] for j in range(n)) for i in range(n))


def _generator(cartan, s, lattice) -> Matrix:
    n = len(cartan)
    cols = [_reflect_coords(cartan, s, tuple(1 if t == j else 0 for t in range(n)), lattice)
            for j in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


@dataclass
class WeylGroup:
    """A Weyl group with its multiplication, word and root tables, all
    computed once by enumerate_group."""

    rs: RootSystem
    matrices: tuple[Matrix, ...]
    coroot_matrices: tuple[Matrix, ...]
    lengths: tuple[int, ...]
    rmult_table: tuple[tuple[int, ...], ...]  # [element][s-1] -> element . s_s
    words: tuple[tuple[int, ...], ...]  # greedy right-descent reduced words
    inverses: tuple[int, ...]
    t0: int  # the longest element
    star: tuple[int, ...]  # star[s-1] = t with tau0 s_s tau0 = s_t
    roots: tuple[tuple[int, ...], ...]  # positive roots, then their negatives
    root_index: tuple[tuple[int, ...], ...]  # [w][s-1] -> index of w(alpha_s) in roots
    # [s-1] -> the indices root_index[w][s-1], each once, in order of first w
    step_roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]  # positive coroots, then their negatives
    coroot_index: tuple[tuple[int, ...], ...]  # [w][s-1] -> index of w(alpha_s^v)
    _bruhat_cache: dict = field(repr=False, default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.matrices)

    @property
    def rank(self) -> int:
        return self.rs.rank

    @property
    def identity(self) -> int:
        return 0

    @property
    def longest(self) -> int:
        return self.t0

    def length(self, w: int) -> int:
        return self.lengths[w]

    def rmult(self, w: int, s: int) -> int:
        return self.rmult_table[w][s - 1]

    def lmult(self, s: int, w: int) -> int:
        return self.inverses[self.rmult_table[self.inverses[w]][s - 1]]

    def mul(self, u: int, w: int) -> int:
        return _walk(self.rmult_table, u, self.words[w])

    def inv(self, w: int) -> int:
        return self.inverses[w]

    def from_word(self, word) -> int:
        return _walk(self.rmult_table, self.identity, word)

    def reduced_word(self, w: int) -> tuple[int, ...]:
        """Greedy descent word; multiplying its generators reproduces w."""
        return self.words[w]

    def act(self, w: int, v: LatticeVector) -> LatticeVector:
        m = self.matrices[w] if v.lattice == ROOT else self.coroot_matrices[w]
        return LatticeVector(_matvec(m, v.coords), v.lattice)

    def descents_right(self, w: int) -> list[int]:
        return [s for s in range(1, self.rank + 1)
                if self.lengths[self.rmult(w, s)] < self.lengths[w]]

    def bruhat_leq(self, u: int, w: int) -> bool:
        """Bruhat order by the standard descent recursion."""
        if u == self.identity:
            return True
        if self.lengths[u] > self.lengths[w]:
            return False
        if u == w:
            return True
        key = (u, w)
        cached = self._bruhat_cache.get(key)
        if cached is not None:
            return cached
        s = self.descents_right(w)[0]
        ws = self.rmult(w, s)
        us = self.rmult(u, s)
        if self.lengths[us] < self.lengths[u]:
            out = self.bruhat_leq(us, ws)
        else:
            out = self.bruhat_leq(u, ws)
        self._bruhat_cache[key] = out
        return out

    def conjugate_by_longest(self, s: int) -> int:
        """The simple index t with tau0 . s_s . tau0 = s_t."""
        return self.star[s - 1]


def _walk(rmult_table, w: int, word) -> int:
    """w . s_(word[0]) . s_(word[1]) ..."""
    for s in word:
        w = rmult_table[w][s - 1]
    return w


def _column_index(matrices, vectors):
    """[w][s-1] -> index in vectors of column s of matrices[w]."""
    where = {v: i for i, v in enumerate(vectors)}
    return tuple(tuple(where[col] for col in zip(*m)) for m in matrices)


def enumerate_group(rs: RootSystem, max_order: int = DEFAULT_ORDER_CAP) -> WeylGroup:
    """BFS from the identity by right multiplication with simple reflections,
    then the word, inverse, conjugation and root tables in O(|W| rank)."""
    n = rs.rank
    gens = [_generator(rs.cartan, s, ROOT) for s in range(1, n + 1)]
    cogens = [_generator(rs.cartan, s, COROOT) for s in range(1, n + 1)]

    ident = _identity(n)
    matrices = [ident]
    comatrices = [_identity(n)]
    lengths = [0]
    index = {ident: 0}
    rmult_rows: list[list[int]] = [[-1] * n]
    frontier = [0]
    while frontier:
        nxt = []
        for w in frontier:
            for s in range(1, n + 1):
                m = _matmul(matrices[w], gens[s - 1])
                i = index.get(m)
                if i is None:
                    if len(matrices) >= max_order:
                        raise GroupTooLargeError(
                            f"Weyl group of {rs.label} exceeds the order cap {max_order}"
                        )
                    i = len(matrices)
                    index[m] = i
                    matrices.append(m)
                    comatrices.append(_matmul(comatrices[w], cogens[s - 1]))
                    lengths.append(lengths[w] + 1)
                    rmult_rows.append([-1] * n)
                    nxt.append(i)
                rmult_rows[w][s - 1] = i
        frontier = nxt
    rmult = tuple(tuple(row) for row in rmult_rows)

    # BFS lists elements by length, so w . t precedes w for a descent t.
    words = [()]
    for w in range(1, len(matrices)):
        t = next(t for t in range(1, n + 1) if lengths[rmult[w][t - 1]] < lengths[w])
        words.append(words[rmult[w][t - 1]] + (t,))
    inverses = tuple(_walk(rmult, 0, reversed(word)) for word in words)
    t0 = max(range(len(matrices)), key=lambda i: lengths[i])
    simple = {rmult[0][s - 1]: s for s in range(1, n + 1)}
    star = []
    for s in range(1, n + 1):
        conj = _walk(rmult, rmult[t0][s - 1], words[t0])
        if conj not in simple:
            raise RuntimeError(
                f"tau0 s{s} tau0 is not a simple reflection; group data is corrupt"
            )
        star.append(simple[conj])

    def signed(vectors):
        return vectors + tuple(tuple(-c for c in v) for v in vectors)

    roots = signed(rs.positive_roots)
    coroots = signed(rs.positive_coroots)
    root_index = _column_index(matrices, roots)
    step_roots = tuple(tuple(dict.fromkeys(row[s] for row in root_index))
                       for s in range(n))
    return WeylGroup(
        rs,
        tuple(matrices),
        tuple(comatrices),
        tuple(lengths),
        rmult,
        tuple(words),
        inverses,
        t0,
        tuple(star),
        roots,
        root_index,
        step_roots,
        coroots,
        _column_index(comatrices, coroots),
    )


@lru_cache(maxsize=None)
def _cached_group(label_text: str) -> WeylGroup:
    from .rootsys import build_root_system, parse_label

    return enumerate_group(build_root_system(parse_label(label_text)))


def group(label_text: str) -> WeylGroup:
    """Cached WeylGroup for a textual Cartan label; immutable, shareable."""
    return _cached_group(label_text)
