"""Weyl groups: exhaustive enumeration, lengths, words, root tables.

An element is known by what it does to the roots: root_index[w] lists the
indices of w(alpha_1), ..., w(alpha_n) among the roots, which fixes w
(Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 4). No matrix is
stored: w acts on root indices, through the table `reflected` of the
simple reflections, by act(w, i), the index of w(roots[i]) in roots and of
w(coroots[i]) in coroots. Everything else the recursions look up per
element (reduced words, inverses, tau0, s -> s*) is a table filled once
when the group is enumerated.

G and its Langlands dual G^v have one Weyl group: W^v acts on its roots as
W acts on coroots. dual_group therefore builds W^v from W's tables, with
every element table shared and every element keeping its index; only the
root tables are renumbered into the dual's root order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .rootsys import ROOT, RootSystem, _basis, _reflect_coords, langlands_dual

ORDER_CAP = 10**6  # enumerate_group refuses a larger group


class GroupTooLargeError(RuntimeError):
    pass


@dataclass(frozen=True)
class WeylGroup:
    """A Weyl group with its multiplication, word and root tables, all
    computed once by enumerate_group. The element tables, from lengths to
    star, are shared with the dual group that dual_group derives. `steps`
    = word_steps(range(order)), which the campaigns read, is computed on
    construction as well, as an attribute that is not a field."""

    rs: RootSystem
    lengths: tuple[int, ...]
    rmult_table: tuple[tuple[int, ...], ...]  # [element][s-1] -> element . s_s
    words: tuple[tuple[int, ...], ...]  # greedy right-descent reduced words
    inverses: tuple[int, ...]
    t0: int  # the longest element
    star: tuple[int, ...]  # star[s-1] = t with tau0 s_s tau0 = s_t
    roots: tuple[tuple[int, ...], ...]  # positive roots, then their negatives
    # [w][s-1] -> index of w(alpha_s) in roots, and of w(alpha_s^v) in coroots
    root_index: tuple[tuple[int, ...], ...]
    # [s-1] -> the indices root_index[w][s-1], each once, in order of first w
    step_roots: tuple[tuple[int, ...], ...]
    # coroots[i] is the coroot of roots[i]
    coroots: tuple[tuple[int, ...], ...]
    # [s-1][i] -> index of s_s(roots[i]) in roots, and of s_s(coroots[i]) in coroots
    reflected: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # set as the fields are: a lazy attribute written to the instance's
        # __dict__ (functools.cached_property) makes CPython give the
        # instance a dict of its own, which slowed every attribute read of
        # the table loops, complex B3 recursions by about a tenth
        object.__setattr__(self, "steps", self.word_steps(range(self.order)))

    @property
    def order(self) -> int:
        return len(self.lengths)

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

    def act(self, w: int, i: int) -> int:
        """The index of w(roots[i]) in roots, and of w(coroots[i]) in
        coroots; the last letter of w's word acts first. tau0 sends the
        four positive roots of B2, listed first, to negative ones:

        >>> B2 = group("B2")
        >>> [B2.act(B2.longest, i) for i in range(4)]
        [4, 5, 6, 7]
        """
        for s in reversed(self.words[w]):
            i = self.reflected[s - 1][i]
        return i

    def step_coroots(self, word) -> tuple:
        """(u, gammas): u = product(word)^-1, and gammas[j] the index in
        coroots of u_j(alpha_s^v), s = word[j] and u_j =
        product(word[j+1:])^-1. Step j of a table along word makes the table
        of word[:j+1] at the point nu-transformed by word[j+1:], where nu_s
        is the value of that coroot at the point itself."""
        u, gammas = self.identity, []
        for s in reversed(word):
            gammas.append(self.root_index[u][s - 1])
            u = self.rmult_table[u][s - 1]
        return u, gammas[::-1]

    def word_steps(self, elements) -> tuple:
        """The distinct steps (s, g) of the reduced words of elements, in
        the order a walk over the words, each from its first letter, meets
        them: letter s read with nu_s the coroot of index g (step_coroots)."""
        return tuple(dict.fromkeys(
            step for word in map(self.words.__getitem__, elements)
            for step in zip(word, self.step_coroots(word)[1])))


def _walk(rmult_table, w: int, word) -> int:
    """w . s_(word[0]) . s_(word[1]) ..."""
    for s in word:
        w = rmult_table[w][s - 1]
    return w


def _group_order(rs: RootSystem) -> int:
    """|W| = prod (m_i + 1) over the exponents m_i of W, where #{i : m_i >= k}
    is the number of positive roots of height k (Kostant; Humphreys,
    Reflection Groups and Coxeter Groups, 3.20)."""
    heights = [sum(beta) for beta in rs.positive_roots]
    return prod((k + 1) ** (heights.count(k) - heights.count(k + 1)) for k in set(heights))


def enumerate_group(rs: RootSystem) -> WeylGroup:
    """BFS from the identity by right multiplication with simple reflections,
    then the word, inverse and root tables in O(|W| rank); tau0 and s -> s*
    are read off the search. The search keys w by the root indices of
    w^-1(alpha_1), ..., w^-1(alpha_n); as (w s)^-1 = s w^-1, a step is n
    lookups in the table of simple reflections on roots, and root_index[w]
    is the key of w^-1. A group above ORDER_CAP is refused before any
    element is built."""
    order = _group_order(rs)
    if order > ORDER_CAP:
        raise GroupTooLargeError(
            f"Weyl group of {rs.label} has order {order}, above the order cap {ORDER_CAP}")
    n = rs.rank
    reflected = _reflected(rs)
    keys = [tuple(rs.positive_roots.index(_basis(n, s)) for s in range(1, n + 1))]
    lengths = [0]
    index = {keys[0]: 0}
    rmult_rows: list[list[int]] = [[-1] * n]
    frontier = [0]
    while frontier:
        nxt = []
        for w in frontier:
            for s in range(1, n + 1):
                key = tuple(map(reflected[s - 1].__getitem__, keys[w]))
                i = index.get(key)
                if i is None:
                    i = len(keys)
                    index[key] = i
                    keys.append(key)
                    lengths.append(lengths[w] + 1)
                    rmult_rows.append([-1] * n)
                    nxt.append(i)
                rmult_rows[w][s - 1] = i
        frontier = nxt
    rmult = tuple(tuple(row) for row in rmult_rows)

    # BFS lists elements by length, so w . t precedes w for a descent t.
    words = [()]
    for w in range(1, len(keys)):
        t = next(t for t in range(1, n + 1) if lengths[rmult[w][t - 1]] < lengths[w])
        words.append(words[rmult[w][t - 1]] + (t,))
    inverses = tuple(_walk(rmult, 0, reversed(word)) for word in words)
    # tau0, the one longest element, comes last. As tau0 = tau0^-1, its key
    # holds tau0(alpha_s) = -alpha_(s*): the index of alpha_(s*) plus half.
    t0, half = len(keys) - 1, len(rs.positive_roots)
    star = tuple(keys[0].index(i - half) + 1 for i in keys[t0])
    return WeylGroup(rs, tuple(lengths), rmult, tuple(words), inverses, t0, star,
                     *_root_tables(rs, tuple(keys[v] for v in inverses), reflected))


def dual_group(W: WeylGroup) -> WeylGroup:
    """The Weyl group of langlands_dual(W.rs), derived from W's tables with
    no search: every element keeps its index, length, words and inverse,
    tau0 and s -> s* are W's, and W's root_index is renumbered from W's
    coroots, which are the dual's roots, into the dual's root order."""
    rs = langlands_dual(W.rs)
    where = {gamma: i for i, gamma in enumerate(_signed(rs.positive_roots))}
    renumber = [where[gamma] for gamma in W.coroots]
    root_index = tuple(tuple(renumber[i] for i in row) for row in W.root_index)
    return WeylGroup(rs, W.lengths, W.rmult_table, W.words, W.inverses, W.t0, W.star,
                     *_root_tables(rs, root_index, _reflected(rs)))


def _signed(vectors):
    """The vectors, then their negatives."""
    return vectors + tuple(tuple(-c for c in v) for v in vectors)


def _reflected(rs: RootSystem) -> tuple:
    """[s-1][i] -> index of s_s(roots[i]) in the roots of rs, the positive
    ones then their negatives."""
    roots = _signed(rs.positive_roots)
    where = {beta: i for i, beta in enumerate(roots)}
    return tuple(tuple(where[_reflect_coords(rs.cartan, s, beta, ROOT)] for beta in roots)
                 for s in range(1, rs.rank + 1))


def _root_tables(rs: RootSystem, root_index, reflected) -> tuple:
    """(roots, root_index, step_roots, coroots, reflected) of rs, for a
    root_index in the root order of rs and reflected = _reflected(rs)."""
    step_roots = tuple(tuple(dict.fromkeys(row[s] for row in root_index))
                       for s in range(rs.rank))
    return (_signed(rs.positive_roots), root_index, step_roots,
            _signed(rs.positive_coroots), reflected)


@lru_cache(maxsize=None)
def _cached_group(label_text: str) -> WeylGroup:
    from .rootsys import build_root_system, parse_label

    return enumerate_group(build_root_system(parse_label(label_text)))


def group(label_text: str) -> WeylGroup:
    """Cached WeylGroup for a textual Cartan label; immutable, shareable."""
    return _cached_group(label_text)
