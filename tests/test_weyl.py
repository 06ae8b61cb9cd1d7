from dataclasses import fields
from itertools import combinations
from random import Random

import pytest

from ellschub.rootsys import COROOT, ROOT, build_root_system, langlands_dual, parse_label
from ellschub.weyl import GroupTooLargeError, _group_order, dual_group, enumerate_group, group
from weyl_reference import (LatticeVector, _identity, _matmul, _matvec, act, bruhat_leq,
                            coroot_matrices, matrices, matrix_group, pairing, reflect,
                            simple_coroot, simple_root)

# every type of rank at most 4
ORDERS = {"A1": 2, "A2": 6, "A3": 24, "A4": 120, "B2": 8, "B3": 48, "B4": 384,
          "C2": 8, "C3": 48, "C4": 384, "D3": 24, "D4": 192, "G2": 12, "F4": 1152}


@pytest.mark.parametrize("label,order", sorted(ORDERS.items()))
def test_group_orders(label, order):
    W = group(label)
    assert W.order == order
    assert _group_order(W.rs) == order


def test_group_is_cached_once_however_its_label_is_spelled():
    assert group(" b2 ") is group("b2") is group("B2")


def test_a1_elements():
    W = group("A1")
    assert W.order == 2
    assert sorted(W.lengths) == [0, 1]


def test_a2_length_profile():
    assert sorted(group("A2").lengths) == [0, 1, 1, 2, 2, 3]


def test_longest_element_lengths():
    assert group("B2").length(group("B2").longest) == 4
    assert group("A3").length(group("A3").longest) == 6
    assert group("G2").length(group("G2").longest) == 6


def test_longest_length_equals_positive_root_count():
    for label in ORDERS:
        W = group(label)
        assert W.length(W.longest) == len(W.rs.positive_roots)


def test_unique_identity_and_longest():
    for label in ("A2", "B2", "G2"):
        W = group(label)
        assert W.lengths.count(0) == 1
        assert W.lengths.count(W.length(W.longest)) == 1


@pytest.mark.parametrize("label", ["A2", "B2", "A3", "G2"])
def test_reduced_words_remultiply(label):
    W = group(label)
    for w in range(W.order):
        word = W.reduced_word(w)
        assert len(word) == W.length(w)
        assert W.from_word(word) == w


def test_b2_both_longest_words():
    W = group("B2")
    t0 = W.longest
    assert W.from_word((1, 2, 1, 2)) == t0
    assert W.from_word((2, 1, 2, 1)) == t0


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "A3", "G2"])
def test_length_changes_by_one(label):
    W = group(label)
    for w in range(W.order):
        for s in range(1, W.rank + 1):
            assert abs(W.length(W.rmult(w, s)) - W.length(w)) == 1


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_longest_complements_length(label):
    W = group(label)
    t0 = W.longest
    for w in range(W.order):
        assert W.length(W.mul(t0, w)) == W.length(t0) - W.length(w)


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_inversion_count_equals_length(label):
    W = group(label)
    for w in range(W.order):
        inversions = 0
        for beta in W.rs.positive_roots:
            image = act(W, w, LatticeVector(beta, ROOT)).coords
            if all(c <= 0 for c in image):
                inversions += 1
        assert inversions == W.length(w)


def test_act_examples():
    B2 = group("B2")
    t0 = B2.longest
    for beta in B2.rs.positive_roots:
        image = act(B2, t0, LatticeVector(beta, ROOT)).coords
        assert all(c <= 0 for c in image)
    A2 = group("A2")
    v = simple_root(A2.rs, 1)
    assert act(A2, A2.identity, v) == v
    # composition oracle: (s1 s2)(a1) = s1(s2(a1)) = s1(a1 + a2) = a2
    expected = reflect(A2.rs, 1, reflect(A2.rs, 2, v))
    assert act(A2, A2.from_word((1, 2)), v) == expected
    assert expected.coords == (0, 1)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_coroot_action_matches_reflect_on_generators(label):
    W = group(label)
    for s in range(1, W.rank + 1):
        g = W.from_word((s,))
        for t in range(1, W.rank + 1):
            v = simple_coroot(W.rs, t)
            assert act(W, g, v) == reflect(W.rs, s, v)
            u = simple_root(W.rs, t)
            assert act(W, g, u) == reflect(W.rs, s, u)


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_act_preserves_pairing(label):
    W = group(label)
    rs = W.rs
    for w in range(W.order):
        for root in rs.positive_roots:
            for coroot in rs.positive_coroots:
                a = LatticeVector(root, ROOT)
                b = LatticeVector(coroot, COROOT)
                assert pairing(rs, act(W, w, a), act(W, w, b)) == pairing(rs, a, b)


# --- Bruhat order ---------------------------------------------------------


def brute_bruhat_leq(W, u, w):
    """Subword oracle: u <= w iff some subsequence of one fixed reduced word
    of w multiplies to u."""
    word = W.reduced_word(w)
    found = set()
    for r in range(len(word) + 1):
        for picks in combinations(range(len(word)), r):
            found.add(W.from_word(tuple(word[i] for i in picks)))
    return u in found


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_bruhat_matches_subword_oracle(label):
    W = group(label)
    for u in range(W.order):
        for w in range(W.order):
            assert bruhat_leq(W, u, w) == brute_bruhat_leq(W, u, w)


def test_bruhat_examples():
    W = group("B2")
    t0 = W.longest
    s1, s2 = W.from_word((1,)), W.from_word((2,))
    s12, s21 = W.from_word((1, 2)), W.from_word((2, 1))
    for w in range(W.order):
        assert bruhat_leq(W, W.identity, w)
        assert bruhat_leq(W, w, t0)
    assert bruhat_leq(W, s1, s12) and bruhat_leq(W, s2, s12)
    assert not bruhat_leq(W, s12, s21)


# --- conjugation by the longest element ------------------------------------


def test_conjugate_by_longest():
    assert group("B2").star == (1, 2)
    assert group("A2").star == (2, 1)
    assert group("A1").star == (1,)
    assert group("A3").star == (3, 2, 1)
    assert group("G2").star == (1, 2)


@pytest.mark.parametrize("label", ["A2", "A3", "B3", "G2", "D4"])
def test_conjugate_by_longest_is_involution(label):
    W = group(label)
    star = W.star
    for s in range(1, W.rank + 1):
        assert star[star[s - 1] - 1] == s


def test_order_cap(monkeypatch):
    from ellschub import weyl

    rs = build_root_system(parse_label("D4"))
    monkeypatch.setattr(weyl, "ORDER_CAP", 192)
    assert enumerate_group(rs).order == 192

    def no_roots(vectors):
        raise AssertionError("the search started")

    # a group above the cap is refused before the search lists the roots,
    # its first step
    monkeypatch.setattr(weyl, "_signed", no_roots)
    monkeypatch.setattr(weyl, "ORDER_CAP", 191)
    with pytest.raises(GroupTooLargeError) as err:
        enumerate_group(rs)
    assert str(err.value) == "Weyl group of D4 has order 192, above the order cap 191"


def test_mul_inv_consistency():
    W = group("B2")
    for w in range(W.order):
        assert W.mul(w, W.inv(w)) == W.identity
        assert W.mul(W.inv(w), w) == W.identity
    for u in range(W.order):
        for w in range(W.order):
            word = W.reduced_word(u) + W.reduced_word(w)
            assert W.mul(u, w) == W.from_word(word)


# --- tables built by enumerate_group, against the matrix definitions ------

ALL_RANK_AT_MOST_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                      "D3", "D4", "F4", "G2"]
ALL_RANK_AT_MOST_5 = ALL_RANK_AT_MOST_4 + ["A5", "B5", "C5", "D5"]


def greedy_descent_word(W, w):
    """The smallest right descent peeled off until the identity."""
    letters = []
    while W.lengths[w] > 0:
        s = next(t for t in range(1, W.rank + 1)
                 if W.lengths[W.rmult(w, t)] < W.lengths[w])
        letters.append(s)
        w = W.rmult(w, s)
    return tuple(reversed(letters))


@pytest.fixture(scope="module", params=ALL_RANK_AT_MOST_4)
def table_group(request):
    W = group(request.param)
    return W, {m: i for i, m in enumerate(matrices(W))}


def test_inverse_table(table_group):
    W, _ = table_group
    ident = _identity(W.rank)
    mats, comats = matrices(W), coroot_matrices(W)
    for w in range(W.order):
        assert _matmul(mats[W.inverses[w]], mats[w]) == ident
        assert _matmul(comats[W.inverses[w]], comats[w]) == ident
        assert W.inv(w) == W.inverses[w]


def test_lmult_and_mul_match_matrix_products(table_group):
    W, index = table_group
    mats = matrices(W)
    gens = [mats[W.rmult(W.identity, s)] for s in range(1, W.rank + 1)]
    for w in range(W.order):
        for s in range(1, W.rank + 1):
            assert W.lmult(s, w) == index[_matmul(gens[s - 1], mats[w])]
    # every u against a spread of right factors (all pairs would be |W|^2)
    right = sorted({W.identity, W.longest, *range(1, W.order, max(1, W.order // 12))})
    for u in range(W.order):
        for w in right:
            assert W.mul(u, w) == index[_matmul(mats[u], mats[w])]


def test_word_table(table_group):
    W, _ = table_group
    mats = matrices(W)
    gens = [mats[W.rmult(W.identity, s)] for s in range(1, W.rank + 1)]
    for w in range(W.order):
        word = W.words[w]
        product = _identity(W.rank)
        for s in word:
            product = _matmul(product, gens[s - 1])
        assert product == mats[w]
        assert len(word) == W.lengths[w]
        assert word == greedy_descent_word(W, w)
        assert W.reduced_word(w) == word


def test_root_index_tables(table_group):
    W, _ = table_group
    mats, comats = matrices(W), coroot_matrices(W)
    for w in range(W.order):
        for s in range(1, W.rank + 1):
            column = tuple(row[s - 1] for row in mats[w])
            assert W.roots[W.root_index[w][s - 1]] == column
            # w(alpha_s^v) is the coroot of w(alpha_s), which has its index
            cocolumn = tuple(row[s - 1] for row in comats[w])
            assert W.coroots[W.root_index[w][s - 1]] == cocolumn
    positive = len(W.rs.positive_roots)
    assert len(W.roots) == len(set(W.roots)) == 2 * positive
    assert len(W.coroots) == len(set(W.coroots)) == 2 * positive


def test_act_matches_matrix_images(table_group):
    """act(w, i) is the index of w(roots[i]) and of w(coroots[i]), each
    image taken by w's matrix on its lattice."""
    W, _ = table_group
    mats, comats = matrices(W), coroot_matrices(W)
    for w in range(W.order):
        for i, (beta, gamma) in enumerate(zip(W.roots, W.coroots)):
            j = W.act(w, i)
            assert W.roots[j] == _matvec(mats[w], beta)
            assert W.coroots[j] == _matvec(comats[w], gamma)


def test_longest_and_star_tables(table_group):
    W, index = table_group
    mats = matrices(W)
    top = max(W.lengths)
    assert [w for w in range(W.order) if W.lengths[w] == top] == [W.longest]
    t0 = mats[W.longest]
    for s in range(1, W.rank + 1):
        conj = _matmul(_matmul(t0, mats[W.rmult(W.identity, s)]), t0)
        assert index[conj] == W.rmult(W.identity, W.star[s - 1])


def assert_star_is_conjugation_by_longest(W):
    """s_(s*) = tau0 s tau0 for every simple s, the products taken by W.mul."""
    for s in range(1, W.rank + 1):
        conj = W.mul(W.mul(W.longest, W.rmult(W.identity, s)), W.longest)
        assert conj == W.rmult(W.identity, W.star[s - 1]), s


@pytest.mark.parametrize("label", ALL_RANK_AT_MOST_5)
def test_star_is_conjugation_by_longest(label):
    assert_star_is_conjugation_by_longest(group(label))


@pytest.mark.tier2
def test_e6_star_is_conjugation_by_longest():
    W = group("E6")
    assert W.star == (6, 2, 5, 4, 3, 1)
    assert_star_is_conjugation_by_longest(W)


# --- the tables against the matrix search, and the dual group -------------


def tables(W):
    return {f.name: getattr(W, f.name) for f in fields(W)}


def assert_matches_matrix_search(W):
    """Every table of W equals the one the matrix-keyed search builds."""
    reference = matrix_group(W.rs)
    for name, value in tables(W).items():
        if name != "rs":
            assert value == reference[name], name


@pytest.mark.parametrize("label", ALL_RANK_AT_MOST_4)
def test_tables_equal_the_matrix_search(label):
    W = group(label)
    assert_matches_matrix_search(W)
    assert_matches_matrix_search(dual_group(W))


@pytest.mark.parametrize("label", ALL_RANK_AT_MOST_4)
def test_dual_group_equals_enumerated_dual(label):
    W = group(label)
    Wd = dual_group(W)
    # the enumerated dual is the reference
    assert tables(Wd) == tables(enumerate_group(langlands_dual(W.rs)))
    for w in range(W.order):
        assert Wd.from_word(W.reduced_word(w)) == w


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "D3", "D4"])
def test_simply_laced_dual_is_the_group(label):
    W = group(label)
    assert tables(dual_group(W)) == tables(W)


@pytest.mark.tier2
def test_e6_dual_is_the_group():
    W = group("E6")
    assert tables(dual_group(W)) == tables(W)


@pytest.mark.tier2
def test_e6_tables_equal_the_matrix_search():
    assert_matches_matrix_search(group("E6"))


# --- the roots a step reads depend only on its coroot ----------------------


def orbit(W, i):
    """The indices of the W-orbit of roots[i], closed under the simple
    reflections."""
    seen, todo = {i}, [i]
    while todo:
        j = todo.pop()
        for row in W.reflected:
            if row[j] not in seen:
                seen.add(row[j])
                todo.append(row[j])
    return seen


def assert_step_roots_are_the_orbit_of_the_coroot(W, words):
    """orbits[i] is the W-orbit of roots[i], each index once, for every
    root, negative ones included; every step (s, g) of step_coroots on the
    reduced words and on words reads only roots in orbits[g], so a
    coefficient row kept by g serves every step that reads g; and the
    steps of the reduced words read exactly the positive coroots, so one
    row per positive coroot is every row the tables of a point read."""
    orbits = [set(o) for o in W.orbits]
    for i in range(len(W.roots)):
        assert len(W.orbits[i]) == len(orbits[i]) and orbits[i] == orbit(W, i), i
    reads = [{row[s] for row in W.root_index} for s in range(W.rank)]  # sigma(alpha_s)
    for word in (*W.words, *words):
        for s, g in zip(word, W.step_coroots(word)[1]):
            assert reads[s - 1] == orbits[g], (s, g)
    read = {g for word in W.words for g in W.step_coroots(word)[1]}
    assert read == set(range(len(W.coroots) // 2))


@pytest.mark.parametrize("label", ALL_RANK_AT_MOST_5)
def test_step_roots_are_the_orbit_of_the_coroot(label):
    rng = Random(f"orbit-steps:{label}")
    for W in (group(label), dual_group(group(label))):
        # words with repeated letters are not reduced
        words = [[rng.randint(1, W.rank) for _ in range(rng.randint(2, 12))] for _ in range(20)]
        assert_step_roots_are_the_orbit_of_the_coroot(W, words)


@pytest.mark.tier2
def test_e6_step_roots_are_the_orbit_of_the_coroot():
    W = group("E6")
    rng = Random("orbit-steps:E6")
    words = [[rng.randint(1, 6) for _ in range(rng.randint(2, 12))] for _ in range(20)]
    assert_step_roots_are_the_orbit_of_the_coroot(W, words)
