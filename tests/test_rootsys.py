import pytest

from ellschub.rootsys import (
    COROOT,
    ROOT,
    InvalidCartanError,
    LatticeVector,
    build_root_system,
    langlands_dual,
    pairing,
    parse_label,
    reflect,
)
from weyl_reference import simple_coroot, simple_root

ALL_SMALL = [
    "A1", "A2", "A3", "A4",
    "B2", "B3", "B4",
    "C2", "C3", "C4",
    "D3", "D4",
    "G2", "F4",
]

CLASSICAL_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "G": lambda n: 6,
    "F": lambda n: 24,
}


def _system(label):
    return build_root_system(parse_label(label))


def test_parse_label():
    lbl = parse_label("B2")
    assert (lbl.family, lbl.rank) == ("B", 2)
    assert str(parse_label("A3")) == "A3"
    assert parse_label("g2").family == "G"


@pytest.mark.parametrize("bad", ["A0", "B1", "C1", "D2", "E5", "E9", "F3", "G3", "H2", "B", "2B"])
def test_invalid_labels_rejected(bad):
    with pytest.raises(InvalidCartanError):
        parse_label(bad)


def test_b2_cartan_matrix_and_roots():
    # oracle: ambient B2 with alpha1 = e1-e2, alpha2 = e2; the 4 positive
    # roots e1-e2, e2, e1, e1+e2 have simple coordinates
    # (1,0), (0,1), (1,1), (1,2)
    rs = _system("B2")
    assert rs.cartan == ((2, -1), (-2, 2))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_a1_a2_positive_roots():
    assert set(_system("A1").positive_roots) == {(1,)}
    assert set(_system("A2").positive_roots) == {(1, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize("label", ALL_SMALL)
def test_positive_root_counts(label):
    rs = _system(label)
    expected = CLASSICAL_COUNTS[label[0]](rs.rank)
    assert len(rs.positive_roots) == expected
    assert len(rs.positive_coroots) == expected


@pytest.mark.parametrize("label", ALL_SMALL)
def test_simple_roots_are_positive_and_nonnegative(label):
    rs = _system(label)
    units = {tuple(1 if j == i else 0 for j in range(rs.rank)) for i in range(rs.rank)}
    assert units <= set(rs.positive_roots)
    assert all(all(c >= 0 for c in root) for root in rs.positive_roots)


def test_cartan_invariants():
    for label in ALL_SMALL:
        a = _system(label).cartan
        for i, row in enumerate(a):
            assert row[i] == 2
            assert all(x <= 0 for j, x in enumerate(row) if j != i)


def test_dual_pairs():
    b2, c2 = _system("B2"), _system("C2")
    assert langlands_dual(b2) == c2
    assert langlands_dual(c2) == b2
    assert langlands_dual(_system("A2")) == _system("A2")


@pytest.mark.parametrize("label", ALL_SMALL)
def test_double_dual_is_identity(label):
    rs = _system(label)
    assert langlands_dual(langlands_dual(rs)) == rs


@pytest.mark.parametrize("label", ALL_SMALL)
def test_dual_swaps_roots_and_coroots(label):
    rs = _system(label)
    dual = langlands_dual(rs)
    assert tuple(tuple(r[i] for r in rs.cartan) for i in range(rs.rank)) == dual.cartan
    assert set(dual.positive_roots) == set(rs.positive_coroots)
    assert set(dual.positive_coroots) == set(rs.positive_roots)
    # the pairing bijection is carried over
    assert set(zip(dual.positive_roots, dual.positive_coroots)) == set(
        zip(rs.positive_coroots, rs.positive_roots)
    )


def test_reflect_b2_example():
    rs = _system("B2")
    assert reflect(rs, 2, LatticeVector((1, 0), ROOT)).coords == (1, 2)


@pytest.mark.parametrize("label", ALL_SMALL)
def test_reflect_involution_and_negation(label):
    rs = _system(label)
    for s in range(1, rs.rank + 1):
        for lattice, vectors in ((ROOT, rs.positive_roots), (COROOT, rs.positive_coroots)):
            for coords in vectors:
                v = LatticeVector(coords, lattice)
                w = reflect(rs, s, v)
                assert w.lattice == lattice
                assert reflect(rs, s, w) == v
        assert reflect(rs, s, simple_root(rs, s)).coords == tuple(
            -c for c in simple_root(rs, s).coords
        )
        assert reflect(rs, s, simple_coroot(rs, s)).coords == tuple(
            -c for c in simple_coroot(rs, s).coords
        )


def test_reflect_bad_index():
    rs = _system("A2")
    with pytest.raises(IndexError):
        reflect(rs, 3, simple_root(rs, 1))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_reflection_bijection_with_positive_roots(label):
    # for each positive root exactly one reflection sends it to its negative
    rs = _system(label)
    n = rs.rank

    def reflection_matrix(root, coroot):
        cols = []
        for j in range(n):
            unit = tuple(1 if t == j else 0 for t in range(n))
            pair = pairing(rs, LatticeVector(unit, ROOT), LatticeVector(coroot, COROOT))
            cols.append(tuple(unit[i] - pair * root[i] for i in range(n)))
        return tuple(zip(*cols))

    mats = {
        reflection_matrix(root, coroot)
        for root, coroot in zip(rs.positive_roots, rs.positive_coroots)
    }
    assert len(mats) == len(rs.positive_roots)
    for root in rs.positive_roots:
        hits = 0
        for m in mats:
            image = tuple(
                sum(m[i][j] * root[j] for j in range(n)) for i in range(n)
            )
            if image == tuple(-c for c in root):
                hits += 1
        assert hits == 1


def test_pairing_against_cartan():
    rs = _system("B2")
    # <alpha_j, alpha_i^v> = cartan[i][j]
    for i in range(1, 3):
        for j in range(1, 3):
            assert pairing(rs, simple_root(rs, j), simple_coroot(rs, i)) == rs.cartan[i - 1][j - 1]
    with pytest.raises(ValueError):
        pairing(rs, simple_coroot(rs, 1), simple_coroot(rs, 1))
