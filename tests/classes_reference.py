"""Test-side class functions that no campaign needs: the Em normalization,
the tangent-weight and normalization index sets, and the diagonal closed
form E_sigma(X_sigma). Each reads the group and the point as the library
does, by index from a StepMemo, so the tests can hold them against
`ellschub.classes` and against the coordinate references."""

from ellschub.classes import StepMemo, _checked_div, _h_product, _negated, bs_table, initial_table
from ellschub.weyl import WeylGroup


def _inverted(W: WeylGroup, w: int) -> list:
    """The indices i of the positive roots that w makes negative, in the
    coordinate order of roots[i]."""
    half = len(W.roots) // 2
    return sorted((i for i in range(half) if W.act(w, i) >= half), key=W.roots.__getitem__)


def em_table(memo: StepMemo, word) -> tuple:
    """Em normalization: EE divided by the full delta product over Pi."""
    full = initial_table(memo)[memo.group.identity]
    return tuple(_checked_div(v, full) for v in bs_table(memo, word))


def tangent_weights(W: WeylGroup, omega: int) -> frozenset:
    """T(G, omega) = Phi_+ intersect omega(Phi_-), as root coordinates."""
    return frozenset(W.roots[i] for i in _inverted(W, W.inv(omega)))


def normalization_index_set(W: WeylGroup, omega: int) -> frozenset:
    """F(G, omega) = Phi^v_+ intersect omega^{-1}(Phi^v_+), coroot coords."""
    half = len(W.coroots) // 2
    return frozenset(W.coroots[i] for i in range(half) if W.act(omega, i) < half)


def diagonal_closed_form(memo: StepMemo, sigma: int):
    """E_sigma(X_sigma) = prod over reflections with alpha_s in sigma(Phi_-)
    of delta(e^(alpha_s), h)."""
    W = memo.group
    return _h_product(memo, (memo.roots[_negated(W, i)] for i in _inverted(W, W.inv(sigma))))
