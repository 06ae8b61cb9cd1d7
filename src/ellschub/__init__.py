"""Local elliptic classes of Schubert varieties on G/B for simple Cartan
types, with machine verification of their Langlands-duality symmetry."""

from .rootsys import (
    CartanLabel,
    InvalidCartanError,
    LatticeVector,
    RootSystem,
    build_root_system,
    langlands_dual,
    parse_label,
    reflect,
)
from .weyl import GroupTooLargeError, WeylGroup, enumerate_group, group
from .elliptic import (
    COMPLEX,
    EXACT,
    EvalPoint,
    QContext,
    QSeries,
    SingularPointError,
    ZeroArgumentError,
    delta,
    eval_monomial,
    sample_point,
    theta,
    theta_prime_one,
    transform_point,
)
from .classes import (
    ClassTable,
    StepMemo,
    bs_step,
    bs_table,
    c_recursion_left_sides,
    c_recursion_right_sides,
    diagonal_closed_form,
    em_table,
    initial_table,
    normalization_factor,
    normalization_index_set,
    rmatrix_table,
    tangent_weights,
    unnormalized_table,
)
from .duality import substitution

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
