"""Local elliptic classes of Schubert varieties on G/B for simple Cartan
types, with machine verification of their Langlands-duality symmetry."""

from .rootsys import (
    CartanLabel,
    InvalidCartanError,
    RootSystem,
    build_root_system,
    langlands_dual,
    parse_label,
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
    sample_point,
)
from .classes import (
    StepMemo,
    bs_step,
    bs_table,
    c_recursion_left_sides,
    c_recursion_right_sides,
    initial_table,
    normalization_factor,
    rmatrix_table,
    unnormalized_table,
)
from .duality import substitution

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
