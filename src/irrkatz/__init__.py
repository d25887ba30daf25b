"""Euler transforms of linear differential operators with unramified
irregular singularities, and the Weyl-group structure behind them.

The package has three layers:

* an exact operator algebra (:mod:`irrkatz.weylalg`) with weights,
  characteristic polynomials, Newton polygons, theta expansions and the
  classical transforms (additions, exponential twists, Fourier-Laplace,
  Euler);
* the discrete invariants (:mod:`irrkatz.formal`) and the combinatorial
  structures built on them: the multiplicity lattice
  (:mod:`irrkatz.lattice`), the root lattice with its bilinear form
  (:mod:`irrkatz.rootsys`) and the exponent space
  (:mod:`irrkatz.exponents`);
* the reduction algorithm (:mod:`irrkatz.reduce`) that plays the two
  layers against each other, plus a built-in corpus
  (:mod:`irrkatz.corpus`) and a CLI (:mod:`irrkatz.cli`).
"""

from .scalar import ParamExpr
from .weylalg import (
    D,
    INF,
    DiffOperator,
    X,
    ad_power,
    char_poly,
    euler,
    is_regular_singular,
    laplace,
    laplace_inv,
    newton_polygon,
    parse,
    prim,
    singular_points,
    subst_infty,
    theta_expand,
)
from .formal import (
    ExponentialFactor,
    FormalData,
    SpectralData,
    exponent_vector,
    extract_formal_data,
    fuchs_defect,
    m_vector,
    oshima_check,
    to_shape,
)
from .lattice import LatticeShape, LatticeVector
from .rootsys import (
    RootBasis,
    RootVector,
    Verdict,
    build_basis,
    canonical_lift,
    cartan_matrix_text,
    classify_diagram,
    dot_text,
    idx,
    pairing,
    phi,
    reflect,
)
from .exponents import (
    INFINITE_ORDER,
    ExponentVector,
    act_sigma_perm,
    act_sigma_t,
    coxeter_order,
    mu_sequence,
)
from .reduce import (
    AssumptionViolatedError,
    Transcript,
    normalize,
    reduce_operator,
    reduce_vector,
    twisted_euler,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
