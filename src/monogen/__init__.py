"""Monogenicity classification for finite free ring extensions."""

from .exactring import (
    BaseRing,
    Fp,
    SparsePoly,
    ZX,
    ZZ,
    berlekamp_factor,
    content_primes,
    determinant,
    necklace_count,
)
from .algebra import (
    OrderPresentation,
    StructureAlgebra,
    power_basis_algebra,
    split_algebra,
)
from .indexform import IndexForm, check_monogenerator, index_form, matrix_of_coefficients
from .localmono import (
    LocalVerdict,
    MonogenicityReport,
    classify,
    common_index_divisors,
    geometric_point_verdict,
    is_monogenic_at_prime,
)
from .artin import (
    ArtinDecomposition,
    LocalFactor,
    decompose,
    fiber_monogenic,
    local_factor_monogenic,
    nilradical,
)
from .search import SearchResult, affine_normalize, search_monogenerators
from .twisted import TwistedCurveVerdict, curve_twisted_constraint, steinitz_exponent

__version__ = "0.1.0"
