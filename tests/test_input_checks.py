"""Each input check of the library, with the exception it raises and its message.

One case per check that no pinned command runs: a caller that breaks a
contract gets a MonogenError that names it, never a traceback from deep
inside.
"""

import pytest

from monogen.algebra import OrderPresentation, StructureAlgebra, split_algebra
from monogen.artin import decompose, nilradical
from monogen.errors import (
    ArityMismatch,
    BaseRingMismatch,
    DegenerateDegree,
    InvalidAlgebra,
    LengthMismatch,
    MonogenError,
    NotClosedUnderMultiplication,
    NotIntegerBase,
    ParseError,
    SingularBasisMatrix,
)
from monogen.exactring import ZX, ZZ, BaseRing, Fp, SparsePoly, content_primes, necklace_count
from monogen.fixtures import load_algebra_json
from monogen.search import search_monogenerators
from monogen.twisted import curve_twisted_constraint, steinitz_exponent

SPLIT2 = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]

CASES = {
    "ragged table": (
        lambda: StructureAlgebra(ZZ, 2, [SPLIT2[0], [[0, 0]]], [1, 1]),
        InvalidAlgebra, "structure constants must form an n x n x n array"),
    "short identity": (
        lambda: StructureAlgebra(ZZ, 2, SPLIT2, [1]),
        InvalidAlgebra, "identity coordinates must have length n"),
    "vec_mul short vector": (
        lambda: split_algebra(2).vec_mul((1,), (1, 0)),
        LengthMismatch, "coordinate vectors must have length n"),
    "reduce_mod_p composite": (
        lambda: split_algebra(2).reduce_mod_p(4),
        MonogenError, "4 is not prime"),
    "discriminant over F_p": (
        lambda: split_algebra(2).reduce_mod_p(3).discriminant(),
        NotIntegerBase, "discriminant needs base Z"),
    "non-square basis": (
        lambda: OrderPresentation([0, 0, 1], [[1, 0]]),
        SingularBasisMatrix, "basis matrix must be n x n"),
    "1 outside the span": (
        lambda: OrderPresentation([0, 0, 1], [[2, 0], [0, 1]]).to_algebra(),
        NotClosedUnderMultiplication, "1 is not in the integer span of the basis"),
    "nilradical over Z": (
        lambda: nilradical(split_algebra(2)),
        InvalidAlgebra, "nilradical needs base F_p"),
    "decompose over Z": (
        lambda: decompose(split_algebra(2)),
        InvalidAlgebra, "decomposition needs base F_p"),
    "unknown base ring": (
        lambda: BaseRing("Q"),
        MonogenError, "unknown base ring kind 'Q'"),
    "exponent of wrong length": (
        lambda: SparsePoly(ZZ, 2, {(1,): 1}),
        ArityMismatch, "exponent vector (1,) has wrong arity"),
    "evaluate with too few values": (
        lambda: SparsePoly(ZZ, 2, {(1, 0): 1}).evaluate([1]),
        ArityMismatch, "expected 2 values, got 1"),
    "content primes over F_p": (
        lambda: content_primes(SparsePoly(Fp(5), 1, {(1,): 2})),
        BaseRingMismatch, "content primes need base Z"),
    "content primes over Z[t]": (
        lambda: content_primes(SparsePoly(ZX, 1, {(1,): (0, 2)})),
        BaseRingMismatch, "content primes need base Z"),
    "necklace count at a composite": (
        lambda: necklace_count(4, 1),
        MonogenError, "4 is not prime"),
    "necklace count of degree 0": (
        lambda: necklace_count(5, 0),
        MonogenError, "degree must be positive"),
    "document not an object": (
        lambda: load_algebra_json([]),
        ParseError, "input must be a JSON object"),
    "search over F_p": (
        lambda: search_monogenerators(split_algebra(2).reduce_mod_p(3), 1),
        NotIntegerBase, "monogenerator search needs base Z"),
    "negative genus": (
        lambda: curve_twisted_constraint(2, -1, 0),
        DegenerateDegree, "genera must be non-negative"),
    "steinitz exponent of rank 0": (
        lambda: steinitz_exponent(0),
        DegenerateDegree, "rank must be positive"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_input_check_raises(call, error, message):
    with pytest.raises(MonogenError) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)
