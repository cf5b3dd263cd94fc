"""Universal R-matrices: axiom checking, braidings on modules, the map from
functionals to elements induced by the double braiding, and factorizability
of the host Hopf algebra."""

from __future__ import annotations

import numpy as np

from .errors import HopffactError, NotInvertible, SpaceMismatch
from .hopf import HModule, HopfAlgebra, element_terms, kron_matrix, kron_sums, module_tensor
from .linalg import MapMatrix
from .tensors import (
    TensorElement,
    _coapply,
    _dense,
    _differing,
    _element,
    _embed,
    _flip,
    _linear_op,
    _products,
    tensor_invert,
    tensor_mult,
    tensor_unit,
    verify_inverse,
)
from .verdicts import Verdict


class RMatrix:
    """An invertible element of H⊗H together with its verified inverse.

    The inverse is computed when not supplied (``_r_inverse``); a supplied
    one is verified (``verify_inverse``: inv·t = 1 suffices in a
    finite-dimensional algebra), and NotInvertible is raised when it fails.
    """

    __slots__ = ("host", "element", "inverse")

    def __init__(self, host: HopfAlgebra, element: TensorElement,
                 inverse: TensorElement | None = None):
        if tuple(f.labels for f in element.factors) != (host.space.labels,) * 2:
            raise SpaceMismatch("element must live in H⊗H")
        if inverse is None:
            inverse = _r_inverse(host, element)
        else:
            verify_inverse(element, inverse, [host.algebra, host.algebra])
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "element", element)
        object.__setattr__(self, "inverse", inverse)

    def __setattr__(self, *a):
        raise AttributeError("RMatrix is immutable")

    def monodromy(self) -> TensorElement:
        """R_21 R, the double-braiding element."""
        algs = [self.host.algebra, self.host.algebra]
        return tensor_mult(self.element.swap(), self.element, algs)

    def __repr__(self):
        return f"RMatrix(dim H = {self.host.dim}, {self.element._fam[2].size} terms)"


def trivial_r_matrix(host: HopfAlgebra) -> RMatrix:
    """R = 1⊗1 (an R-matrix exactly when H is cocommutative)."""
    algs = [host.algebra, host.algebra]
    unit = tensor_unit(host.field, (host.space, host.space), algs)
    return RMatrix(host, unit, unit)


def _r_inverse(host: HopfAlgebra, element: TensorElement) -> TensorElement:
    """The inverse of an element of H⊗H, first tried as (S⊗id)R.

    For an R-matrix R⁻¹ = (S⊗id)R (Kassel, *Quantum Groups*, VIII.2), one
    application of the antipode to the first leg; the candidate is
    certified by ``verify_inverse``.  An element it does not invert (one
    that is not an R-matrix) is inverted by ``tensor_invert``, which raises
    NotInvertible on a zero divisor.
    """
    f, n = host.field, host.dim
    algs = [host.algebra, host.algebra]
    s_op = _linear_op(f, host.antipode.array)
    candidate = _element(f, element.factors, _coapply(f, element._fam, (n, n), 0, s_op, n))
    try:
        verify_inverse(element, candidate, algs)
    except NotInvertible:
        return tensor_invert(element, algs)
    return candidate


def check_r_matrix(host: HopfAlgebra, element: TensorElement) -> Verdict:
    """The three quasitriangularity axioms, checked entrywise in H⊗H⊗H.

    Invertibility is a precondition: NotInvertible propagates to the caller.
    """
    _r_inverse(host, element)
    return _check_axioms(host, element)


def _check_axioms(host: HopfAlgebra, element: TensorElement) -> Verdict:
    """(Δ⊗id)R = R13 R23 and (id⊗Δ)R = R13 R12 in H⊗H⊗H, then
    RΔ(h) = Δop(h)R for every basis element h at once."""
    f, n = host.field, host.dim
    m, d = host.algebra.mult_op(), host.coalgebra.comult_op()
    algs3 = [host.algebra] * 3
    r = element._fam
    r13, r23, r12 = (_embed(f, r, (n, n), slots, algs3) for slots in ((0, 2), (1, 2), (0, 1)))
    if _differing(f, _coapply(f, r, (n, n), 0, d, n * n),
                  _products(f, r13, r23, [m] * 3, [n] * 3), n ** 3).size:
        return Verdict.failed("quasitriangular-i", None, "(Δ⊗id)R ≠ R13 R23")
    if _differing(f, _coapply(f, r, (n, n), 1, d, n * n),
                  _products(f, r13, r12, [m] * 3, [n] * 3), n ** 3).size:
        return Verdict.failed("quasitriangular-ii", None, "(id⊗Δ)R ≠ R13 R12")
    d_op = _flip(f, d, (n, n))
    bad = _differing(f, _products(f, r, d, [m, m], [n, n]),  # element h of each side
                     _products(f, d_op, r, [m, m], [n, n]), n * n)
    if bad.size:
        return Verdict.failed("quasitriangular-iii", (int(bad[0]),), "RΔ(h) ≠ Δop(h)R")
    return Verdict.passed()


def r_matrix(host: HopfAlgebra, element: TensorElement) -> RMatrix:
    """Checked constructor: inverts the element once (NotInvertible
    propagates), then verifies the axioms before returning."""
    r = RMatrix(host, element)
    v = _check_axioms(host, element)
    if not v:
        raise HopffactError(f"not an R-matrix: {v.describe()}")
    return r


def braiding_matrix(r: RMatrix, x: HModule, y: HModule) -> MapMatrix:
    """c_{X,Y}: X⊗Y → Y⊗X, x⊗y ↦ (second leg · y) ⊗ (first leg · x)."""
    return MapMatrix(r.host.field, x.space.tensor(y.space), y.space.tensor(x.space),
                     kron_sums(element_terms(r.element), x, y, swap=True)[0])


def braiding_inverse_matrix(r: RMatrix, x: HModule, y: HModule) -> MapMatrix:
    """c_{X,Y}^{-1}: Y⊗X → X⊗Y via the inverse element acting componentwise."""
    g, a, b, c = element_terms(r.inverse)
    return MapMatrix(r.host.field, y.space.tensor(x.space), x.space.tensor(y.space),
                     kron_sums((g, b, a, c), y, x, swap=True)[0])


def check_hexagon(r: RMatrix, x: HModule, y: HModule, z: HModule) -> Verdict:
    """Both hexagon identities on a concrete module triple."""
    f = r.host.field
    idx = MapMatrix.identity(f, x.space)
    idy = MapMatrix.identity(f, y.space)
    idz = MapMatrix.identity(f, z.space)
    xy = module_tensor(r.host, x, y)
    yz = module_tensor(r.host, y, z)
    lhs1 = braiding_matrix(r, xy, z)
    rhs1 = kron_matrix(braiding_matrix(r, x, z), idy) @ kron_matrix(
        idx, braiding_matrix(r, y, z)
    )
    if not np.array_equal(lhs1.array, rhs1.array):
        return Verdict.failed("hexagon-1", None, "c_{X⊗Y,Z} ≠ (c_XZ⊗id)(id⊗c_YZ)")
    lhs2 = braiding_matrix(r, x, yz)
    rhs2 = kron_matrix(idy, braiding_matrix(r, x, z)) @ kron_matrix(
        braiding_matrix(r, x, y), idz
    )
    if not np.array_equal(lhs2.array, rhs2.array):
        return Verdict.failed("hexagon-2", None, "c_{X,Y⊗Z} ≠ (id⊗c_XZ)(c_XY⊗id)")
    return Verdict.passed()


class DrinfeldMap:
    """The matrix of f ↦ (f ⊗ id)(monodromy) on dual bases, monodromy kept."""

    __slots__ = ("matrix", "monodromy")

    def __init__(self, matrix: MapMatrix, monodromy: TensorElement):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "monodromy", monodromy)

    def __setattr__(self, *a):
        raise AttributeError("DrinfeldMap is immutable")

    def rank(self) -> int:
        return self.matrix.rank()


def drinfeld_map(r: RMatrix) -> DrinfeldMap:
    """Contract functionals against the first leg of the monodromy."""
    host, mono = r.host, r.monodromy()
    matrix = MapMatrix(host.field, host.space.dual(), host.space, _dense(mono).T)
    return DrinfeldMap(matrix, mono)


def is_factorizable_hopf(r: RMatrix) -> bool:
    return drinfeld_map(r).matrix.rank() == r.host.dim


def is_triangular(r: RMatrix) -> bool:
    """R_21 equals the stored inverse, entrywise."""
    return r.element.swap() == r.inverse
