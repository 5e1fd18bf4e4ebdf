"""Gluing data for double affine bundles over a formal polynomial base.

A transition between two trivializing charts is a block map with polynomial
coefficient functions in the base coordinates x1..xm:

    x' = P x + q                                   (invertible affine base map)
    y' = alpha0(x) + alpha(x) y                    (side 1)
    z' = beta0(x)  + beta(x)  z                    (side 2)
    c' = gamma00(x) + gamma_y(x) y + gamma_z(x) z
         + gamma_yz(x)(y, z) + sigma(x) c          (core)

Over each base point this is a double affine morphism of the fibers, so a
transition carries DoubleMorphism's nine blocks under the same names and uses
its block algebra: one shape check (blocks_fit), one composite formula
(composite_blocks, applied after the second transition is pulled back through
the first base map), and evaluation at a base point (as_double_morphism).
This shape is closed under composition and (for unit-determinant blocks)
inversion, which is what makes exact cocycle checking possible.  An atlas is
a labeled overlap graph carrying such transitions; cocycle_check verifies
every triangle as a polynomial identity.  The induced transitions of the
fiberwise model (drop all affine parts) and of the fiberwise hull (one added
homogenizing coordinate per side, core unchanged) are computed symbolically,
and their compatibility with composition is itself a checkable report.

Each transition and each chart-path composite is built once.  An atlas
computes the composite along a path a -> b -> c on first request
(Atlas.composite) and keeps it for its lifetime, so the cocycle checks and
the functoriality checks of the induced model and hull atlases share their
composites; a composite that raises is not kept and raises again at every
use.  A transition whose blocks already hold polynomials on its base is kept
as given, block objects included, instead of being lifted again.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, Optional, Tuple

from .double import DecomposedDouble, DoubleMorphism, blocks_fit, composite_blocks
from .errors import (
    ConstraintViolated,
    DaffineError,
    DimMismatch,
    NotInvertible,
    SingularMatrix,
)
from .exact import BaseMap, Bilinear, Mat, Poly, Vec
from .report import FAIL, PASS, CheckRecord, Report


def _lift(value, m: int) -> Poly:
    if isinstance(value, Poly):
        if value.nvars != m:
            raise DimMismatch(f"coefficient in {value.nvars} variables on a {m}-dim base")
        return value
    return Poly.const(m, value)


def _vmap(fn: Callable, v: Vec) -> Vec:
    return Vec(fn(x) for x in v)


def _mmap(fn: Callable, m: Mat) -> Mat:
    return Mat(tuple(fn(x) for x in row) for row in m.rows)


def _bmap(fn: Callable, b: Bilinear) -> Bilinear:
    return Bilinear(
        tuple(tuple(tuple(fn(x) for x in row) for row in layer) for layer in b.entries)
    )


# every block of a transition in report order, with its type and entrywise map
_BLOCKS = (
    ("alpha0", Vec, _vmap),
    ("alpha", Mat, _mmap),
    ("beta0", Vec, _vmap),
    ("beta", Mat, _mmap),
    ("gamma00", Vec, _vmap),
    ("gamma_y", Mat, _mmap),
    ("gamma_z", Mat, _mmap),
    ("gamma_yz", Bilinear, _bmap),
    ("sigma", Mat, _mmap),
)
_BLOCK_ORDER = tuple(name for name, _, _ in _BLOCKS)


def _entries(block) -> Iterable:
    if isinstance(block, Vec):
        return block.entries
    if isinstance(block, Mat):
        return chain.from_iterable(block.rows)
    return chain.from_iterable(chain.from_iterable(block.entries))


def _is_lifted(block, kind: type, m: int) -> bool:
    """Is the block of the right type with every entry a polynomial in m variables?"""
    return isinstance(block, kind) and all(
        isinstance(e, Poly) and e.nvars == m for e in _entries(block)
    )


@dataclass(frozen=True)
class TransitionData:
    """One chart-to-chart transition with polynomial coefficients."""

    base_map: BaseMap
    alpha0: Vec
    alpha: Mat
    beta0: Vec
    beta: Mat
    gamma00: Vec
    gamma_y: Mat
    gamma_z: Mat
    gamma_yz: Bilinear
    sigma: Mat
    samples: Tuple[Vec, ...] = ()

    def __post_init__(self):
        m = self.base_map.dim
        lift = lambda v: _lift(v, m)
        for name, kind, fmap in _BLOCKS:
            block = getattr(self, name)
            if not _is_lifted(block, kind, m):
                object.__setattr__(self, name, fmap(lift, block))
        object.__setattr__(self, "samples", tuple(self.samples))

        dims = self.fiber_dims
        if not blocks_fit(dims, dims, self):
            raise DimMismatch("transition blocks have inconsistent fiber dimensions")
        for s in self.samples:
            if s.dim != m:
                raise DimMismatch("sample point dimension does not match the base")
            at = _at(s)
            for label, mat in (("alpha", self.alpha), ("beta", self.beta), ("sigma", self.sigma)):
                if not _mmap(at, mat).is_invertible():
                    raise SingularMatrix(
                        f"{label} block is singular at sample point {tuple(s)}"
                    )

    @property
    def base_dim(self) -> int:
        return self.base_map.dim

    @property
    def fiber_dims(self) -> Tuple[int, int, int]:
        return (self.alpha0.dim, self.beta0.dim, self.gamma00.dim)


def _at(x: Vec) -> Callable[[Poly], Fraction]:
    """Evaluation of a lifted block entry at the base point x."""
    point = list(x)
    return lambda e: e.eval(point)


def identity_transition(m: int, n1: int, n2: int, n3: int, samples=()) -> TransitionData:
    ident = DoubleMorphism.identity(DecomposedDouble(n1, n2, n3))
    return TransitionData(
        base_map=BaseMap.identity(m),
        samples=tuple(samples),
        **{name: getattr(ident, name) for name in _BLOCK_ORDER},
    )


def as_double_morphism(t: TransitionData, x: Vec) -> DoubleMorphism:
    """The fiber map of the transition over the base point x."""
    d = DecomposedDouble(*t.fiber_dims)
    at = _at(x)
    return DoubleMorphism(d, d, **{name: fmap(at, getattr(t, name)) for name, _, fmap in _BLOCKS})


def apply_transition(t: TransitionData, x: Vec, y: Vec, z: Vec, c: Vec):
    """Map a point (x; y, z, c) through the transition; returns (x', y', z', c')."""
    n1, n2, n3 = t.fiber_dims
    p = DecomposedDouble(n1, n2, n3).point(y, z, c)
    q = as_double_morphism(t, x).apply(p)
    return t.base_map.apply(x), q.y, q.z, q.c


def compose(first: TransitionData, second: TransitionData) -> TransitionData:
    """The transition second(first(-)), with all blocks expanded symbolically.

    The coefficient functions of `second` live on the intermediate chart, so
    they are pulled back through the base map of `first` before the blocks
    combine by DoubleMorphism's composite formula.
    """
    if first.base_dim != second.base_dim or first.fiber_dims != second.fiber_dims:
        raise DimMismatch("transitions are not composable")
    pull = first.base_map.pullback
    pulled = SimpleNamespace(**{name: fmap(pull, getattr(second, name)) for name, _, fmap in _BLOCKS})
    return TransitionData(
        base_map=first.base_map.then(second.base_map),
        samples=first.samples,
        **composite_blocks(first, pulled),
    )


def _poly_mat_inverse(m: Mat) -> Mat:
    """Inverse of a polynomial matrix; requires a constant nonzero determinant."""
    d = m.det()
    if isinstance(d, Poly):
        if not d.is_constant():
            raise NotInvertible(f"block determinant {d} is not a unit")
        d = d.constant_value()
    if d == 0:
        raise NotInvertible("block determinant vanishes identically")
    return m.adjugate().scale(Fraction(1) / Fraction(d))


def inverse(t: TransitionData) -> TransitionData:
    """The formal inverse transition, defined when all blocks have unit determinant."""
    base_inv = t.base_map.inverse()
    a_inv = _poly_mat_inverse(t.alpha)
    b_inv = _poly_mat_inverse(t.beta)
    s_inv = _poly_mat_inverse(t.sigma)
    u0 = a_inv @ t.alpha0
    w0 = b_inv @ t.beta0
    pull = base_inv.pullback
    return TransitionData(
        base_map=base_inv,
        alpha0=_vmap(pull, -(a_inv @ t.alpha0)),
        alpha=_mmap(pull, a_inv),
        beta0=_vmap(pull, -(b_inv @ t.beta0)),
        beta=_mmap(pull, b_inv),
        gamma00=_vmap(
            pull,
            -(s_inv @ (t.gamma00 - t.gamma_y @ u0 - t.gamma_z @ w0 + t.gamma_yz.apply(u0, w0))),
        ),
        gamma_y=_mmap(pull, -(s_inv @ (t.gamma_y @ a_inv - t.gamma_yz.right_vec(w0) @ a_inv))),
        gamma_z=_mmap(pull, -(s_inv @ (t.gamma_z @ b_inv - t.gamma_yz.left_vec(u0) @ b_inv))),
        gamma_yz=_bmap(pull, -t.gamma_yz.left_mat(a_inv).right_mat(b_inv).post(s_inv)),
        sigma=_mmap(pull, s_inv),
        samples=tuple(t.base_map.apply(s) for s in t.samples),
    )


# ---------------------------------------------------------------------------
# induced transitions: model and hull
# ---------------------------------------------------------------------------


def _zero_like(t: TransitionData, **kept):
    n1, n2, n3 = t.fiber_dims
    m = t.base_dim
    defaults = dict(
        alpha0=Vec(Poly.zero(m) for _ in range(n1)),
        beta0=Vec(Poly.zero(m) for _ in range(n2)),
        gamma00=Vec(Poly.zero(m) for _ in range(n3)),
        gamma_y=_mmap(lambda _: Poly.zero(m), t.gamma_y),
        gamma_z=_mmap(lambda _: Poly.zero(m), t.gamma_z),
    )
    defaults.update(kept)
    return replace(t, **defaults)


def partial_model_side1(t: TransitionData) -> TransitionData:
    """Linearize along the first structure only: drop alpha0, gamma00, gamma_z."""
    return _zero_like(t, beta0=t.beta0, gamma_y=t.gamma_y)


def partial_model_side2(t: TransitionData) -> TransitionData:
    """Linearize along the second structure only: drop beta0, gamma00, gamma_y."""
    return _zero_like(t, alpha0=t.alpha0, gamma_z=t.gamma_z)


def induce_model(t: TransitionData) -> TransitionData:
    """Transition of the fiberwise model: every affine block dropped."""
    return _zero_like(t)


def linearize(t: TransitionData, first: str = "side1") -> TransitionData:
    """Apply the two partial linearizations in the requested order."""
    if first == "side1":
        return partial_model_side2(partial_model_side1(t))
    if first == "side2":
        return partial_model_side1(partial_model_side2(t))
    raise ValueError("first must be 'side1' or 'side2'")


def induce_hull(t: TransitionData) -> TransitionData:
    """Transition of the fiberwise hull, with homogenizing coordinates.

    Each side gains one leading coordinate (the homogenizing parameter of the
    other structure); the core keeps its dimension and every affine block of
    the original folds into the bilinear block of the hull.
    """
    n1, n2, n3 = t.fiber_dims
    m = t.base_dim
    zero, one = Poly.zero(m), Poly.const(m, 1)

    alpha_rows = [[one] + [zero] * n1]
    for i in range(n1):
        alpha_rows.append([t.alpha0[i]] + list(t.alpha.rows[i]))
    beta_rows = [[one] + [zero] * n2]
    for b in range(n2):
        beta_rows.append([t.beta0[b]] + list(t.beta.rows[b]))

    gyz = []
    for u in range(n3):
        layer = [[t.gamma00[u]] + list(t.gamma_z.rows[u])]
        for i in range(n1):
            layer.append([t.gamma_y[u, i]] + list(t.gamma_yz.entries[u][i]))
        gyz.append(layer)

    return TransitionData(
        base_map=t.base_map,
        alpha0=Vec(zero for _ in range(n1 + 1)),
        alpha=Mat(alpha_rows),
        beta0=Vec(zero for _ in range(n2 + 1)),
        beta=Mat(beta_rows),
        gamma00=Vec(zero for _ in range(n3)),
        gamma_y=Mat([[zero] * (n1 + 1) for _ in range(n3)]),
        gamma_z=Mat([[zero] * (n2 + 1) for _ in range(n3)]),
        gamma_yz=Bilinear(gyz),
        sigma=t.sigma,
        samples=t.samples,
    )


def restrict_hull(th: TransitionData, s_val, t_val) -> TransitionData:
    """Substitute fixed values for the two homogenizing coordinates.

    At (1, 1) a hull transition restricts to the original one; at (0, 0) it
    restricts to the model transition.
    """
    n1h, n2h, n3 = th.fiber_dims
    if n1h < 1 or n2h < 1:
        raise DimMismatch("restriction needs the homogenizing coordinates")
    n1, n2 = n1h - 1, n2h - 1
    s_val, t_val = Fraction(s_val), Fraction(t_val)

    # The leading coordinates must be genuinely invariant for the slice to be
    # well defined: row 0 of each side block has to fix them.
    for b0, bmat, val, label in (
        (th.alpha0, th.alpha, t_val, "first"),
        (th.beta0, th.beta, s_val, "second"),
    ):
        if any(bmat[0, j] != 0 for j in range(1, bmat.ncols)):
            raise ConstraintViolated(f"{label} homogenizing coordinate is not preserved")
        if b0[0] + bmat[0, 0] * val != Poly.const(th.base_dim, val):
            raise ConstraintViolated(f"{label} homogenizing coordinate moves at this value")

    alpha0 = Vec(th.alpha0[i + 1] + th.alpha[i + 1, 0] * t_val for i in range(n1))
    alpha = Mat([th.alpha.rows[i + 1][1:] for i in range(n1)])
    beta0 = Vec(th.beta0[b + 1] + th.beta[b + 1, 0] * s_val for b in range(n2))
    beta = Mat([th.beta.rows[b + 1][1:] for b in range(n2)])

    g = th.gamma_yz
    gamma00 = Vec(
        th.gamma00[u]
        + th.gamma_y[u, 0] * t_val
        + th.gamma_z[u, 0] * s_val
        + g[u, 0, 0] * (s_val * t_val)
        for u in range(n3)
    )
    gamma_y = Mat(
        [[th.gamma_y[u, i + 1] + g[u, i + 1, 0] * s_val for i in range(n1)] for u in range(n3)]
    )
    gamma_z = Mat(
        [[th.gamma_z[u, b + 1] + g[u, 0, b + 1] * t_val for b in range(n2)] for u in range(n3)]
    )
    gamma_yz = Bilinear(
        [[[g[u, i + 1, b + 1] for b in range(n2)] for i in range(n1)] for u in range(n3)]
    )
    return TransitionData(
        base_map=th.base_map,
        alpha0=alpha0,
        alpha=alpha,
        beta0=beta0,
        beta=beta,
        gamma00=gamma00,
        gamma_y=gamma_y,
        gamma_z=gamma_z,
        gamma_yz=gamma_yz,
        sigma=th.sigma,
        samples=th.samples,
    )


# ---------------------------------------------------------------------------
# comparison and atlases
# ---------------------------------------------------------------------------

def first_difference(t1: TransitionData, t2: TransitionData) -> Optional[str]:
    """The first differing coefficient between two transitions, or None."""
    if t1.base_map != t2.base_map:
        return f"base map: {t1.base_map!r} != {t2.base_map!r}"
    if t1.fiber_dims != t2.fiber_dims:
        return f"fiber dims: {t1.fiber_dims} != {t2.fiber_dims}"
    for name in _BLOCK_ORDER:
        b1, b2 = getattr(t1, name), getattr(t2, name)
        if isinstance(b1, Vec):
            for i, (x1, x2) in enumerate(zip(b1, b2)):
                if x1 != x2:
                    return f"{name}[{i}]: {x1} != {x2}"
        elif isinstance(b1, Mat):
            for i, (r1, r2) in enumerate(zip(b1.rows, b2.rows)):
                for j, (x1, x2) in enumerate(zip(r1, r2)):
                    if x1 != x2:
                        return f"{name}[{i}][{j}]: {x1} != {x2}"
        else:
            for u, (l1, l2) in enumerate(zip(b1.entries, b2.entries)):
                for i, (r1, r2) in enumerate(zip(l1, l2)):
                    for j, (x1, x2) in enumerate(zip(r1, r2)):
                        if x1 != x2:
                            return f"{name}[{u}][{i}][{j}]: {x1} != {x2}"
    return None


def data_equal(t1: TransitionData, t2: TransitionData) -> bool:
    return first_difference(t1, t2) is None


@dataclass(frozen=True)
class Atlas:
    """A labeled overlap graph with one transition per ordered edge."""

    base_dim: int
    fiber_dims: Tuple[int, int, int]
    charts: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, TransitionData], ...]
    _index: Dict[Tuple[str, str], TransitionData] = field(init=False, repr=False, compare=False)
    _composites: Dict[Tuple[str, str, str], TransitionData] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(set(self.charts)) != len(self.charts):
            raise DaffineError("duplicate chart names in atlas")
        seen = set()
        for a, b, t in self.edges:
            if a not in self.charts or b not in self.charts:
                raise DaffineError(f"edge ({a}, {b}) references an unknown chart")
            if (a, b) in seen:
                raise DaffineError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            if t.base_dim != self.base_dim or t.fiber_dims != tuple(self.fiber_dims):
                raise DimMismatch(f"edge ({a}, {b}) has inconsistent dimensions")
        object.__setattr__(self, "_index", {(a, b): t for a, b, t in self.edges})
        object.__setattr__(self, "_composites", {})

    def transition(self, a: str, b: str) -> Optional[TransitionData]:
        return self._index.get((a, b))

    def composite(self, a: str, b: str, c: str) -> TransitionData:
        """The transition along the path a -> b -> c, composed on first request.

        The composite is kept for the lifetime of the atlas.  If composing
        raises, nothing is kept, so the error surfaces at every request.
        """
        key = (a, b, c)
        t = self._composites.get(key)
        if t is None:
            t_ab, t_bc = self._index.get((a, b)), self._index.get((b, c))
            if t_ab is None or t_bc is None:
                raise DaffineError(f"no path {a}->{b}->{c} in the atlas")
            t = self._composites[key] = compose(t_ab, t_bc)
        return t

    def mapped(self, fn: Callable[[TransitionData], TransitionData]) -> "Atlas":
        new_edges = tuple((a, b, fn(t)) for a, b, t in self.edges)
        dims = new_edges[0][2].fiber_dims if new_edges else self.fiber_dims
        return Atlas(self.base_dim, dims, self.charts, new_edges)


def cocycle_check(atlas: Atlas) -> Report:
    """Verify self-loops, inverse pairs, and all transition triangles exactly."""
    records = []
    n1, n2, n3 = atlas.fiber_dims
    for a, b, t in atlas.edges:
        if a == b:
            diff = first_difference(t, identity_transition(atlas.base_dim, n1, n2, n3))
            records.append(
                CheckRecord(f"self-loop {a}", PASS if diff is None else FAIL, diff)
            )
    for a, b, _ in atlas.edges:
        if a >= b or atlas.transition(b, a) is None:
            continue
        try:
            diff = first_difference(
                atlas.composite(a, b, a), identity_transition(atlas.base_dim, n1, n2, n3)
            )
        except DaffineError as exc:
            diff = str(exc)
        records.append(
            CheckRecord(f"inverse pair {a}<->{b}", PASS if diff is None else FAIL, diff)
        )
    for a, b, _ in atlas.edges:
        for b2, c, _ in atlas.edges:
            if b2 != b or a == b or b == c or a == c:
                continue
            t_ac = atlas.transition(a, c)
            if t_ac is None:
                continue
            try:
                diff = first_difference(atlas.composite(a, b, c), t_ac)
            except DaffineError as exc:
                diff = str(exc)
            records.append(
                CheckRecord(f"triangle {a}->{b}->{c}", PASS if diff is None else FAIL, diff)
            )
    if not records:
        records.append(CheckRecord("no overlaps", PASS, "nothing to glue"))
    return Report.of(records)


def check_atlas_model_hull(atlas: Atlas) -> Report:
    """Induced model and hull atlases: cocycles, functoriality, restrictions."""
    records = []
    model_atlas = atlas.mapped(induce_model)
    hull_atlas = atlas.mapped(induce_hull)
    report = Report.of(records)
    report = report.merged(cocycle_check(model_atlas), prefix="model ")
    report = report.merged(cocycle_check(hull_atlas), prefix="hull ")

    extra = []
    for a, b, t in atlas.edges:
        th = hull_atlas.transition(a, b)
        diff = first_difference(restrict_hull(th, 1, 1), t)
        extra.append(
            CheckRecord(f"hull at (1,1) {a}->{b}", PASS if diff is None else FAIL, diff)
        )
        diff = first_difference(restrict_hull(th, 0, 0), model_atlas.transition(a, b))
        extra.append(
            CheckRecord(f"hull at (0,0) {a}->{b}", PASS if diff is None else FAIL, diff)
        )
        diff = first_difference(linearize(t, "side1"), linearize(t, "side2"))
        extra.append(
            CheckRecord(
                f"model order-independence {a}->{b}", PASS if diff is None else FAIL, diff
            )
        )
    for a, b, _ in atlas.edges:
        for b2, c, _ in atlas.edges:
            if b2 != b or a == b or b == c:
                continue
            t_ac = atlas.composite(a, b, c)
            diff = first_difference(induce_model(t_ac), model_atlas.composite(a, b, c))
            extra.append(
                CheckRecord(
                    f"model functorial {a}->{b}->{c}", PASS if diff is None else FAIL, diff
                )
            )
            diff = first_difference(induce_hull(t_ac), hull_atlas.composite(a, b, c))
            extra.append(
                CheckRecord(
                    f"hull functorial {a}->{b}->{c}", PASS if diff is None else FAIL, diff
                )
            )
    return report.merged(Report.of(extra))
