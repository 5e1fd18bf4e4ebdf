"""Gluing data for double affine bundles over a formal polynomial base.

A transition between two trivializing charts is a block map with polynomial
coefficient functions in the base coordinates x1..xm:

    x' = P x + q                                   (invertible affine base map)
    y' = alpha0(x) + alpha(x) y                    (side 1)
    z' = beta0(x)  + beta(x)  z                    (side 2)
    c' = gamma00(x) + gamma_y(x) y + gamma_z(x) z
         + gamma_yz(x)(y, z) + sigma(x) c          (core)

Over each base point this is a double affine morphism of the fibers, so a
transition carries DoubleMorphism's nine blocks under the same names (BLOCKS
lists them once, in report order, with their kinds) and uses its block
algebra: one shape check (blocks_fit), one composite formula
(composite_blocks, applied after the second transition is pulled back through
the first base map), and evaluation at a base point (as_double_morphism).
This shape is closed under composition and (for unit-determinant blocks)
inversion, which is what makes exact cocycle checking possible.  An atlas is
a labeled overlap graph carrying such transitions; cocycle_check verifies
every triangle as a polynomial identity.  The induced transitions of the
fiberwise model (drop all affine parts) and of the fiberwise hull (one added
homogenizing coordinate per side, core unchanged) are computed symbolically,
and their compatibility with composition is itself a checkable report.

Each chart set's cocycle condition is decided once (Atlas.difference), on
two facts.  A one-sided inverse of a transition is two-sided (its blocks are
then invertible over Q[x], and so is its base map), so an inverse pair holds
if either round trip is the identity; it is decided by the one that pulls
back fewer terms.  Once the pairs among three charts hold, their six
triangles are one condition, since moving a transition of a holding pair
across a triangle's equation gives another triangle's; it is decided by the
cheapest of the six (with one pair failing or missing, the three triangles
through it in one direction are one condition).  A path whose condition
fails is composed on its own, so its record keeps its own witness.
Atlas.composite returns the long edge, or the identity for a round trip,
where the condition holds, and composes any other path once and keeps it; a
composite that raises is not kept and raises again at every use.  So the
functoriality checks of the induced model and hull atlases compose nothing
where the original and the induced chart set are both glued.

A transition whose blocks already hold polynomials on its base is kept as
given, block objects included.  An induced model, linearized or hull
transition, and a restriction of a hull transition, keeps its source's sample
points without evaluating determinants there again: its alpha, beta and sigma
are invertible wherever its source's are (a restriction's determinants are
factors of the hull's).  A two-step composite that is singular at a sample
point fails both of its functoriality records with that error, as its
cocycle record does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations, islice, product
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
from .exact import BaseMap, Bilinear, Mat, Poly, Vec, as_scalar
from .report import PASS, CheckRecord, Report, verdict


def _lift(value, m: int) -> Poly:
    if isinstance(value, Poly):
        if value.nvars != m:
            raise DimMismatch(f"coefficient in {value.nvars} variables on a {m}-dim base")
        return value
    return Poly.const(m, value)


# every block of a transition in report order, with its kind
BLOCKS = (
    ("alpha0", Vec),
    ("alpha", Mat),
    ("beta0", Vec),
    ("beta", Mat),
    ("gamma00", Vec),
    ("gamma_y", Mat),
    ("gamma_z", Mat),
    ("gamma_yz", Bilinear),
    ("sigma", Mat),
)
_BLOCK_ORDER = tuple(name for name, _ in BLOCKS)

# each kind's rank and the attribute holding its entries as nested tuples
_LAYOUT = {Vec: (1, "entries"), Mat: (2, "rows"), Bilinear: (3, "entries")}


def _has_rank(value, rank: int) -> bool:
    """Is value tuples or lists nested rank levels deep?"""
    return isinstance(value, (tuple, list)) and (
        rank == 1 or all(_has_rank(x, rank - 1) for x in value)
    )


def _deep_map(fn: Callable, nested, rank: int) -> tuple:
    if rank == 1:
        return tuple(map(fn, nested))
    return tuple([_deep_map(fn, x, rank - 1) for x in nested])


def map_entries(fn: Callable, kind: type, block) -> tuple:
    """fn of every entry of a block, as nested tuples of its kind's rank.

    The block is one of that kind or nested sequences of its rank; any other
    shape raises DimMismatch before fn sees an entry.
    """
    rank, attr = _LAYOUT[kind]
    if isinstance(block, kind):
        return _deep_map(fn, getattr(block, attr), rank)
    if not _has_rank(block, rank):
        raise DimMismatch(f"expected a {kind.__name__} or sequences nested {rank} deep")
    return _deep_map(fn, block, rank)


def _map(fn: Callable, kind: type, block):
    """The block of this kind with fn applied to every entry."""
    return kind(map_entries(fn, kind, block))


def _entries(block, kind: type) -> Iterable:
    """Every entry of a block of this kind, in row-major order."""
    rank, attr = _LAYOUT[kind]
    entries = getattr(block, attr)
    for _ in range(rank - 1):
        entries = chain.from_iterable(entries)
    return entries


def _subscript(block, kind: type, k: int) -> str:
    """``[i]``, ``[i][j]`` or ``[u][i][j]``: where the k-th entry, row-major, sits."""
    rank, attr = _LAYOUT[kind]
    nested, shape = getattr(block, attr), []
    for _ in range(rank):
        shape.append(len(nested))
        nested = nested[0]
    return "".join(f"[{i}]" for i in next(islice(product(*map(range, shape)), k, None)))


def _is_lifted(block, kind: type, m: int) -> bool:
    """Is the block of the right type with every entry a polynomial in m variables?"""
    return isinstance(block, kind) and all(
        isinstance(e, Poly) and e.nvars == m for e in _entries(block, kind)
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
        for name, kind in BLOCKS:
            block = getattr(self, name)
            if not _is_lifted(block, kind, m):
                object.__setattr__(self, name, _map(lift, kind, block))
        object.__setattr__(self, "samples", tuple(self.samples))

        dims = self.fiber_dims
        if not blocks_fit(dims, dims, self):
            raise DimMismatch("transition blocks have inconsistent fiber dimensions")
        for s in self.samples:
            if s.dim != m:
                raise DimMismatch("sample point dimension does not match the base")
            at = _at(s)
            for label, mat in (("alpha", self.alpha), ("beta", self.beta), ("sigma", self.sigma)):
                if not _map(at, Mat, mat).is_invertible():
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
    return DoubleMorphism(d, d, **{name: _map(at, kind, getattr(t, name)) for name, kind in BLOCKS})


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
    pulled = SimpleNamespace(
        **{name: _map(pull, kind, getattr(second, name)) for name, kind in BLOCKS}
    )
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
    blocks = dict(
        alpha0=-u0,
        alpha=a_inv,
        beta0=-w0,
        beta=b_inv,
        gamma00=-(s_inv @ (t.gamma00 - t.gamma_y @ u0 - t.gamma_z @ w0 + t.gamma_yz.apply(u0, w0))),
        gamma_y=-(s_inv @ (t.gamma_y @ a_inv - t.gamma_yz.right_vec(w0) @ a_inv)),
        gamma_z=-(s_inv @ (t.gamma_z @ b_inv - t.gamma_yz.left_vec(u0) @ b_inv)),
        gamma_yz=-t.gamma_yz.left_mat(a_inv).right_mat(b_inv).post(s_inv),
        sigma=s_inv,
    )
    pull = base_inv.pullback
    return TransitionData(
        base_map=base_inv,
        **{name: _map(pull, kind, blocks[name]) for name, kind in BLOCKS},
        samples=tuple(t.base_map.apply(s) for s in t.samples),
    )


# ---------------------------------------------------------------------------
# induced transitions: model and hull
# ---------------------------------------------------------------------------


def _keeping_samples(t: TransitionData, samples: Tuple[Vec, ...]) -> TransitionData:
    """t, built without sample points, carrying those of the transition it is
    induced from; its alpha, beta and sigma have that transition's
    determinants, which were checked at those points already."""
    object.__setattr__(t, "samples", samples)
    return t


def _zero_like(t: TransitionData, **kept):
    n1, n2, n3 = t.fiber_dims
    m = t.base_dim
    blocks = {name: getattr(t, name) for name in _BLOCK_ORDER}
    blocks.update(
        alpha0=Vec(Poly.zero(m) for _ in range(n1)),
        beta0=Vec(Poly.zero(m) for _ in range(n2)),
        gamma00=Vec(Poly.zero(m) for _ in range(n3)),
        gamma_y=_map(lambda _: Poly.zero(m), Mat, t.gamma_y),
        gamma_z=_map(lambda _: Poly.zero(m), Mat, t.gamma_z),
    )
    blocks.update(kept)
    return _keeping_samples(TransitionData(base_map=t.base_map, **blocks), t.samples)


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

    # alpha and beta gain a leading row (1, 0, ..., 0), so each keeps its
    # determinant, and sigma is unchanged
    hull = TransitionData(
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
    )
    return _keeping_samples(hull, t.samples)


def restrict_hull(th: TransitionData, s_val, t_val) -> TransitionData:
    """Substitute fixed values for the two homogenizing coordinates.

    At (1, 1) a hull transition restricts to the original one; at (0, 0) it
    restricts to the model transition.
    """
    n1h, n2h, n3 = th.fiber_dims
    if n1h < 1 or n2h < 1:
        raise DimMismatch("restriction needs the homogenizing coordinates")
    n1, n2 = n1h - 1, n2h - 1
    s_val, t_val = as_scalar(s_val), as_scalar(t_val)

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
    # Row 0 of the hull's alpha and beta is (a00, 0, ...), checked above, so
    # det = a00 * det(restriction), and sigma is the hull's: the restriction
    # is invertible at every sample point where the hull is.
    restricted = TransitionData(
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
    )
    return _keeping_samples(restricted, th.samples)


# ---------------------------------------------------------------------------
# comparison and atlases
# ---------------------------------------------------------------------------

def first_difference(t1: TransitionData, t2: TransitionData) -> Optional[str]:
    """The first differing coefficient between two transitions, or None."""
    if t1.base_map != t2.base_map:
        return f"base map: {t1.base_map!r} != {t2.base_map!r}"
    if t1.fiber_dims != t2.fiber_dims:
        return f"fiber dims: {t1.fiber_dims} != {t2.fiber_dims}"
    for name, kind in BLOCKS:
        b1, b2 = getattr(t1, name), getattr(t2, name)
        if b1 == b2:  # one tuple comparison; entries are walked only in a block that differs
            continue
        for k, (x1, x2) in enumerate(zip(_entries(b1, kind), _entries(b2, kind))):
            if x1 != x2:
                return f"{name}{_subscript(b1, kind, k)}: {x1} != {x2}"
    return None


ChartPath = Tuple[str, str, str]


def _term_count(t: TransitionData) -> int:
    return sum(len(e.num) for name, kind in BLOCKS for e in _entries(getattr(t, name), kind))


@dataclass(frozen=True)
class Atlas:
    """A labeled overlap graph with one transition per ordered edge."""

    base_dim: int
    fiber_dims: Tuple[int, int, int]
    charts: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, TransitionData], ...]
    _index: Dict[Tuple[str, str], TransitionData] = field(init=False, repr=False, compare=False)
    _composites: Dict[ChartPath, TransitionData] = field(init=False, repr=False, compare=False)
    # decided paths: does the composite equal the long edge?
    _glued: Dict[ChartPath, bool] = field(init=False, repr=False, compare=False)
    # the first difference (or error) of each failing path composed so far
    _witness: Dict[ChartPath, str] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_glued", {})
        object.__setattr__(self, "_witness", {})

    def transition(self, a: str, b: str) -> Optional[TransitionData]:
        return self._index.get((a, b))

    @cached_property
    def identity(self) -> TransitionData:
        """The identity transition on this atlas's base and fibers."""
        return identity_transition(self.base_dim, *self.fiber_dims)

    def triangles(self) -> Iterable[ChartPath]:
        """Paths a -> b -> c over three charts whose long edge a -> c exists, in edge order."""
        for a, b, _ in self.edges:
            for b2, c, _ in self.edges:
                if b2 == b and len({a, b, c}) == 3 and (a, c) in self._index:
                    yield (a, b, c)

    def composite(self, a: str, b: str, c: str) -> TransitionData:
        """The transition along the path a -> b -> c.

        A round trip or triangle whose condition holds (see difference) is its
        long edge a -> c, or the identity when a == c, and is not composed.
        Any other path is composed on first request and kept for the lifetime
        of the atlas.  If composing raises, nothing is kept, so the error
        surfaces at every request.
        """
        path = (a, b, c)
        if self._checkable(path) and self._holds(path):
            return self._long_edge(path)
        return self._compose(path)

    def difference(self, a: str, b: str, c: str) -> Optional[str]:
        """How the composite along a round trip a -> b -> a or a triangle
        a -> b -> c differs from the identity or the long edge a -> c: the
        first difference, the error composing raised, or None.

        The condition of the path's chart set is decided on first request by
        its cheapest composite (the one pulling back the fewest terms, the
        first in record order on ties); a failing path is composed on its own.
        """
        path = (a, b, c)
        if not self._checkable(path):
            raise DaffineError(f"no round trip or triangle {a}->{b}->{c} in the atlas")
        if self._holds(path):
            return None
        if path not in self._witness:
            self._witness[path] = self._own_difference(path)
        return self._witness[path]

    def mapped(self, fn: Callable[[TransitionData], TransitionData]) -> "Atlas":
        new_edges = tuple((a, b, fn(t)) for a, b, t in self.edges)
        dims = new_edges[0][2].fiber_dims if new_edges else self.fiber_dims
        return Atlas(self.base_dim, dims, self.charts, new_edges)

    def _checkable(self, path: ChartPath) -> bool:
        a, b, c = path
        index = self._index
        return (
            a != b != c
            and (a, b) in index
            and (b, c) in index
            and (a == c or (a, c) in index)
        )

    def _long_edge(self, path: ChartPath) -> TransitionData:
        a, _, c = path
        return self.identity if a == c else self._index[(a, c)]

    def _compose(self, path: ChartPath) -> TransitionData:
        t = self._composites.get(path)
        if t is None:
            a, b, c = path
            t_ab, t_bc = self._index.get((a, b)), self._index.get((b, c))
            if t_ab is None or t_bc is None:
                raise DaffineError(f"no path {a}->{b}->{c} in the atlas")
            t = self._composites[path] = compose(t_ab, t_bc)
        return t

    def _own_difference(self, path: ChartPath) -> Optional[str]:
        try:
            return first_difference(self._compose(path), self._long_edge(path))
        except DaffineError as exc:
            return str(exc)

    def _holds(self, path: ChartPath) -> bool:
        if path not in self._glued:
            a, b, c = path
            if a == c:
                lo, hi = sorted((a, b))
                same = [(lo, hi, lo), (hi, lo, hi)]
            else:
                same = self._same_condition(path)
            # the composite pulls its second transition back through the first
            decider = min(same, key=lambda p: _term_count(self._index[p[1:]]))
            diff = self._own_difference(decider)
            if diff is not None:
                self._witness[decider] = diff
            for p in same:
                self._glued[p] = diff is None
        return self._glued[path]

    def _pair_holds(self, a: str, b: str) -> bool:
        return self._checkable((a, b, a)) and self._holds((a, b, a))

    def _same_condition(self, path: ChartPath) -> list:
        """The triangles, in record order, that are one condition with path.

        Moving one transition of a holding pair across a triangle's equation
        gives another triangle's.  With every pair among path's charts
        holding, that links all six; with one pair failing or missing, the
        three that run through it in path's direction.  When that condition
        holds, every transition they involve has unit determinants, so no
        composite among them is singular at a sample point.  With two pairs
        not holding that is not so, and path is decided on its own.
        """
        charts = set(path)
        failing = [pair for pair in combinations(sorted(charts), 2) if not self._pair_holds(*pair)]
        if len(failing) > 1:
            return [path]
        direction = lambda p: [p.index(x) < p.index(y) for x, y in failing]
        return [p for p in self.triangles() if set(p) == charts and direction(p) == direction(path)]


def cocycle_check(atlas: Atlas) -> Report:
    """Verify self-loops, inverse pairs, and all transition triangles exactly."""
    records = []
    for a, b, t in atlas.edges:
        if a == b:
            records.append(verdict(f"self-loop {a}", first_difference(t, atlas.identity)))
    for a, b, _ in atlas.edges:
        if a < b and atlas.transition(b, a) is not None:
            records.append(verdict(f"inverse pair {a}<->{b}", atlas.difference(a, b, a)))
    for a, b, c in atlas.triangles():
        records.append(verdict(f"triangle {a}->{b}->{c}", atlas.difference(a, b, c)))
    if not records:
        records.append(CheckRecord("no overlaps", PASS, "nothing to glue"))
    return Report.of(records)


def check_atlas_model_hull(atlas: Atlas) -> Report:
    """Induced model and hull atlases: cocycles, functoriality, restrictions."""
    model_atlas = atlas.mapped(induce_model)
    hull_atlas = atlas.mapped(induce_hull)
    report = Report.of([])
    report = report.merged(cocycle_check(model_atlas), prefix="model ")
    report = report.merged(cocycle_check(hull_atlas), prefix="hull ")

    extra = []
    for a, b, t in atlas.edges:
        th = hull_atlas.transition(a, b)
        extra.append(verdict(f"hull at (1,1) {a}->{b}", first_difference(restrict_hull(th, 1, 1), t)))
        extra.append(
            verdict(
                f"hull at (0,0) {a}->{b}",
                first_difference(restrict_hull(th, 0, 0), model_atlas.transition(a, b)),
            )
        )
        extra.append(
            verdict(
                f"model order-independence {a}->{b}",
                first_difference(linearize(t, "side1"), linearize(t, "side2")),
            )
        )
    for a, b, _ in atlas.edges:
        for b2, c, _ in atlas.edges:
            if b2 != b or a == b or b == c:
                continue
            try:
                t_ac = atlas.composite(a, b, c)
            except DaffineError as exc:
                # a composite singular at a sample point has no induced
                # transitions to compare; both records fail on its error
                extra += [verdict(f"{kind} functorial {a}->{b}->{c}", str(exc)) for kind in ("model", "hull")]
                continue
            extra.append(
                verdict(
                    f"model functorial {a}->{b}->{c}",
                    first_difference(induce_model(t_ac), model_atlas.composite(a, b, c)),
                )
            )
            extra.append(
                verdict(
                    f"hull functorial {a}->{b}->{c}",
                    first_difference(induce_hull(t_ac), hull_atlas.composite(a, b, c)),
                )
            )
    return report.merged(Report.of(extra))
