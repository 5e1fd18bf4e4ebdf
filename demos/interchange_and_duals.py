"""Tour of a single double affine instance: combinations, duals, pairing.

Run with ``python3 demos/interchange_and_duals.py``.
"""

import random
from fractions import Fraction

from daffine.exact import Mat
from daffine.double import (
    DoublePoint,
    adjoint,
    aff1,
    aff2,
    flip,
    horizontal_dual,
    hull,
    hvh_iso,
    interchange_sides,
    model_vv,
    pairing,
    vertical_dual,
)
from daffine.randgen import point_on, rand_double_affine, rand_vec

rng = random.Random(42)

# A marked instance with sides of dimension 2 and 3 and a 2-dimensional core.
a = rand_double_affine(rng, 2, 3, 2)
d = a.space


def fmt(v):
    return "[" + ", ".join(str(x) for x in v) + "]"


print("instance dims:", d.dims)
print("l1 =", fmt(a.l1), " l2 =", fmt(a.l2), " sigma =", fmt(a.sigma))

# Interchange: combining first inside the y-fibers and then inside the
# z-fibers gives the same point as the other way around.
ys = [point_on(a.l1, rng) for _ in range(2)]
zs = [point_on(a.l2, rng) for _ in range(2)]
grid = [[DoublePoint(d, y, z, rand_vec(rng, d.n3)) for z in zs] for y in ys]
lam, mu = Fraction(2, 3), Fraction(-1, 2)
first, second = interchange_sides(grid[0][0], grid[0][1], grid[1][0], grid[1][1], lam, mu)
print("\ninterchange orders agree:", first == second)

# On a shared fiber (same y and same z) the two restricted combinations are
# literally the same operation.
p = DoublePoint(d, ys[0], zs[0], rand_vec(rng, d.n3))
q = DoublePoint(d, ys[0], zs[0], rand_vec(rng, d.n3))
print("core-fiber combinations agree:", aff1(p, q, lam) == aff2(p, q, lam))

# The hull is the ambient decomposed space; the model is cut out by the
# homogeneous versions of the two level equations.
md = model_vv(a)
print("\nhull dims:", hull(a).space.dims)
print("model dims:", md.dims, " basis sizes:", len(md.side1_basis), len(md.side2_basis))

# Duality: a vertical-dual point pairs with a horizontal-dual point over a
# shared core covector, independently of the interpolation point used.
cov = point_on(a.sigma, rng)
phi = DoublePoint(vertical_dual(d), point_on(a.l1, rng), cov, rand_vec(rng, d.n2))
psi = DoublePoint(horizontal_dual(d), cov, point_on(a.l2, rng), rand_vec(rng, d.n1))
base = pairing(phi, psi, a)
print("\npairing value:", base)
print("shift phi by l2:", pairing(phi.shift_core(a.l2), psi, a), "(= value + 1)")
print("shift psi by -l1:", pairing(phi, psi.shift_core(-a.l1), a), "(= value + 1)")

# Iterating horizontal, vertical, horizontal duals comes back to the flipped
# instance with the opposite marked vector; the comparison is the identity on
# both sides and minus the identity on the core.
iso = hvh_iso(a)
target = adjoint(flip(a))
print("\ntriple dual side blocks are identities:",
      iso.alpha == Mat.identity(d.n2) and iso.beta == Mat.identity(d.n1))
print("core block is minus the identity:",
      iso.sigma == Mat.identity(d.n3).scale(-1))
print("target marked vector:", fmt(target.sigma), "= -sigma")
