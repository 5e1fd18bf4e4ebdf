"""Acceptance gate: eleven structural criteria, all exact, one line each.

Every criterion prints a single PASS/FAIL line so a plain ``pytest -s``
doubles as a checklist.  All comparisons are exact rational equality; there
are no tolerances anywhere.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction as F
from pathlib import Path

from daffine import cli, dsl, suites
from daffine.atlas import (
    Atlas,
    cocycle_check,
    first_difference,
    induce_hull,
    induce_model,
    inverse,
    linearize,
    restrict_hull,
)
from daffine.double import (
    DecomposedDouble,
    DoubleAffine,
    DoublePoint,
    adjoint,
    aff1,
    aff2,
    classify_level_set,
    contains,
    flip,
    hd_eval,
    horizontal_dual,
    hull,
    hvh_iso,
    interchange_sides,
    model_vv,
    pairing,
    vd_eval,
    vertical_dual,
)
from daffine.exact import Mat, Vec
from daffine.naffine import GradedSpace, NAffine, bbl_n, side_base_duality_report, side_bases
from daffine.phase import (
    AFFCTG,
    BBL,
    CONTACT,
    PHASEP,
    OneForm,
    TrivialBispecial,
    affctg_double,
    afftg_and_duals,
    apply_adapted,
    beta,
    build,
    chi,
    iota,
    iota_inverse,
    is_adapted,
    kappa,
    lifts,
    tau,
    to_double_point,
)
from daffine.randgen import (
    nonzero_vec,
    point_on,
    rand_adapted,
    rand_cotangent,
    rand_double_affine,
    rand_dual_pair,
    rand_frac,
    rand_member,
    rand_transition,
    rand_vec,
    three_chart_atlas,
)

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num:2d}: {label}")
        raise
    print(f"PASS criterion {num:2d}: {label}")


def test_criterion_01_interchange_law():
    with criterion(1, "interchange law on 100 instances x 10 grids, exactly"):
        rng = random.Random(1001)
        for _ in range(100):
            a = rand_double_affine(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            d = a.space
            for _ in range(10):
                ys = [point_on(a.l1, rng) for _ in range(2)]
                zs = [point_on(a.l2, rng) for _ in range(2)]
                grid = [
                    [DoublePoint(d, ys[r], zs[c], rand_vec(rng, d.n3)) for c in range(2)]
                    for r in range(2)
                ]
                lam, mu = rand_frac(rng), rand_frac(rng)
                first, second = interchange_sides(
                    grid[0][0], grid[0][1], grid[1][0], grid[1][1], lam, mu
                )
                assert first == second
                assert contains(a, first)


def test_criterion_02_both_restricted_structures_agree():
    with criterion(2, "the two fiberwise combinations coincide on 50 shared fibers"):
        rng = random.Random(1002)
        for _ in range(50):
            a = rand_double_affine(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            d = a.space
            y, z = point_on(a.l1, rng), point_on(a.l2, rng)
            p = DoublePoint(d, y, z, rand_vec(rng, d.n3))
            q = DoublePoint(d, y, z, rand_vec(rng, d.n3))
            for _ in range(5):
                lam = rand_frac(rng)
                assert aff1(p, q, lam) == aff2(p, q, lam)


def test_criterion_03_hull_and_model_membership():
    with criterion(3, "hull/model membership matches the equations; hull restricts back"):
        rng = random.Random(1003)
        for _ in range(100):
            a = rand_double_affine(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            d = a.space
            assert hull(a).space == d
            md = model_vv(a)
            p = DoublePoint(d, rand_vec(rng, d.n1), rand_vec(rng, d.n2), rand_vec(rng, d.n3))
            assert contains(a, p) == (a.l1.dot(p.y) == 1 and a.l2.dot(p.z) == 1)
            assert md.contains(p) == (a.l1.dot(p.y) == 0 and a.l2.dot(p.z) == 0)
        for _ in range(20):
            dims = (rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2))
            t = rand_transition(rng, 2, *dims)
            atlas = Atlas(2, dims, ("u", "w"), (("u", "w", t), ("w", "u", inverse(t))))
            for _, _, tr in atlas.edges:
                th = induce_hull(tr)
                assert first_difference(restrict_hull(th, 1, 1), tr) is None
                assert first_difference(restrict_hull(th, 0, 0), induce_model(tr)) is None


def test_criterion_04_cocycles_are_functorial():
    with criterion(4, "20 three-chart atlases: induced cocycles pass, linearizations commute"):
        rng = random.Random(1004)
        for i in range(20):
            dims = (1, 1, 1) if i % 2 else (rng.randint(1, 2), rng.randint(1, 2), 1)
            atlas = three_chart_atlas(rng, m=2, dims=dims)
            assert cocycle_check(atlas).passed
            assert cocycle_check(atlas.mapped(induce_model)).passed
            assert cocycle_check(atlas.mapped(induce_hull)).passed
            for _, _, t in atlas.edges:
                assert first_difference(linearize(t, "side1"), linearize(t, "side2")) is None


def test_criterion_05_duality_pairing():
    with criterion(5, "pairing: interpolation independent, nondegenerate, unit shifts"):
        rng = random.Random(1005)
        for _ in range(100):
            a = rand_double_affine(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3))
            d = a.space
            dv, dh = vertical_dual(d), horizontal_dual(d)
            phi, psi = rand_dual_pair(rng, a)
            values = {
                vd_eval(phi, DoublePoint(d, phi.y, psi.z, Vec(F(t) for _ in range(d.n3))))
                - hd_eval(psi, DoublePoint(d, phi.y, psi.z, Vec(F(t) for _ in range(d.n3))))
                for t in (0, 1, -3)
            }
            assert len(values) == 1
            base = pairing(phi, psi, a)
            assert base == values.pop()
            assert pairing(phi.shift_core(a.l2), psi, a) == base + 1
            assert pairing(phi, psi.shift_core(-a.l1), a) == base + 1
            gamma = Vec.zero(d.n3)
            gram = Mat(
                [
                    [
                        pairing(
                            DoublePoint(dv, Vec.unit(d.n1, 0), gamma, Vec.unit(d.n2, i)),
                            DoublePoint(dh, gamma, Vec.unit(d.n2, j), Vec.zero(d.n1)),
                            a,
                        )
                        for j in range(d.n2)
                    ]
                    for i in range(d.n2)
                ]
            )
            assert gram.is_invertible()


def test_criterion_06_triple_dual_is_the_flipped_adjoint():
    with criterion(6, "triple dual: identity on sides, minus identity on the core"):
        rng = random.Random(1006)
        for n1 in (1, 2, 3):
            for n2 in (1, 2, 3):
                for n3 in (1, 2, 3):
                    a = rand_double_affine(rng, n1, n2, n3)
                    iso = hvh_iso(a)
                    target = adjoint(flip(a))
                    assert iso.dst == target.space
                    assert iso.alpha == Mat.identity(n2)
                    assert iso.beta == Mat.identity(n1)
                    assert iso.sigma == -Mat.identity(n3)
                    assert iso.sigma @ a.sigma == target.sigma


def test_criterion_07_level_set_verdicts():
    with criterion(7, "y*z = 1 is rejected with a witness; y + z + c = 1 is accepted"):
        d = DecomposedDouble(1, 1, 1)
        hyperbola = classify_level_set(d, [[0, 0, 0, 1, 0, 1]])
        assert not hyperbola.is_subbundle
        assert hyperbola.witness is not None
        assert hyperbola.witness.y == (F(0),)
        plane = classify_level_set(d, [[0, 1, 1, 0, 1, 1]])
        assert plane.is_subbundle
        assert plane.witness is None


def test_criterion_08_phase_tower():
    with criterion(8, "phase tower for m <= 2, n <= 3: flows, orbits, injection, pairing"):
        rng = random.Random(1008)
        for m in (0, 1, 2):
            for n in (1, 2, 3):
                e = TrivialBispecial(m, n)
                phasep = build(PHASEP, e)
                bigd = affctg_double(e)
                duald = vertical_dual(bigd)
                h = e.hull_dim
                for _ in range(10):
                    w = rand_cotangent(rng, e)
                    s, t = rand_frac(rng), rand_frac(rng)
                    assert lifts(chi(s, t, w)) == lifts(w)
                    member = rand_member(rng, build(BBL, e))
                    assert phasep.reduce(chi(s, t, member.point)) == phasep.reduce(member.point)
                    x, u = rand_vec(rng, m), rand_vec(rng, n)
                    p, mu = rand_vec(rng, m), rand_vec(rng, n)
                    img = iota(e, x, u, p, mu)
                    assert lifts(img) == (0, 0)
                    assert iota_inverse(img) == (x, u, p, mu)
                    free = rand_member(rng, build(AFFCTG, e))
                    zeroed = free.point.with_slot(("y", e.alpha_index), F(0)).with_slot(
                        ("pi", e.v_index), F(0)
                    )
                    w0 = build(AFFCTG, e).reduce(zeroed)
                    assert iota(e, *iota_inverse(w0)) == w0
                fixed_y = Vec.zero(h - 1)
                src = [DoublePoint(bigd, fixed_y, Vec.unit(h - 1, j), Vec.zero(m)) for j in range(h - 1)]
                src += [DoublePoint(bigd, fixed_y, Vec.zero(h - 1), Vec.unit(m, b)) for b in range(m)]
                dst = [DoublePoint(duald, fixed_y, Vec.unit(m, b), Vec.zero(h - 1)) for b in range(m)]
                dst += [DoublePoint(duald, fixed_y, Vec.zero(m), Vec.unit(h - 1, j)) for j in range(h - 1)]
                gram = Mat([[vd_eval(phi, x) for phi in dst] for x in src])
                assert gram.is_invertible()
                if m >= 1:
                    _, _, report = afftg_and_duals(e, OneForm(nonzero_vec(rng, m)))
                    assert report.passed


def test_criterion_09_tau_is_orbitwise_natural_and_kappa_reverses():
    with criterion(9, "tau survives 50 adapted changes; kappa sends (0, r) to (0, -r)"):
        rng = random.Random(1009)
        e = TrivialBispecial(2, 2)
        ps = build(CONTACT, e)
        dual_ps = build(CONTACT, e.dual_bundle())
        m = e.base_dim
        for _ in range(50):
            c = rand_member(rng, ps)
            mat = rand_adapted(rng, e)
            assert is_adapted(e, mat)
            assert apply_adapted(tau(c), mat) == tau(apply_adapted(c, mat))
            k = kappa(c)
            assert k == beta(tau(c))
            assert dual_ps.contains(k)
            r = rand_frac(rng)
            shifted = ps.reduce(c.point.with_slot(("y", e.v_index), c.point.y[e.v_index] + r))
            before = to_double_point(ps, shifted).c - to_double_point(ps, c).c
            after = to_double_point(dual_ps, kappa(shifted)).c - to_double_point(dual_ps, k).c
            assert before == Vec(tuple(F(0) for _ in range(m)) + (r,))
            assert after == Vec(tuple(F(0) for _ in range(m)) + (-r,))


def _rand_graded(rng, n, dims_choice):
    degrees = [
        tuple((mask >> k) & 1 for k in range(n)) for mask in range(1, 1 << n)
    ]
    dims = {deg: dims_choice(deg) for deg in degrees}
    space = GradedSpace(n, dims)
    funcs = tuple(
        nonzero_vec(rng, dims[tuple(1 if k == i else 0 for k in range(n))])
        for i in range(n)
    )
    sigma = nonzero_vec(rng, dims[(1,) * n])
    return NAffine(space, funcs, sigma)


def test_criterion_10_higher_side_bases_and_their_duals():
    with criterion(10, "orders 2 and 3: side bases recover the bundle and its duals"):
        rng = random.Random(1010)
        cases = []
        for bits in range(8):
            fixed = [(bits >> k) & 1 for k in range(3)]
            cases.append((2, lambda deg, f=fixed: 1 + f[sum(b << i for i, b in enumerate(deg)) % 3]))
        for _ in range(12):
            cases.append((3, lambda deg: rng.randint(1, 2)))
        for n, chooser in cases:
            a = _rand_graded(rng, n, chooser)
            sides = side_bases(bbl_n(a))
            assert sides[-1] == a
            report = side_base_duality_report(a, seed=7, trials=4)
            assert len(report.records) == 1 + n + n * (n - 1)
            assert report.passed, report.to_text()


def test_criterion_11_documents_round_trip_and_exit_codes(capsys):
    with criterion(11, "fixture corpus round-trips; reports deterministic; exit codes 0/1/2"):
        corpus = sorted(FIXTURES.glob("*.daff"))
        assert len(corpus) >= 8
        for path in corpus:
            if path.name == "parse_error.daff":
                continue
            doc = dsl.parse(path.read_text())
            assert dsl.parse(dsl.print_document(doc)) == doc
        for name, suite in (
            ("atlas_consistent.daff", "cocycle"),
            ("bundle_tower.daff", "phase-tower"),
            ("graded_pair.daff", "naffine"),
            ("special_double.daff", "duality-pairing"),
        ):
            doc = dsl.parse((FIXTURES / name).read_text())
            one = suites.run(doc, f"verify:{suite}", seed=5, trials=9).to_json()
            two = suites.run(doc, f"verify:{suite}", seed=5, trials=9).to_json()
            assert one == two
            assert json.loads(one)["passed"] is True
        assert cli.main(["check", str(FIXTURES / "minimal.daff")]) == 0
        assert cli.main(["verify", "--suite", "cocycle", str(FIXTURES / "atlas_perturbed.daff")]) == 1
        assert cli.main(["check", str(FIXTURES / "parse_error.daff")]) == 2
        capsys.readouterr()
