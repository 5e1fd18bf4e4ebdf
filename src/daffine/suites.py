"""Named verification suites and build commands over parsed documents.

Each verify suite replays one family of structural identities on the objects
a document declares, using seeded random trials, and returns a
:class:`~daffine.report.Report` that is bit-identical for a fixed
(document, command, seed, trials).  Build commands construct derived objects
and report their constraints and structure instead of checking anything
random.

Every suite and build op runs through ``_per_block``: it files each
applicable block's records under ``"<name>: "``, and with no applicable
block the report is one SKIP record saying what is missing.  The sampled
suites also share one law runner, ``_sampled``.  Each keeps a law table, the
names of the laws it samples in record order, and a trial: a generator that
draws from trial ``i``'s own ``random.Random`` and yields ``(law, witness)``
for each law that fails on its draws.  The runner plays the trials and gives
one record per law: PASS, or FAIL with ``k/N trials failed; first: <witness>``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import dsl
from .atlas import (
    Atlas,
    check_atlas_model_hull,
    cocycle_check,
    first_difference,
    linearize,
)
from .double import (
    DoublePoint,
    aff1,
    aff2,
    classify_level_set,
    contains,
    hd_eval,
    horizontal_dual,
    hull,
    hvh_chain,
    hvh_iso,
    interchange_sides,
    model_vv,
    pairing,
    vd_eval,
    vertical_dual,
)
from .errors import (
    DaffineError,
    UnknownOp,
    UnknownSuite,
)
from .exact import Mat, Vec, format_scalar
from .naffine import NAffine, bbl_n, side_base_duality_report, side_bases
from .phase import (
    AFFCTG,
    BBL,
    CONTACT,
    PHASEP,
    affctg_double,
    afftg_and_duals,
    apply_adapted,
    bbl_double_affine,
    beta,
    build as phase_set,
    chi,
    contact_double_affine,
    contact_tangent_pairing,
    from_double_point,
    iota,
    iota_inverse,
    kappa,
    lifts,
    phase_kappa,
    phasep_double_affine,
    tau,
    to_double_point,
    x_section,
)
from .randgen import (
    point_on,
    rand_adapted,
    rand_cotangent,
    rand_dual_pair,
    rand_frac,
    rand_member,
    rand_vec,
)
from .report import FAIL, PASS, SKIP, CheckRecord, Report, verdict

# The graded constructions enumerate all {0,1}^n degrees; the command line
# stops at order four to keep runs interactive.  The library itself is
# n-generic.
GRADED_ORDER_CAP = 4

Blocks = List[Tuple[str, object]]
Trial = Callable[[random.Random], Iterator[Tuple[str, str]]]


def _trial_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def _fmt_vec(v: Vec) -> str:
    return "[" + ", ".join(format_scalar(x) for x in v) + "]"


def _pick(objs: Dict[str, object], cls) -> Blocks:
    return [(name, obj) for name, obj in sorted(objs.items()) if isinstance(obj, cls)]


def _per_block(blocks: Blocks, missing: str, records_of: Callable[[object], Iterable[CheckRecord]]) -> Report:
    """Each block's records under "<name>: ", or one SKIP record giving what
    is missing when there are no blocks."""
    if not blocks:
        return Report.of([CheckRecord("no applicable blocks", SKIP, missing)])
    report = Report.of([])
    for name, block in blocks:
        report = report.merged(Report.of(records_of(block)), prefix=f"{name}: ")
    return report


def _tally(name: str, failures: int, trials: int, witness: Optional[str], seed: int) -> CheckRecord:
    if failures:
        return CheckRecord(name, FAIL, f"{failures}/{trials} trials failed; first: {witness}", seed)
    return CheckRecord(name, PASS, None, seed)


def _sampled(laws: Sequence[str], seed: int, trials: int, trial: Trial) -> List[CheckRecord]:
    """One record per law of the table, in its order, over ``trials`` seeded
    trials; a law's witness is the first it failed with."""
    failures = dict.fromkeys(laws, 0)
    first: Dict[str, str] = {}
    for i in range(trials):
        for law, witness in trial(_trial_rng(seed, i)):
            failures[law] += 1
            first[law] = first.get(law) or witness
    return [_tally(law, failures[law], trials, first.get(law), seed) for law in laws]


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

# Law tables.  A law needing structure a block may lack comes last, so the
# table's head is the table of a block without it.
_INTERCHANGE_LAWS = (
    "interchange law",
    "restricted combinations agree on core fibers",
    "combinations stay on the level set",  # blocks with affine structure
)
_MODEL_HULL_LAWS = (
    "hull membership matches the level equations",
    "model membership matches the homogeneous equations",
)
_DUALITY_LAWS = (
    "pairing is interpolation independent",
    "marked shifts move the pairing by one",  # special bundles
)
_PHASE_TOWER_LAWS = (
    "level functions are flow invariant",
    "projective classes absorb the flows",
    "model injection hits the zero levels",
    "every zero-level point is in the model image",
    "distinguished section pairs to one",
    "double decomposition round-trips",
)
_TAU_KAPPA_LAWS = (
    "tau is natural under adapted changes",
    "kappa lands in the dual contact set",
    "kappa reverses the marked core direction",
    "kappa descends to the projective sets",
    "beta is an involution",
)


def _grid_points(rng: random.Random, block: dsl.DoubleBlock):
    """A 2x2 grid sharing y along rows and z along columns, plus weights."""
    d = block.space
    if block.bundle is not None:
        ys = [point_on(block.bundle.l1, rng) for _ in range(2)]
        zs = [point_on(block.bundle.l2, rng) for _ in range(2)]
    else:
        ys = [rand_vec(rng, d.n1) for _ in range(2)]
        zs = [rand_vec(rng, d.n2) for _ in range(2)]
    grid = [
        [DoublePoint(d, ys[r], zs[c], rand_vec(rng, d.n3)) for c in range(2)]
        for r in range(2)
    ]
    return grid, rand_frac(rng), rand_frac(rng)


def suite_interchange(objs: Dict[str, object], seed: int, trials: int) -> Report:
    law, fiber, closure = _INTERCHANGE_LAWS

    def records_of(block):
        def trial(rng):
            grid, lam, mu = _grid_points(rng, block)
            first, second = interchange_sides(grid[0][0], grid[0][1], grid[1][0], grid[1][1], lam, mu)
            if first != second:
                yield law, f"orders disagree at lam={lam}, mu={mu}"
            if block.bundle is not None and not contains(block.bundle, first):
                yield closure, f"combination left the level set at lam={lam}, mu={mu}"
            p = grid[0][0]
            q = DoublePoint(block.space, p.y, p.z, rand_vec(rng, block.space.n3))
            if aff1(p, q, lam) != aff2(p, q, lam):
                yield fiber, f"core-fiber combinations differ at lam={lam}"

        laws = _INTERCHANGE_LAWS if block.bundle is not None else _INTERCHANGE_LAWS[:2]
        return _sampled(laws, seed, trials, trial)

    return _per_block(_pick(objs, dsl.DoubleBlock), "no double blocks", records_of)


def suite_model_hull(objs: Dict[str, object], seed: int, trials: int) -> Report:
    hull_law, model_law = _MODEL_HULL_LAWS

    def records_of(block):
        if isinstance(block, Atlas):
            return check_atlas_model_hull(block).records
        if block.bundle is None:
            return [CheckRecord("no affine structure", SKIP, "plain decomposed space")]
        a = block.bundle
        d = a.space
        md = model_vv(a)

        def trial(rng):
            p = DoublePoint(d, rand_vec(rng, d.n1), rand_vec(rng, d.n2), rand_vec(rng, d.n3))
            direct = a.l1.dot(p.y) == 1 and a.l2.dot(p.z) == 1
            if contains(a, p) != direct:
                yield hull_law, f"membership disagreed at y={_fmt_vec(p.y)}, z={_fmt_vec(p.z)}"
            homogeneous = a.l1.dot(p.y) == 0 and a.l2.dot(p.z) == 0
            if md.contains(p) != homogeneous:
                yield model_law, f"model membership disagreed at y={_fmt_vec(p.y)}"

        records = _sampled(_MODEL_HULL_LAWS, seed, trials, trial)
        basis_ok = (
            len(md.side1_basis) == d.n1 - 1
            and len(md.side2_basis) == d.n2 - 1
            and all(a.l1.dot(v) == 0 for v in md.side1_basis)
            and all(a.l2.dot(v) == 0 for v in md.side2_basis)
        )
        h = hull(a)
        return records + [
            verdict(
                "model side bases span the kernels",
                None if basis_ok else f"basis sizes {len(md.side1_basis)}, {len(md.side2_basis)}",
            ),
            verdict("hull is the ambient space", None if h.space == d else f"hull dims {h.space.dims}"),
        ]

    blocks = _pick(objs, dsl.DoubleBlock) + _pick(objs, Atlas)
    return _per_block(blocks, "no double or atlas blocks", records_of)


def suite_cocycle(objs: Dict[str, object], seed: int, trials: int) -> Report:
    def records_of(atlas):
        records = list(cocycle_check(atlas).records)
        for a, b, t in atlas.edges:
            diff = first_difference(linearize(t, "side1"), linearize(t, "side2"))
            records.append(verdict(f"partial linearizations commute {a}->{b}", diff))
        return records

    return _per_block(_pick(objs, Atlas), "no atlas blocks", records_of)


def _affine_blocks(objs: Dict[str, object]) -> Blocks:
    return [(n, b) for n, b in _pick(objs, dsl.DoubleBlock) if b.bundle is not None]


def suite_duality_pairing(objs: Dict[str, object], seed: int, trials: int) -> Report:
    independent, shifts = _DUALITY_LAWS

    def records_of(block):
        a = block.bundle
        d = a.space
        dv, dh = vertical_dual(d), horizontal_dual(d)
        cores = (Vec.zero(d.n3), Vec(range(1, d.n3 + 1)))

        def trial(rng):
            phi, psi = rand_dual_pair(rng, a)
            base = pairing(phi, psi, a)
            for core in cores:
                x = DoublePoint(d, phi.y, psi.z, core)
                value = vd_eval(phi, x) - hd_eval(psi, x)
                if value != base:
                    yield independent, (
                        f"pairing gave {format_scalar(base)}, phi(x) - psi(x) gave"
                        f" {format_scalar(value)} at core {_fmt_vec(core)}"
                    )
                    break
            if a.is_special and not (
                pairing(phi.shift_core(a.l2), psi, a) == base + 1
                and pairing(phi, psi.shift_core(-a.l1), a) == base + 1
            ):
                yield shifts, f"shift law broke at base value {format_scalar(base)}"

        records = _sampled(_DUALITY_LAWS if a.is_special else _DUALITY_LAWS[:1], seed, trials, trial)
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
        witness = None if gram.is_invertible() else f"gram rows {gram.rows}"
        return records + [verdict("pairing separates the dual bases", witness)]

    return _per_block(_affine_blocks(objs), "no double blocks with affine structure", records_of)


def suite_hvh(objs: Dict[str, object], seed: int, trials: int) -> Report:
    def records_of(block):
        a = block.bundle
        if not a.is_special:
            return [CheckRecord("needs a marked core vector", SKIP, "bundle is not special")]
        try:
            hvh_iso(a)
            chain = hvh_chain(a)
        except DaffineError as exc:
            return [CheckRecord("composite of the three duals is the flipped adjoint", FAIL, str(exc))]
        return [
            CheckRecord("composite of the three duals is the flipped adjoint", PASS),
            CheckRecord("chain dimensions", PASS, " -> ".join(str(s.space.dims) for s in chain)),
        ]

    return _per_block(_affine_blocks(objs), "no double blocks with affine structure", records_of)


def suite_phase_tower(objs: Dict[str, object], seed: int, trials: int) -> Report:
    invariant, orbit, injection, onto, pairs, round_trip = _PHASE_TOWER_LAWS

    def records_of(block):
        e = block.bundle
        phasep = phase_set(PHASEP, e)
        affctg = phase_set(AFFCTG, e)
        contact = phase_set(CONTACT, e)
        bblset = phase_set(BBL, e)

        def trial(rng):
            w = rand_cotangent(rng, e)
            s, t = rand_frac(rng), rand_frac(rng)
            if lifts(chi(s, t, w)) != lifts(w):
                yield invariant, f"levels moved under the flows at s={s}, t={t}"
            member = rand_member(rng, phasep)
            if phasep.reduce(chi(s, t, member.point)) != member:
                yield orbit, f"projective class split at s={s}, t={t}"
            x, u = rand_vec(rng, e.base_dim), rand_vec(rng, e.n)
            p, mu = rand_vec(rng, e.base_dim), rand_vec(rng, e.n)
            img = iota(e, x, u, p, mu)
            if lifts(img) != (0, 0) or iota_inverse(img) != (x, u, p, mu):
                yield injection, "model injection failed to invert"
            free = rand_member(rng, affctg)
            zeroed = free.point.with_slot(("y", e.alpha_index), Fraction(0)).with_slot(
                ("pi", e.v_index), Fraction(0)
            )
            w0 = affctg.reduce(zeroed)
            if iota(e, *iota_inverse(w0)) != w0:
                yield onto, "zero-level point missed by the model injection"
            c = rand_member(rng, contact)
            if contact_tangent_pairing(c, x_section(e, c.point.x, c.point.y)) != 1:
                yield pairs, "distinguished section did not pair to one"
            b = rand_member(rng, bblset)
            q = to_double_point(bblset, b)
            if from_double_point(bblset, q, b.point.x) != b:
                yield round_trip, "double decomposition did not round-trip"

        sampled = Report.of(_sampled(_PHASE_TOWER_LAWS, seed, trials, trial))
        if block.omega is None:
            return sampled.records
        _, _, dual_report = afftg_and_duals(e, block.omega)
        return sampled.merged(dual_report, prefix="dual tower: ").records

    return _per_block(_pick(objs, dsl.SpecialBundleBlock), "no special_bundle blocks", records_of)


def suite_tau_kappa(objs: Dict[str, object], seed: int, trials: int) -> Report:
    natural, lands, flips, descends, involution = _TAU_KAPPA_LAWS

    def records_of(block):
        e = block.bundle
        dual = e.dual_bundle()
        contact = phase_set(CONTACT, e)
        dual_contact = phase_set(CONTACT, dual)
        phasep = phase_set(PHASEP, e)
        dual_phasep = phase_set(PHASEP, dual)
        m = e.base_dim

        def trial(rng):
            c = rand_member(rng, contact)
            mat = rand_adapted(rng, e)
            if apply_adapted(tau(c), mat) != tau(apply_adapted(c, mat)):
                yield natural, "tau disagreed across an adapted basis change"
            k = kappa(c)
            if not dual_contact.contains(k):
                yield lands, "kappa left the dual contact set"
            r = rand_frac(rng)
            shifted = contact.reduce(c.point.with_slot(("y", e.v_index), c.point.y[e.v_index] + r))
            q1 = to_double_point(dual_contact, k)
            q2 = to_double_point(dual_contact, kappa(shifted))
            delta = Vec(tuple(Fraction(0) for _ in range(m)) + (-r,))
            if q2.y != q1.y or q2.z != q1.z or q2.c - q1.c != delta:
                yield flips, f"core moved by {_fmt_vec(q2.c - q1.c)} instead of {_fmt_vec(delta)}"
            if phase_kappa(phasep.reduce(c)) != dual_phasep.reduce(k):
                yield descends, "kappa did not descend to the projective sets"
            w = rand_cotangent(rng, e)
            if beta(beta(w)) != w:
                yield involution, "beta failed to be an involution"

        return _sampled(_TAU_KAPPA_LAWS, seed, trials, trial)

    return _per_block(_pick(objs, dsl.SpecialBundleBlock), "no special_bundle blocks", records_of)


def suite_naffine(objs: Dict[str, object], seed: int, trials: int) -> Report:
    def records_of(a):
        if a.space.n > GRADED_ORDER_CAP:
            return [CheckRecord("order above the command-line cap", SKIP, f"order {a.space.n}")]
        if not a.is_special:
            return [CheckRecord("needs a marked section", SKIP, "graded block has no sigma")]
        return side_base_duality_report(a, seed=seed, trials=min(trials, 20)).records

    return _per_block(_pick(objs, NAffine), "no graded or space blocks", records_of)


SUITES: Dict[str, Callable[[Dict[str, object], int, int], Report]] = {
    "interchange": suite_interchange,
    "model-hull": suite_model_hull,
    "cocycle": suite_cocycle,
    "duality-pairing": suite_duality_pairing,
    "hvh": suite_hvh,
    "phase-tower": suite_phase_tower,
    "tau-kappa": suite_tau_kappa,
    "naffine": suite_naffine,
}
SUITE_NAMES = tuple(SUITES)


# ---------------------------------------------------------------------------
# check and build
# ---------------------------------------------------------------------------


def _describe(kind: str, obj: object) -> str:
    if kind == "space":
        return f"hull dim {obj.space.total_dim}"
    if isinstance(obj, dsl.DoubleBlock):
        bits = [f"dims {obj.space.dims}"]
        if obj.bundle is not None:
            bits.append("special" if obj.bundle.is_special else "affine")
        if obj.constraints is not None:
            bits.append(f"{len(obj.constraints)} constraint rows")
        return ", ".join(bits)
    if isinstance(obj, dsl.SpecialBundleBlock):
        e = obj.bundle
        tail = ", with base covector" if obj.omega is not None else ""
        return f"base dim {e.base_dim}, fiber hull dim {e.hull_dim}{tail}"
    if isinstance(obj, NAffine):
        mark = "marked" if obj.is_special else "unmarked"
        return f"order {obj.space.n}, total dim {obj.space.total_dim}, {mark}"
    if isinstance(obj, Atlas):
        return f"base dim {obj.base_dim}, fibers {tuple(obj.fiber_dims)}, charts {len(obj.charts)}"
    return type(obj).__name__


def _check(doc: dsl.Document, objs: Dict[str, object]) -> Report:
    records = [
        CheckRecord(f"{b.kind} {b.name}", PASS, _describe(b.kind, objs[b.name])) for b in doc.blocks
    ]
    if not records:
        records.append(CheckRecord("empty document", PASS, "nothing to elaborate"))
    return Report.of(records)


def _build_affine(label: str, describe: Callable, objs: Dict[str, object], seed: int) -> Report:
    def records_of(block):
        if block.bundle is None:
            return [CheckRecord(label, SKIP, "no affine structure")]
        return [CheckRecord(label, PASS, describe(block.bundle))]

    return _per_block(_pick(objs, dsl.DoubleBlock), "no double blocks", records_of)


def _hull_structure(a) -> str:
    h = hull(a)
    return f"ambient dims {h.space.dims}; level functions l1 = {_fmt_vec(h.l1)}, l2 = {_fmt_vec(h.l2)} at value 1"


def _model_structure(a) -> str:
    md = model_vv(a)
    return (
        f"constraints l1 = 0 and l2 = 0; dims {md.dims}; side basis sizes "
        f"({len(md.side1_basis)}, {len(md.side2_basis)})"
    )


def _build_classify(objs: Dict[str, object], seed: int) -> Report:
    def records_of(block):
        if block.constraints is None:
            return [CheckRecord("classification", SKIP, "no constraint rows")]
        cls = classify_level_set(block.space, block.constraints)
        verdict_text = "a double affine subbundle" if cls.is_subbundle else "not a double affine subbundle"
        witness = f"{verdict_text}: {cls.reason}"
        if cls.witness is not None:
            parts = [
                f"{label} = {_fmt_vec(val)}"
                for label, val in (("y", cls.witness.y), ("z", cls.witness.z))
                if val is not None
            ]
            witness += "; witness " + ", ".join(parts)
        return [CheckRecord("classification", PASS, witness)]

    return _per_block(_pick(objs, dsl.DoubleBlock), "no double blocks", records_of)


def _build_phase(op: str, kind: str, structure: Optional[Callable], objs: Dict[str, object], seed: int) -> Report:
    """One phase set per special bundle: its mask, constraints and double
    structure (``structure(block)``, or plain decomposed when None)."""

    def records_of(block):
        e = block.bundle
        ps = phase_set(kind, e)
        mask = ", ".join(f"{s}[{i}]" for s, i in sorted(ps.mask)) or "none"
        cons = "; ".join(f"{s}[{i}] = {format_scalar(v)}" for (s, i), v in ps.constraints) or "none"
        if structure is None:
            shape = f"plain decomposed space, dims {affctg_double(e).dims}"
        else:
            a = structure(block)
            shape = f"dims {a.space.dims}, l1 = {_fmt_vec(a.l1)}, l2 = {_fmt_vec(a.l2)}"
            if a.sigma is not None:
                shape += f", sigma = {_fmt_vec(a.sigma)}"
        return [
            CheckRecord(f"{op} mask", PASS, mask),
            CheckRecord(f"{op} constraints", PASS, cons),
            CheckRecord(f"{op} double structure", PASS, shape),
        ]

    return _per_block(_pick(objs, dsl.SpecialBundleBlock), "no special_bundle blocks", records_of)


def _build_tbar(objs: Dict[str, object], seed: int) -> Report:
    def records_of(block):
        e = block.bundle
        witness = None
        for i in range(5):
            rng = _trial_rng(seed, i)
            c = rand_member(rng, phase_set(CONTACT, e))
            if contact_tangent_pairing(c, x_section(e, c.point.x, c.point.y)) != 1:
                witness = "distinguished section did not pair to one"
                break
        return [
            CheckRecord(
                "tbar structure",
                PASS,
                f"tangent classes over base dim {e.base_dim}, hull dim {e.hull_dim}; "
                "orbit invariant stored in the velocity v-slot",
            ),
            verdict("tbar distinguished section pairs to one", witness),
        ]

    return _per_block(_pick(objs, dsl.SpecialBundleBlock), "no special_bundle blocks", records_of)


def _build_graded(label: str, records_of_big: Callable, objs: Dict[str, object], seed: int) -> Report:
    """Records of the big bundle of each marked graded block within the cap."""

    def records_of(a):
        if a.space.n > GRADED_ORDER_CAP:
            return [CheckRecord(label, SKIP, f"order {a.space.n} above the command-line cap")]
        if not a.is_special:
            return [CheckRecord(label, SKIP, "graded block has no sigma")]
        return records_of_big(bbl_n(a))

    return _per_block(_pick(objs, NAffine), "no graded or space blocks", records_of)


def _big_bundle_records(big: NAffine) -> List[CheckRecord]:
    comp = ", ".join("".join(map(str, deg)) + f":{big.space.dim_of(deg)}" for deg in big.space.degrees())
    return [
        CheckRecord(
            "big bundle",
            PASS,
            f"order {big.space.n}, components {comp}, {len(big.functionals)} level functions",
        )
    ]


def _side_base_records(big: NAffine) -> List[CheckRecord]:
    records = []
    for k, side in enumerate(side_bases(big)):
        mark = "marked" if side.is_special else "unmarked"
        detail = f"order {side.space.n}, total dim {side.space.total_dim}, {mark}"
        records.append(CheckRecord(f"side base {k + 1}", PASS, detail))
    return records


BUILDS: Dict[str, Callable[[Dict[str, object], int], Report]] = {
    "hull": partial(_build_affine, "hull", _hull_structure),
    "model": partial(_build_affine, "model", _model_structure),
    "classify": _build_classify,
    "phase": partial(_build_phase, "phase", PHASEP, lambda b: phasep_double_affine(b.bundle, b.omega)),
    "contact": partial(_build_phase, "contact", CONTACT, lambda b: contact_double_affine(b.bundle)),
    "bbl": partial(_build_phase, "bbl", BBL, lambda b: bbl_double_affine(b.bundle)),
    "affctg": partial(_build_phase, "affctg", AFFCTG, None),
    "tbar": _build_tbar,
    "bbln": partial(_build_graded, "big bundle", _big_bundle_records),
    "sides": partial(_build_graded, "side bases", _side_base_records),
}
BUILD_OPS = tuple(BUILDS)


def run(doc: dsl.Document, command: str, seed: int = 0, trials: int = 100) -> Report:
    """Execute a command against a parsed document and return its report.

    Commands are ``check``, ``build:<op>``, or ``verify:<suite>``.
    """
    objs = dsl.elaborate(doc)
    if command == "check":
        return _check(doc, objs)
    if command.startswith("build:"):
        op = command[len("build:"):]
        if op not in BUILDS:
            raise UnknownOp(f"unknown build op {op!r}; choose from {', '.join(BUILD_OPS)}")
        return BUILDS[op](objs, seed)
    if command.startswith("verify:"):
        suite = command[len("verify:"):]
        if suite not in SUITES:
            raise UnknownSuite(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
        if trials < 1:
            raise DaffineError(f"trials must be at least 1, got {trials}")
        return SUITES[suite](objs, seed, trials)
    raise DaffineError(f"unknown command {command!r}")
