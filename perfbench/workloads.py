"""Seeded `.daff` documents and `daff` command lists with known answers.

Every command carries the exit code it must return and, for a perturbed
atlas, the edge its report must name.  Both come from how the input was
built, never from a report the program produced.

``lib`` is a namespace holding the imported ``daffine`` modules, so a caller
can re-import the package between builds.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple

WORKLOADS = ("atlas-glue", "pointwise-laws", "doc-frontend")

# atlas-glue: (fiber dims, atlases, (suite, run on every k-th atlas of the row)).
# Base dim is 2.  model-hull runs at (1,1,1) only: at (2,1,1) it costs 3.6-5.3 s
# a command and at (2,2,1) about 27 s.  cocycle runs on every fourth (1,1,1)
# atlas, so that about as many commands are cheaper than model-hull(1,1,1) as
# dearer, and the median command is the middle of that 32-strong class.
ATLAS_MIX = (
    ((1, 1, 1), 32, (("cocycle", 4), ("model-hull", 1))),
    ((2, 1, 1), 6, (("cocycle", 1),)),
    ((2, 2, 1), 1, (("cocycle", 1),)),
)
# One random (2,2,1) cocycle takes 2 to 5.5 s, which alone would spread the
# pass time by more than any bound; that atlas is the same for every seed.
SEED_FREE_DIMS = ((2, 2, 1),)
PERTURB_EVERY = 4  # atlases 1, 5, 9, ... carry one perturbed gamma00 constant

# pointwise-laws: every document of a kind holds the same blocks, so the
# commands of one suite form a class of near-equal cost.  tau-kappa is the
# dearest class; with 18 of its commands the tail percentile (10 commands
# beyond it) lands in the middle of that class instead of on a class boundary.
# Each entry: (dims, marked), (m, n, with omega) or graded order.
POINTWISE_DOUBLES = (((2, 3, 2), True), ((3, 2, 2), True), ((1, 3, 2), False))
POINTWISE_BUNDLES = ((1, 3, True), (2, 1, False))
GRADED_ORDERS = (2, 3)
POINTWISE_KINDS = (  # (document stem, documents, suites)
    ("double", 9, ("interchange", "duality-pairing", "hvh")),
    ("bundle", 18, ("phase-tower", "tau-kappa")),
    ("graded", 9, ("naffine",)),
)

# doc-frontend: documents per pass; the last two are malformed.  Each document
# holds FRONTEND_COPIES copies of a block list covering every block kind.
FRONTEND_DOUBLE_DIMS = ((1, 1, 1), (2, 2, 1), (2, 3, 2), (3, 2, 2), (1, 3, 2), (3, 3, 3))
FRONTEND_BUNDLE_DIMS = ((1, 1), (2, 1), (2, 2), (3, 2))
FRONTEND_DOCS = 5
TRUNCATED_DOC = f"frontend{FRONTEND_DOCS - 2}.daff"  # cut inside its last block
BROKEN_DOC = f"frontend{FRONTEND_DOCS - 1}.daff"  # parses, but cannot elaborate
FRONTEND_BUILD_OPS = ("hull", "model", "classify", "phase", "contact", "bbl", "affctg", "tbar", "bbln", "sides")
FRONTEND_ARGS = tuple(
    command + ("--format", fmt)
    for command in [("check",)] + [("build", "--op", op) for op in FRONTEND_BUILD_OPS]
    for fmt in ("text", "json")
)
FRONTEND_COPIES = 2
HIGH_DEGREE = 7  # total degree of the polynomial entries of the frontend atlas


class Command(NamedTuple):
    argv: Tuple[str, ...]  # daff arguments, the document path last
    expect: int  # the exit code the command must return
    edge: Optional[Tuple[str, str]] = None  # perturbed edge the report must name


def build(lib, workload: str, seed: int, workdir: Path) -> List[Command]:
    """Generate the workload's documents into ``workdir``; return its commands."""
    if workload == "atlas-glue":
        docs, commands = _atlas_glue(lib, seed)
    elif workload == "pointwise-laws":
        docs, commands = _pointwise_laws(lib, seed)
    elif workload == "doc-frontend":
        docs, commands = _doc_frontend(lib, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for name, text in docs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    return [c._replace(argv=c.argv[:-1] + (str(workdir / c.argv[-1]),)) for c in commands]


def _rng(seed, stream: str, i: int) -> random.Random:
    return random.Random(f"{seed}/{stream}/{i}")


def _print(lib, blocks) -> str:
    return lib.dsl.print_document(lib.dsl.Document(tuple(blocks)))


# ---------------------------------------------------------------------------
# atlas-glue
# ---------------------------------------------------------------------------


def _perturb(lib, atlas, rng: random.Random):
    """The atlas with one gamma00 constant shifted on one edge, and that edge."""
    k = rng.randrange(len(atlas.edges))
    src, dst, t = atlas.edges[k]
    i = rng.randrange(len(t.gamma00))
    shift = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
    gamma00 = list(t.gamma00)
    gamma00[i] = gamma00[i] + shift
    edges = list(atlas.edges)
    edges[k] = (src, dst, dataclasses.replace(t, gamma00=lib.exact.Vec(gamma00)))
    return lib.atlas.Atlas(atlas.base_dim, atlas.fiber_dims, atlas.charts, tuple(edges)), (src, dst)


def _atlas_glue(lib, seed: int):
    docs, commands = {}, []
    index = 0
    for dims, count, suites in ATLAS_MIX:
        for k in range(count):
            rng = _rng("fixed" if dims in SEED_FREE_DIMS else seed, "atlas", index)
            atlas = lib.randgen.three_chart_atlas(rng, 2, dims)
            edge = None
            if index % PERTURB_EVERY == 1:
                atlas, edge = _perturb(lib, atlas, rng)
            name = f"atlas{index:02d}.daff"
            docs[name] = _print(lib, [lib.dsl.block_from_atlas("tri", atlas)])
            commands.extend(
                Command(("verify", "--suite", suite, "--format", "text", name), 0 if edge is None else 1, edge)
                for suite, every in suites
                if k % every == 0
            )
            index += 1
    return docs, commands


# ---------------------------------------------------------------------------
# pointwise-laws
# ---------------------------------------------------------------------------


def _pointwise_blocks(lib, stem: str, rng: random.Random):
    dsl, randgen, phase = lib.dsl, lib.randgen, lib.phase
    if stem == "double":
        blocks = []
        for j, (dims, marked) in enumerate(POINTWISE_DOUBLES):
            bundle = randgen.rand_double_affine(rng, *dims, special=marked)
            blocks.append(dsl.block_from_double(f"d{j}", bundle.space, bundle))
        return blocks
    if stem == "bundle":
        return [
            dsl.block_from_special_bundle(
                f"e{j}", phase.TrivialBispecial(m, n), phase.OneForm(randgen.nonzero_vec(rng, m)) if omega else None
            )
            for j, (m, n, omega) in enumerate(POINTWISE_BUNDLES)
        ]
    return [dsl.block_from_graded(f"g{n}", randgen.rand_naffine(rng, n)) for n in GRADED_ORDERS]


def _pointwise_laws(lib, seed: int):
    docs, commands = {}, []
    for stem, count, suites in POINTWISE_KINDS:
        for i in range(count):
            name = f"{stem}{i:02d}.daff"
            docs[name] = _print(lib, _pointwise_blocks(lib, stem, _rng(seed, stem, i)))
            verify_seed = str(seed % 1_000_000 + i)
            commands.extend(Command(("verify", "--suite", suite, "--seed", verify_seed, name), 0) for suite in suites)
    return docs, commands


# ---------------------------------------------------------------------------
# doc-frontend
# ---------------------------------------------------------------------------


def _rand_rows(rng: random.Random, dims, count: int):
    n1, n2, n3 = dims
    width = 1 + n1 + n2 + n1 * n2 + n3 + 1
    return tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(width)) for _ in range(count))


def _high_degree_transition(lib, rng: random.Random, m: int, dims):
    """A transition whose shift blocks are dense polynomials of high degree."""
    randgen, exact = lib.randgen, lib.exact
    n1, n2, n3 = dims

    def poly():
        p = randgen.rand_poly(rng, m, HIGH_DEGREE)
        for _ in range(3):
            p = p + randgen.rand_poly(rng, m, HIGH_DEGREE)
        return p

    return lib.atlas.TransitionData(
        base_map=randgen.rand_base_map(rng, m),
        alpha0=exact.Vec(poly() for _ in range(n1)),
        alpha=randgen.unit_det_mat(rng, m, n1),
        beta0=exact.Vec(poly() for _ in range(n2)),
        beta=randgen.unit_det_mat(rng, m, n2),
        gamma00=exact.Vec(poly() for _ in range(n3)),
        gamma_y=exact.Mat(tuple(tuple(poly() for _ in range(n1)) for _ in range(n3))),
        gamma_z=exact.Mat(tuple(tuple(poly() for _ in range(n2)) for _ in range(n3))),
        gamma_yz=exact.Bilinear(
            tuple(tuple(tuple(poly() for _ in range(n2)) for _ in range(n1)) for _ in range(n3))
        ),
        sigma=randgen.unit_det_mat(rng, m, n3),
        samples=(),
    )


def _frontend_blocks(lib, rng: random.Random, copy: int):
    dsl, randgen, phase = lib.dsl, lib.randgen, lib.phase
    blocks = []
    for j, dims in enumerate(FRONTEND_DOUBLE_DIMS):
        bundle = randgen.rand_double_affine(rng, *dims, special=j % 2 == 0)
        rows = _rand_rows(rng, dims, 1 + j % 2) if j < 4 else None
        blocks.append(dsl.block_from_double(f"d{copy}{j}", bundle.space, bundle, rows))
    for j, (m, n) in enumerate(FRONTEND_BUNDLE_DIMS):
        omega = phase.OneForm(randgen.nonzero_vec(rng, m)) if j % 2 == 0 else None
        blocks.append(dsl.block_from_special_bundle(f"e{copy}{j}", phase.TrivialBispecial(m, n), omega))
    for n in GRADED_ORDERS:
        blocks.append(dsl.block_from_graded(f"g{copy}{n}", randgen.rand_naffine(rng, n)))
    for j in range(2):
        blocks.append(dsl.block_from_atlas(f"glued{copy}{j}", randgen.three_chart_atlas(rng, 2, (1, 1, 1))))
    dims = (2, 2, 2)
    edges = tuple(
        (a, b, _high_degree_transition(lib, rng, 2, dims)) for a, b in (("a", "b"), ("a", "c"), ("b", "c"))
    )
    blocks.append(dsl.block_from_atlas(f"dense{copy}", lib.atlas.Atlas(2, dims, ("a", "b", "c"), edges)))
    return blocks


def _truncate_inside_last_block(text: str, rng: random.Random) -> str:
    """Cut the text strictly inside the last block, so it can never parse."""
    start = text.rindex("{") + 1
    end = text.rindex("}")
    return text[: rng.randrange(start, end)]


def _break_double_block(text: str) -> str:
    """Give the first double block an ``l1`` one entry too long: well formed, but
    elaboration must reject it."""
    head = text.index("double d00 {")
    at = text.index("l1 = [", head) + len("l1 = [")
    return text[:at] + "1, " + text[at:]


def _doc_frontend(lib, seed: int):
    docs, commands = {}, []
    for i in range(FRONTEND_DOCS):
        rng = _rng(seed, "frontend", i)
        name = f"frontend{i}.daff"
        blocks = [b for copy in range(FRONTEND_COPIES) for b in _frontend_blocks(lib, rng, copy)]
        text = _print(lib, blocks)
        expect = 0
        if name == TRUNCATED_DOC:
            text, expect = _truncate_inside_last_block(text, rng), 2
        elif name == BROKEN_DOC:
            text, expect = _break_double_block(text), 2
        docs[name] = text
        commands.extend(Command(args + (name,), expect) for args in FRONTEND_ARGS)
    return docs, commands
