"""The FAIL record of every sampled law, and its exit code.

Each case breaks one law by swapping a law function, as ``daffine.suites``
binds it, for one that gives a wrong value on some of its calls.  The FAIL
lines of the text report, ``k/N trials failed; first: <witness>``, are
pinned, so the count, the first witness and the seed of every sampled law
stay what they are.
"""

import dataclasses
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from daffine import cli, suites
from daffine.phase import chi

FIXTURES = Path(__file__).parent / "fixtures"
TRIALS = 6


def _sometimes(name, wrong, period, hits):
    """``suites.<name>`` with its value replaced by ``wrong(value, *args)``
    on the calls whose index modulo ``period`` is in ``hits``."""
    original = getattr(suites, name)
    calls = itertools.count()

    def mutant(*args):
        value = original(*args)
        return wrong(value, *args) if next(calls) % period in hits else value

    return {name: mutant}


class _Flipped:
    """A model or phase set whose membership test is negated on the calls
    whose index modulo ``period`` is in ``hits``; everything else is kept."""

    def __init__(self, inner, period=1, hits=(0,)):
        self.inner, self.period, self.hits = inner, period, hits
        self.calls = itertools.count()

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def contains(self, p):
        return self.inner.contains(p) != (next(self.calls) % self.period in self.hits)


# (id, suite, fixture, patches, FAIL lines of the text report, the
# closing "FAILED (n checks)" included)
CASES = [
    (
        "interchange law",
        "interchange",
        "special_double.daff",
        lambda: _sometimes("interchange_sides", lambda v, *a: (v[0], None), 3, {1}),
        [
            "FAIL bare: interchange law [seed 0] -- 2/6 trials failed; first: orders disagree at lam=-6, mu=4",
            "FAIL wide: interchange law [seed 0] -- 2/6 trials failed; first: orders disagree at lam=0, mu=0",
            "FAILED (5 checks)",
        ],
    ),
    (
        "restricted combinations",
        "interchange",
        "special_double.daff",
        lambda: _sometimes("aff2", lambda v, p, q, lam: suites.aff1(p, q, lam + 1), 4, {0, 3}),
        [
            "FAIL bare: restricted combinations agree on core fibers [seed 0] -- 3/6 trials failed; first: core-fiber combinations differ at lam=5",
            "FAIL wide: restricted combinations agree on core fibers [seed 0] -- 3/6 trials failed; first: core-fiber combinations differ at lam=0",
            "FAILED (5 checks)",
        ],
    ),
    (
        "level-set closure",
        "interchange",
        "special_double.daff",
        lambda: _sometimes("contains", lambda v, *a: not v, 5, {2}),
        [
            "FAIL wide: combinations stay on the level set [seed 0] -- 1/6 trials failed; first: combination left the level set at lam=1, mu=-3/2",
            "FAILED (5 checks)",
        ],
    ),
    (
        "hull membership",
        "model-hull",
        "special_double.daff",
        lambda: _sometimes("contains", lambda v, *a: not v, 4, {1}),
        [
            "FAIL wide: hull membership matches the level equations [seed 0] -- 2/6 trials failed; first: membership disagreed at y=[-4, -2], z=[1/4, 1/4, 3]",
            "FAILED (5 checks)",
        ],
    ),
    (
        "model membership",
        "model-hull",
        "special_double.daff",
        # the model is built once per block; its membership test is negated
        # on every third trial
        lambda: _sometimes("model_vv", lambda v, *a: _Flipped(v, 3, {0}), 1, {0}),
        [
            "FAIL wide: model membership matches the homogeneous equations [seed 0] -- 2/6 trials failed; first: model membership disagreed at y=[0, -2]",
            "FAILED (5 checks)",
        ],
    ),
    (
        "interpolation independence",
        "duality-pairing",
        "minimal.daff",
        # vd_eval is called at core zero, then at a non-zero core; the second
        # call of every second trial drops the core term
        lambda: _sometimes("vd_eval", lambda v, phi, x: v - phi.z.dot(x.c), 4, {3}),
        [
            "FAIL A: pairing is interpolation independent [seed 0] -- 3/6 trials failed; first: pairing gave -2, phi(x) - psi(x) gave -3 at core [1]",
            "FAILED (3 checks)",
        ],
    ),
    (
        "marked shifts",
        "duality-pairing",
        "minimal.daff",
        lambda: _sometimes("pairing", lambda v, *a: v + Fraction(1, 2), 4, {1}),
        [
            "FAIL A: marked shifts move the pairing by one [seed 0] -- 4/6 trials failed; first: shift law broke at base value 2",
            # the two trials whose base value is the wrong one
            "FAIL A: pairing is interpolation independent [seed 0] -- 2/6 trials failed; first: pairing gave -23/6, phi(x) - psi(x) gave -13/3 at core [0]",
            "FAILED (3 checks)",
        ],
    ),
    (
        "flow invariance",
        "phase-tower",
        "bundle_tower.daff",
        lambda: _sometimes("lifts", lambda v, *a: (v[0] + 1, v[1]), 6, {1}),
        [
            "FAIL plane: level functions are flow invariant [seed 0] -- 3/6 trials failed; first: levels moved under the flows at s=5, t=4/3",
            "FAIL slim: level functions are flow invariant [seed 0] -- 3/6 trials failed; first: levels moved under the flows at s=6, t=1",
            "FAILED (17 checks)",
        ],
    ),
    (
        "projective classes",
        "phase-tower",
        "bundle_tower.daff",
        lambda: _sometimes("chi", lambda v, *a: dataclasses.replace(v, p=v.p + v.p), 4, {3}),
        [
            "FAIL plane: projective classes absorb the flows [seed 0] -- 3/6 trials failed; first: projective class split at s=-6, t=4",
            "FAIL slim: projective classes absorb the flows [seed 0] -- 2/6 trials failed; first: projective class split at s=0, t=-3/2",
            "FAILED (17 checks)",
        ],
    ),
    (
        "model injection",
        "phase-tower",
        "bundle_tower.daff",
        lambda: _sometimes("iota_inverse", lambda v, *a: (v[2], v[1], v[0], v[3]), 4, {0}),
        [
            "FAIL plane: model injection hits the zero levels [seed 0] -- 3/6 trials failed; first: model injection failed to invert",
            "FAIL slim: model injection hits the zero levels [seed 0] -- 3/6 trials failed; first: model injection failed to invert",
            "FAILED (17 checks)",
        ],
    ),
    (
        "model image",
        "phase-tower",
        "bundle_tower.daff",
        lambda: _sometimes("iota_inverse", lambda v, *a: (v[2], v[1], v[0], v[3]), 4, {3}),
        [
            "FAIL plane: every zero-level point is in the model image [seed 0] -- 3/6 trials failed; first: zero-level point missed by the model injection",
            "FAIL slim: every zero-level point is in the model image [seed 0] -- 3/6 trials failed; first: zero-level point missed by the model injection",
            "FAILED (17 checks)",
        ],
    ),
    (
        "distinguished section",
        "phase-tower",
        "bundle_tower.daff",
        lambda: _sometimes("contact_tangent_pairing", lambda v, *a: v + 1, 3, {2}),
        [
            "FAIL plane: distinguished section pairs to one [seed 0] -- 2/6 trials failed; first: distinguished section did not pair to one",
            "FAIL slim: distinguished section pairs to one [seed 0] -- 2/6 trials failed; first: distinguished section did not pair to one",
            "FAILED (17 checks)",
        ],
    ),
    (
        "double decomposition",
        "phase-tower",
        "bundle_tower.daff",
        lambda: _sometimes("from_double_point", lambda v, *a: None, 5, {0, 4}),
        [
            "FAIL plane: double decomposition round-trips [seed 0] -- 3/6 trials failed; first: double decomposition did not round-trip",
            "FAIL slim: double decomposition round-trips [seed 0] -- 2/6 trials failed; first: double decomposition did not round-trip",
            "FAILED (17 checks)",
        ],
    ),
    (
        "tau naturality",
        "tau-kappa",
        "bundle_tower.daff",
        lambda: _sometimes("tau", lambda v, *a: chi(0, 1, v), 4, {1}),
        [
            "FAIL plane: tau is natural under adapted changes [seed 0] -- 3/6 trials failed; first: tau disagreed across an adapted basis change",
            "FAIL slim: tau is natural under adapted changes [seed 0] -- 3/6 trials failed; first: tau disagreed across an adapted basis change",
            "FAILED (10 checks)",
        ],
    ),
    (
        "kappa lands",
        "tau-kappa",
        "bundle_tower.daff",
        # the dual contact set (the second of four built) denies every
        # second trial's kappa image, and still holds it for to_double_point
        lambda: _sometimes("phase_set", lambda v, *a: _Flipped(v, 6, {0}), 4, {1}),
        [
            "FAIL plane: kappa lands in the dual contact set [seed 0] -- 3/6 trials failed; first: kappa left the dual contact set",
            "FAIL slim: kappa lands in the dual contact set [seed 0] -- 3/6 trials failed; first: kappa left the dual contact set",
            "FAILED (10 checks)",
        ],
    ),
    (
        "kappa reverses",
        "tau-kappa",
        "bundle_tower.daff",
        lambda: _sometimes("kappa", lambda v, *a: chi(1, 0, v), 6, {3}),
        [
            "FAIL plane: kappa reverses the marked core direction [seed 0] -- 2/6 trials failed; first: core moved by [0, 0, 0] instead of [0, 0, -1]",
            "FAIL slim: kappa reverses the marked core direction [seed 0] -- 2/6 trials failed; first: core moved by [0, -1] instead of [0, -2]",
            "FAILED (10 checks)",
        ],
    ),
    (
        "kappa descends",
        "tau-kappa",
        "bundle_tower.daff",
        lambda: _sometimes("phase_kappa", lambda v, *a: None, 5, {1, 2}),
        [
            "FAIL plane: kappa descends to the projective sets [seed 0] -- 2/6 trials failed; first: kappa did not descend to the projective sets",
            "FAIL slim: kappa descends to the projective sets [seed 0] -- 3/6 trials failed; first: kappa did not descend to the projective sets",
            "FAILED (10 checks)",
        ],
    ),
    (
        "beta involution",
        "tau-kappa",
        "bundle_tower.daff",
        lambda: _sometimes("beta", lambda v, w: w, 4, {1}),
        [
            "FAIL plane: beta is an involution [seed 0] -- 3/6 trials failed; first: beta failed to be an involution",
            "FAIL slim: beta is an involution [seed 0] -- 3/6 trials failed; first: beta failed to be an involution",
            "FAILED (10 checks)",
        ],
    ),
]


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_a_broken_law_reports_its_failed_trials_and_first_witness(case, monkeypatch, capsys):
    _, suite, fixture, patches, expected = case
    for name, value in patches().items():
        monkeypatch.setattr(suites, name, value)
    code = cli.main(["verify", "--suite", suite, "--trials", str(TRIALS), str(FIXTURES / fixture)])
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == expected
    assert code == 1
