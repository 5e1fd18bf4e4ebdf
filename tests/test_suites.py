"""The FAIL record of every sampled law, and its exit code.

Each case breaks one law by swapping a law function, as ``daffine.suites``
binds it, for one that gives a wrong value on some of its calls.  The FAIL
lines of the text report, ``k/N trials failed; first: <witness>``, are
pinned, so the count, the first witness and the seed of every sampled law
stay what they are.
"""

import dataclasses
import itertools
import os
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from daffine import cli, dsl, suites
from daffine.errors import ConstraintViolated, DaffineError
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


# ---------------------------------------------------------------------------
# the split runner: every chunking gives the one-CPU report
# ---------------------------------------------------------------------------

SAMPLED_SUITES = ("interchange", "model-hull", "duality-pairing", "phase-tower", "tau-kappa")
SAMPLED_FIXTURES = (
    "minimal.daff",
    "special_double.daff",
    "bundle_tower.daff",
    "constraints_plane.daff",
    "constraints_hyperbola.daff",
)
SPLIT_TRIALS = (1, 49, 50, 100, 101, 257)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rendered(fixture, suite, trials, cpus, monkeypatch):
    monkeypatch.setattr(suites, "_cpus", lambda: cpus)
    doc = dsl.parse((FIXTURES / fixture).read_text())
    report = suites.run(doc, f"verify:{suite}", seed=3, trials=trials)
    return report.to_text(), report.to_json()


@pytest.mark.parametrize("suite", SAMPLED_SUITES)
@pytest.mark.parametrize("fixture", SAMPLED_FIXTURES)
def test_split_trials_give_the_one_cpu_report(fixture, suite, monkeypatch):
    for trials in SPLIT_TRIALS:
        serial = _rendered(fixture, suite, trials, 1, monkeypatch)
        for cpus in (2, 3):
            assert _rendered(fixture, suite, trials, cpus, monkeypatch) == serial, (trials, cpus)
    _no_child_left()


def test_a_process_with_other_threads_plays_every_trial_itself():
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        assert suites._cpus() == 1
    finally:
        stop.set()
        worker.join(timeout=10)
    assert not worker.is_alive()


def _from_trial(name, wrong, start):
    """``suites.<name>`` with its value replaced by ``wrong(value, *args)``
    in the trials numbered ``start`` and later.  The trial number is the one
    ``_trial_rng`` was last asked for in this process, so the mutant acts
    alike in the caller and in a forked child."""
    original_rng, original = suites._trial_rng, getattr(suites, name)
    current = [0]

    def trial_rng(seed, i):
        current[0] = i
        return original_rng(seed, i)

    def mutant(*args):
        value = original(*args)
        return wrong(value, current[0], *args) if current[0] >= start else value

    return {"_trial_rng": trial_rng, name: mutant}


def _verify(suite, fixture, trials, cpus, patches, monkeypatch, capsys):
    monkeypatch.setattr(suites, "_cpus", lambda: cpus)
    for name, value in patches.items():
        monkeypatch.setattr(suites, name, value)
    code = cli.main(["verify", "--suite", suite, "--trials", str(trials), str(FIXTURES / fixture)])
    out, err = capsys.readouterr()
    return code, out, err


def _raise_from(start, error=ConstraintViolated):
    def wrong(value, i, *args):
        raise error(f"raised in trial {i}")

    return _from_trial("tau", wrong, start)


# (cpus, trials) that put trial 60 in the first child: chunks 0-49 and 50-99,
# or 0-49, 50-99 and 100-149, where trials from 100 on fail or raise too
LATE_SPLITS = [(2, 100), (3, 150)]


@pytest.mark.parametrize("cpus, trials", LATE_SPLITS)
def test_a_law_failing_in_late_trials_keeps_its_count_and_first_witness(cpus, trials, monkeypatch, capsys):
    # from trial 60 on, the interchange law breaks on the draws with lam > 0
    patches = _from_trial("interchange_sides", lambda v, i, *a: (v[0], None) if a[4] > 0 else v, 60)
    serial = _verify("interchange", "special_double.daff", trials, 1, patches, monkeypatch, capsys)
    split = _verify("interchange", "special_double.daff", trials, cpus, patches, monkeypatch, capsys)
    assert split == serial
    fails = [line for line in serial[1].splitlines() if line.startswith("FAIL")]
    # of trials 60-99, 18 (bare) and 13 (wide) draw lam > 0; of trials
    # 60-149, 40 and 39; the first of each is trial 60
    counts = {100: (18, 13), 150: (40, 39)}[trials]
    assert fails == [
        f"FAIL bare: interchange law [seed 0] -- {counts[0]}/{trials} trials failed; first: orders disagree at lam=3/2, mu=2",
        f"FAIL wide: interchange law [seed 0] -- {counts[1]}/{trials} trials failed; first: orders disagree at lam=3, mu=-1",
        "FAILED (5 checks)",
    ]
    assert serial[0] == 1
    _no_child_left()


@pytest.mark.parametrize("cpus, trials", LATE_SPLITS)
def test_a_raise_in_late_trials_is_the_earliest_one(cpus, trials, monkeypatch, capsys):
    serial = _verify("tau-kappa", "bundle_tower.daff", trials, 1, _raise_from(60), monkeypatch, capsys)
    split = _verify("tau-kappa", "bundle_tower.daff", trials, cpus, _raise_from(60), monkeypatch, capsys)
    assert split == serial == (2, "", "error: raised in trial 60\n")
    monkeypatch.setattr(suites, "_cpus", lambda: cpus)
    doc = dsl.parse((FIXTURES / "bundle_tower.daff").read_text())
    with pytest.raises(ConstraintViolated, match="^raised in trial 60$"):
        suites.run(doc, "verify:tau-kappa", trials=trials)
    _no_child_left()


@pytest.mark.parametrize("error", [ConstraintViolated, KeyboardInterrupt])
def test_a_raise_in_the_first_chunk_ends_the_running_children(error, monkeypatch):
    monkeypatch.setattr(suites, "_cpus", lambda: 3)
    for name, value in _raise_from(5, error).items():
        monkeypatch.setattr(suites, name, value)
    doc = dsl.parse((FIXTURES / "bundle_tower.daff").read_text())
    with pytest.raises(error, match="^raised in trial 5$"):
        suites.run(doc, "verify:tau-kappa", trials=300)
    _no_child_left()


def test_a_child_ending_without_a_result_names_its_trials(monkeypatch):
    caller = os.getpid()

    def vanish(value, i, *args):
        if os.getpid() != caller:
            os._exit(3)
        return value

    monkeypatch.setattr(suites, "_cpus", lambda: 2)
    for name, value in _from_trial("tau", vanish, 60).items():
        monkeypatch.setattr(suites, name, value)
    doc = dsl.parse((FIXTURES / "bundle_tower.daff").read_text())
    with pytest.raises(DaffineError, match=r"^trials 50\.\.99 ended without a result$"):
        suites.run(doc, "verify:tau-kappa", trials=100)
    _no_child_left()
