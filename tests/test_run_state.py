"""One conformance suite for the family protocol (``operators._IndexedFamily``):
a family's bare ``evaluate`` and the run state that ``run_block`` applies
it through.

Each kind is one entry of ``BUILDERS``, with its member oracle from
``conftest``, and a new family or state joins the suite by adding one:
``OperatorFamily``'s row state, its members their own oracles; the screened
state of ``LinearFamily`` (``_ScreenedState``) over half-spaces, over slabs
plus a hyperplane and over the signal family's circulant slabs, against
``project_hyperslab``; the image family's ``_SpectralState``, against its
balls' subgradient projectors, ``project_box`` and
``project_fourier_support``; and the error-tolerant row state that
``run_block`` builds.  ``test_every_family_has_a_builder`` fails for a
family class of the package that no entry builds.  Hypothesis draws the
points, batches and weights, derandomized.  The bare ``evaluate`` of every
kind but ``errors`` (the signal's family) has three properties:

F1. each row of ``evaluate(ks, x)`` is ``oracle(k, x) - x``: bit for bit for
    the operator members and the image box, to 1e-12 relative for the
    linear members and the balls, to 1e-12 max|T_k x| for the Fourier
    member; an exact zero with norm 0 where the oracle fixes x; and the
    batch is None exactly when every oracle does;
F2. every norm is sqrt(d.dot(d)) of its row d, also where it underflows: a
    nonzero row whose norm reads 0 is not all-fixed;
F3. a repeated index gives equal rows, each written independently of the
    other, and ``OperatorFamily`` calls each distinct member once.

Run states are checked bit for bit against the bare rows, the image state
to 1e-13 of the scale max(1, max|x|, max|rows|) that its transforms round
against, and its norms also to 1e-12 relative.  The properties:

1. ``coordinates`` is a linear isometry, and ``point(coordinates(x))`` is x
   to 1e-12 relative;
2. ``evaluate`` gives None exactly when the bare ``evaluate`` does, which is
   when every member fixes x, and else the bare norms; each bare row is the
   member's own.  The state has evaluated all members at the kind's anchor
   point first, so a screened state answers from its radii and the image
   state from its box certificate wherever they hold;
3. ``point(step(beta))`` is ``beta @`` the bare rows, for drawn beta;
4. every batch that ``screen`` clears is all-fixed at that x, and it clears
   nothing at an x it has not seen;
5. a run equals ``conftest.replay_block`` bit for bit at M in {1, 4}, with
   and without an error schedule;
6. an x0 of the wrong length raises ``UsageError``.

Exemptions: the error-tolerant state's reference is the bare rows plus its
error rows, never None, and its runs are the error legs of property 5.
Property 4 runs on the states that have a screen, the kinds of
``SCREENED``, and a listed kind whose state loses its screen fails.
Property 6 does not apply to ``OperatorFamily``, whose callables fix the
dimension.
"""

import functools
import importlib
import math
import pkgutil
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochfeas
from stochfeas import relaxation as rx
from stochfeas.block import BlockConfig, run_block
from stochfeas.exceptions import UsageError
from stochfeas.fixedpoint import DecayingNoise
from stochfeas.image import generate_image_problem
from stochfeas.operators import (
    LinearFamily,
    OperatorFamily,
    _IndexedFamily,
    _RowState,
    project_box,
)
from stochfeas.signal import generate_signal_problem

from conftest import (
    InequalityConstraint,
    assert_same_run,
    ball_constraint,
    halfspace_proj_oracle,
    project_fourier_support,
    project_hyperslab,
    random_halfspace_problem,
    replay_block,
    slab_bounds,
    subgradient_projector,
)

ERRORS = DecayingNoise(c=0.5, q=1.5)
EXACT, CLOSE = (0.0, 0.0), (1e-12, 1e-12)   # (rtol, atol) of F1


@dataclass(frozen=True)
class Kind:
    """A family; anchor points, the first fixed by all members but the image's
    Fourier one; the runs' x0; the member oracle ``oracle(k, x) -> T_k x``
    and its F1 tolerance ``tolerance(k) -> (rtol, atol)``, atol in units of
    max|T_k x|; and the schedule of the error-tolerant state."""

    family: object
    points: tuple
    start: np.ndarray
    oracle: Callable
    tolerance: Callable = lambda k: CLOSE
    errors: Optional[DecayingNoise] = None


def _projections(rows, lo, hi) -> Callable:
    return lambda k, x: project_hyperslab(rows[k], lo[k], hi[k], x)


def _operator() -> Kind:
    rng = np.random.default_rng(11)
    a, b, c = rng.normal(size=(3, 5))
    ball = InequalityConstraint(lambda x: float(x @ x) - 1.0, lambda x: 2.0 * x, "unit-ball")
    family = OperatorFamily([lambda x: project_box(-1.0, 1.0, x),
                             lambda x: halfspace_proj_oracle(a, 0.5, x),
                             lambda x: subgradient_projector(ball, x),
                             lambda x: project_hyperslab(c, -0.3, 0.3, x),
                             lambda x: halfspace_proj_oracle(b, 0.3, x),
                             # {z : z_0 <= 0}: its step at x_0 = 1e-170 underflows its norm
                             lambda x: halfspace_proj_oracle(np.eye(1, 5)[0], 0.0, x)])
    return Kind(family, (np.zeros(5), 0.1 * rng.normal(size=5), 3.0 * rng.normal(size=5)),
                3.0 * rng.normal(size=5), lambda k, x: family.members[k](x), lambda k: EXACT)


def _halfspaces() -> Kind:
    rng = np.random.default_rng(41)
    normals, offsets, family, center, _ = random_halfspace_problem(rng, dim=6, count=10)
    return Kind(family, (center, center + 3.0 * rng.normal(size=6), np.zeros(6)),
                4.0 * rng.normal(size=6), _projections(normals, np.full(10, -np.inf), offsets))


def _slabs_and_hyperplane() -> Kind:
    # eight slabs around the center, and {z : z_0 = center_0}, exact at the center
    rng = np.random.default_rng(43)
    center = rng.normal(size=5)
    rows = np.vstack([rng.normal(size=(8, 5)), np.eye(1, 5)])
    v = rows[:8] @ center
    lo = np.append(v - rng.uniform(0.1, 1.0, size=8), center[0])
    hi = np.append(v + rng.uniform(0.1, 1.0, size=8), center[0])
    return Kind(LinearFamily(rows, lo, hi), (center, center + rng.normal(size=5), np.zeros(5)),
                center + rng.normal(size=5), _projections(rows, lo, hi))


def _signal(errors=None) -> Kind:
    # member k n + j is the slab of filter k at coordinate j
    prob = generate_signal_problem(n=32, p=3, std_range=(1.0, 3.0), seed=5, noise_fill=0.6)
    points = (prob.ground_truth, np.zeros(32), 2.0 * np.random.default_rng(5).normal(size=32))
    return Kind(prob.build_family(), points, np.zeros(32),
                lambda k, x: project_hyperslab(*slab_bounds(prob, *divmod(k, prob.n)), x),
                errors=errors)


def _image() -> Kind:
    prob = generate_image_problem(n=16)
    points = (prob.ground_truth.ravel(), np.zeros(prob.dim),
              np.random.default_rng(16).uniform(-20.0, 280.0, size=prob.dim))
    members = [functools.partial(subgradient_projector, ball_constraint(prob, k))
               for k in range(4)]
    members += [functools.partial(project_box, 0.0, 255.0),
                lambda x: project_fourier_support(prob.target_spectrum, prob.mask,
                                                  x.reshape(prob.n, prob.n)).ravel()]
    return Kind(prob.build_family(), points, np.zeros(prob.dim), lambda k, x: members[k](x),
                lambda k: {4: EXACT, 5: (0.0, 1e-12)}.get(k, CLOSE))


BUILDERS = {"operator": _operator, "halfspace": _halfspaces,
            "slab_hyperplane": _slabs_and_hyperplane, "signal": _signal, "image": _image,
            "errors": functools.partial(_signal, ERRORS)}
KINDS = list(BUILDERS)
FAMILIES = [name for name in KINDS if name != "errors"]


@functools.lru_cache(maxsize=None)
def kind_of(name: str) -> Kind:
    return BUILDERS[name]()


def drawn(name, pick, shift, seed, batch=()):
    """The kind, anchor ``pick`` plus ``shift`` seeded gaussians, and the batch."""
    kind = kind_of(name)
    x = kind.points[pick] + shift * np.random.default_rng(seed).standard_normal(kind.start.size)
    return kind, x, [k % len(kind.family) for k in batch]


def probe(kind: Kind, x, m: int, seed: int):
    """The state of ``kind`` from x and the reference of its ``evaluate``:
    the bare one, plus the M error rows of the error-tolerant state."""
    family, state = kind.family, kind.family.run_state(x)
    if kind.errors is None:
        return state, family.evaluate
    noise = kind.errors.sample_rows(0, m, x.size, np.random.default_rng(seed))

    def reference(ks, at):
        out = family.evaluate(ks, at)
        rows = noise if out is None else noise + out[0]
        return rows, np.array([math.sqrt(float(d @ d)) for d in rows])

    return _RowState(family.evaluate, iter([noise.copy()])), reference


SCREENED = ["halfspace", "slab_hyperplane", "signal"]
SETTINGS = settings(max_examples=12, deadline=None, derandomize=True, database=None)
PICKS = st.integers(0, 2)
SHIFTS = st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0])
SEEDS = st.integers(0, 2 ** 32 - 1)
BATCHES = st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=5)


def test_every_family_has_a_builder():
    for module in pkgutil.iter_modules(stochfeas.__path__):
        importlib.import_module(f"stochfeas.{module.name}")

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    families = {f"{c.__module__}.{c.__qualname__}": c for c in subclasses(_IndexedFamily)
                if c.__module__.startswith("stochfeas.")}
    # SGD's family draws indices and has no evaluate
    assert families.pop("stochfeas.fixedpoint.GradientFamily").evaluate is _IndexedFamily.evaluate
    assert set(families.values()) <= {type(kind_of(name).family) for name in FAMILIES}


@pytest.mark.parametrize("name", FAMILIES)
@SETTINGS
@given(pick=PICKS, shift=SHIFTS, seed=SEEDS, lift=st.sampled_from([0.0, 5.0]), batch=BATCHES)
@example(pick=0, shift=0.0, seed=0, lift=0.0, batch=list(range(96)))   # all signal slabs hold
@example(pick=0, shift=0.0, seed=0, lift=5.0, batch=list(range(96)))   # and none holds
@example(pick=0, shift=1e-170, seed=0, lift=0.0, batch=[5, 0])   # a zero norm of a nonzero row
def test_rows_are_the_oracle_steps_and_norms_their_norms(name, pick, shift, seed, lift, batch):
    kind, x, ks = drawn(name, pick, shift, seed, batch)
    x = x + lift
    ps = [kind.oracle(k, x) for k in ks]
    fixed = [not np.any(p - x) for p in ps]
    out = kind.family.evaluate(ks, x)
    assert (out is None) == all(fixed)
    if out is None:
        return
    steps, norms = out
    assert steps.shape == (len(ks), x.size) and norms.shape == (len(ks),)
    for k, p, held, d, r in zip(ks, ps, fixed, steps, norms):
        assert r == math.sqrt(float(d @ d))
        rtol, atol = kind.tolerance(k)
        if held:
            assert not d.any() and r == 0.0
        elif (rtol, atol) == EXACT:
            assert d.tobytes() == (p - x).tobytes()
        else:
            np.testing.assert_allclose(x + d, p, rtol=rtol, atol=atol * abs(p).max())


@pytest.mark.parametrize("name", FAMILIES)
@SETTINGS
@given(pick=PICKS, shift=SHIFTS, seed=SEEDS, batch=BATCHES)
@example(pick=2, shift=0.0, seed=0, batch=[3])   # one member, twice
def test_repeated_index_gives_equal_independent_rows(name, pick, shift, seed, batch):
    kind, x, ks = drawn(name, pick, shift, seed, batch)
    family, calls = kind.family, []
    if isinstance(family, OperatorFamily):   # the same members, counted
        family = OperatorFamily([lambda x, k=k, f=f: calls.append(k) or f(x)
                                 for k, f in enumerate(family.members)])
    ks = ks + ks[::-1]
    out = family.evaluate(np.array(ks), x)   # as a run passes its draws
    assert sorted(calls) == (sorted(set(ks)) if family is not kind.family else [])
    if out is None:
        return
    steps, norms = out
    for i, k in enumerate(ks):
        j = ks.index(k)
        if isinstance(family, LinearFamily):   # a row of a matrix product rounds by its place
            np.testing.assert_allclose(steps[i], steps[j], rtol=1e-12,
                                       atol=1e-12 * abs(steps[j]).max())
        else:
            assert steps[i].tobytes() == steps[j].tobytes() and norms[i] == norms[j]
    before = steps.copy()
    steps[:] = np.arange(len(ks))[:, None]   # each row written on its own
    assert all(np.all(row == i) for i, row in enumerate(steps))
    assert family.evaluate(np.array(ks), x)[0].tobytes() == before.tobytes()


@pytest.mark.parametrize("name", KINDS)
@SETTINGS
@given(pick=PICKS, shift=SHIFTS, seed=SEEDS, other=PICKS, a=st.floats(-3.0, 3.0),
       b=st.floats(-3.0, 3.0))
def test_coordinates_are_a_linear_isometry(name, pick, shift, seed, other, a, b):
    kind, x, _ = drawn(name, pick, shift, seed)
    _, y, _ = drawn(name, other, 1.0, seed + 1)
    state, _ = probe(kind, x, 1, seed)
    c = state.coordinates(x)
    assert c.dtype == np.float64 and c.ndim == 1 and (c is x) == isinstance(state, _RowState)
    assert float(c @ c) == pytest.approx(float(x @ x), rel=1e-12, abs=0.0)
    np.testing.assert_allclose(state.point(c), x, rtol=0, atol=1e-12 * max(1.0, abs(x).max()))
    np.testing.assert_allclose(state.coordinates(a * x + b * y), a * c + b * state.coordinates(y),
                               rtol=0, atol=1e-12 * (abs(a) * np.linalg.norm(x)
                                                     + abs(b) * np.linalg.norm(y)))


@pytest.mark.parametrize("name", KINDS)
@SETTINGS
@given(pick=PICKS, shift=SHIFTS, seed=SEEDS, batch=BATCHES)
@example(pick=0, shift=0.0, seed=0, batch=[0, 1, 2, 3, 4])   # all-fixed, the image's too
@example(pick=2, shift=0.0, seed=0, batch=[5, 0, 5, 1])   # a ball after the Fourier member
@example(pick=0, shift=0.1, seed=0, batch=[4, 2, 4])   # near the anchor: radii, the certificate
def test_evaluate_matches_the_bare_evaluate(name, pick, shift, seed, batch):
    kind, x, ks = drawn(name, pick, shift, seed, batch)
    state, reference = probe(kind, x, len(ks), seed)
    if kind.errors is None:   # the error-tolerant state holds one batch of errors
        state.evaluate(list(range(len(kind.family))), state.coordinates(kind.points[0]))
    r, out = state.evaluate(ks, state.coordinates(x)), reference(ks, x)
    assert (r is None) == (out is None)
    owns = [kind.family.evaluate([k], x) for k in ks]
    if kind.errors is None:
        assert (out is None) == all(own is None for own in owns)
    if out is None:
        return
    rows, norms = out
    if isinstance(state, _RowState):
        assert r.tobytes() == norms.tobytes()
    else:
        # a bare row is p - x in space, which rounds relative to x and not to
        # the step: at x on the Fourier set, both norms are rounding
        scale = max(1.0, abs(x).max(), abs(rows).max())   # |rfft2(v)| <= dim max|v|
        np.testing.assert_allclose(r, norms, rtol=1e-12, atol=1e-13 * scale)
    if kind.errors is not None:
        return
    for own, d in zip(owns, rows):
        own = np.zeros_like(d) if own is None else own[0][0]
        if isinstance(kind.family, LinearFamily):
            # a batch's matrix-vector product may round as one row's does not
            np.testing.assert_allclose(d, own, rtol=1e-12, atol=1e-12 * abs(d).max())
        else:
            assert d.tobytes() == own.tobytes()


def test_box_certificate_holds_to_its_margin_and_allowance(monkeypatch):
    # a constant shift c of the anchor x_a moves every pixel by c, and the
    # certificate's bound B = sum_e w_e |X_e - X_a,e| is c too: it is tight
    # there.  Toward the side of the margin m_a, the box draw takes no
    # irfft2 while B (1 + delta) + cu (||v|| + ||v_a||) < m_a, and one just
    # past that, where the box still holds; past m_a the box moves x.  The
    # allowance is taken as 2 cu ||v_a||: the probes' ||v|| is within 10% of
    # ||v_a||, and the probes sit half and twice the allowance from m_a
    kind = kind_of("image")
    state = kind.family.run_state(kind.start)
    anchor = state.coordinates(kind.points[0])
    assert state.evaluate([4], anchor) is None   # anchors there
    x = state.point(anchor)
    below, above = x.min(), 255.0 - x.max()
    margin, sign = min(below, above), 1.0 if above <= below else -1.0
    n = math.isqrt(x.size)
    u = 2.0 ** -53
    delta = 1e3 * (n * (n // 2 + 1) + 8) * u
    allowance = 2e3 * (7.0 * math.log2(2 * x.size) + 5.0) * u * math.sqrt(float(anchor @ anchor))
    assert allowance > 20.0 * delta * margin   # so the probes below sit within the allowance
    inverses = []
    irfft2 = np.fft.irfft2

    def counted(*args, **kwargs):
        inverses.append(args)
        return irfft2(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft2", counted)
    for c, transforms, holds in ((margin - 2.0 * allowance, 0, True),
                                 (margin - 0.5 * allowance, 1, True),
                                 (1.01 * margin, 1, False)):
        v = anchor.copy()
        v[0] += sign * c * n   # X[0, 0], the mean, is n x mean(x) with w = 1 / n there
        inverses.clear()
        r = state.evaluate([4], v)
        assert len(inverses) == transforms and (r is None) == holds
        out = kind.family.evaluate([4], state.point(v))
        assert (out is None) == holds
        if not holds:
            assert r[0] == out[1][0] > 0.0


@pytest.mark.parametrize("name", KINDS)
@SETTINGS
@given(pick=PICKS, shift=SHIFTS, seed=SEEDS, batch=BATCHES,
       weights=st.lists(st.floats(1e-3, 1.0), min_size=5, max_size=5))
def test_step_is_the_weighted_sum_of_the_bare_rows(name, pick, shift, seed, batch, weights):
    kind, x, ks = drawn(name, pick, shift, seed, batch)
    state, reference = probe(kind, x, len(ks), seed)
    if state.evaluate(ks, state.coordinates(x)) is None:
        return
    rows, _ = reference(ks, x)
    beta = np.array(weights[:len(ks)]) / sum(weights[:len(ks)])
    combined, d = state.step(beta), beta @ rows
    if isinstance(state, _RowState):
        assert state.point(combined).tobytes() == d.tobytes()
        return
    # and an update in coordinates maps back to the update in space
    scale = max(1.0, abs(x).max(), abs(rows).max())
    for v, expected in ((combined, d), (state.coordinates(x) + 1.5 * combined, x + 1.5 * d)):
        np.testing.assert_allclose(state.point(v), expected, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("name", SCREENED)
@SETTINGS
@given(pick=PICKS, shift=SHIFTS, seed=SEEDS, move=SHIFTS, m=st.integers(1, 4),
       flat=st.lists(st.integers(0, 2 ** 16), min_size=4, max_size=24))
@example(pick=0, shift=0.0, seed=0, move=1e-3, m=2, flat=list(range(24)))
def test_screen_clears_only_all_fixed_batches(name, pick, shift, seed, move, m, flat):
    kind, x, flat = drawn(name, pick, shift, seed, flat[:len(flat) // m * m])
    batches = np.array(flat).reshape(-1, m)
    state, reference = probe(kind, x, m, seed)
    assert state.screen is not None
    assert state.screen(batches, state.coordinates(x)) == 0   # nothing seen yet
    # at x, then at a point moved off it, each once a batch was evaluated there
    for at in (x, x + move * np.random.default_rng(seed + 1).standard_normal(x.size)):
        v = state.coordinates(at)
        state.evaluate(batches[0], v)
        cleared = state.screen(batches, v)
        assert 0 <= cleared <= len(batches)
        assert all(reference(ks, at) is None for ks in batches[:cleared])
        assert state.screen(batches, v.copy()) == 0   # an x it has not seen


@pytest.mark.parametrize("errors", [None, ERRORS], ids=["exact", "errors"])
@pytest.mark.parametrize("m", [1, 4])
@pytest.mark.parametrize("name", FAMILIES)
def test_run_equals_the_replay(name, m, errors):
    kind = kind_of(name)
    relaxation = rx.TwoPoint(2.3, 0.5, 1.5) if errors is None else rx.UniformInterval(0.5, 1.5)
    cfg = BlockConfig(batch_size=m, delta=0.5 / m, relaxation=relaxation, max_iters=60, seed=7,
                      atol=0.0, error_schedule=errors, collect_records=True)
    res = run_block(kind.family, cfg, kind.start, reference_solution=kind.points[0])
    assert_same_run(res, *replay_block(kind.family, cfg, kind.start, reference=kind.points[0]))
    # the runs meet held and moving batches, x_n replayed from the records
    x, held = kind.start, []
    for rec in res.records:
        held.append(kind.family.evaluate(rec.indices, x) is None)
        x = x + rec.lam * (rec.a - x)
    assert any(held) and not all(held)
    if m == 1 and errors is None and isinstance(kind.family.run_state(kind.start), _RowState):
        # each norm is that of its row, so one member extrapolates by exactly 1
        assert np.all(res.trace.extrapolations() == 1.0)


@pytest.mark.parametrize("name", [name for name in KINDS if name != "operator"])
def test_wrong_length_x0_is_a_usage_error(name):
    kind = kind_of(name)
    for errors in (None, ERRORS):
        cfg = BlockConfig(batch_size=2, delta=0.25, relaxation=rx.Constant(1.0), max_iters=5,
                          seed=0, error_schedule=errors)
        for length in (1, kind.start.size - 1, 2 * kind.start.size):
            with pytest.raises(UsageError, match="dimension mismatch"):
                run_block(kind.family, cfg, np.zeros(length))
