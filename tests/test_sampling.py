"""Sampler tests: the integer-row core sampler against its Fraction loop."""

from fractions import Fraction
from random import Random

import pytest

from conftest import core_class_by_rejection
from colourdepth import sampling
from colourdepth.exact import InputError, Point, _scaled_pairs
from colourdepth.sampling import SamplingError, _draw, _randints, random_core_class, random_point


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_core_class_matches_fraction_rejection_loop(d):
    # Bounds 1 to 3 draw many zero vectors and repeated points; three tries
    # exhaust the budget often, so the error path is compared too.  The
    # accepted class and the generator state must both match.
    outcomes = set()
    for size in (d + 1, d + 3):
        for bound in (1, 2, 3, 10**4):
            for seed in range(24):
                max_tries = 3 if seed % 2 else 200
                rng, ref = Random(seed), Random(seed)
                expected = core_class_by_rejection(ref, size, d, bound, max_tries)
                if expected is None:
                    with pytest.raises(SamplingError, match=f"after {max_tries} draws"):
                        random_core_class(rng, size, d, bound, max_tries)
                else:
                    assert random_core_class(rng, size, d, bound, max_tries) == expected
                assert rng.getstate() == ref.getstate(), (size, bound, seed)
                outcomes.add(expected is None)
    assert outcomes == {False, True}


def test_core_class_below_d_plus_1_points_is_refused():
    with pytest.raises(InputError) as info:
        random_core_class(Random(0), 2, 2)
    assert str(info.value) == "need at least 3 points to surround the origin"


@pytest.mark.parametrize("draw, message", [
    (lambda rng: random_point(rng, 0), "dimension must be at least 1"),
    (lambda rng: random_point(rng, -1), "dimension must be at least 1"),
    (lambda rng: random_core_class(rng, 1, 0), "dimension must be at least 1"),
    (lambda rng: random_point(rng, 2, 0), "bound must be at least 1"),
    (lambda rng: random_core_class(rng, 3, 2, bound=-1), "bound must be at least 1"),
], ids=["point-dim0", "point-dim-1", "class-dim0", "point-bound0", "class-bound-1"])
def test_draws_refuse_a_dimension_or_bound_below_1(monkeypatch, draw, message):
    # No point of dimension 0 is nonzero, and a bound below 1 leaves no
    # denominator, so the draw is refused before it takes any bits.  A
    # draw that keeps calling the helper is stopped rather than left to run.
    calls = []

    def bounded(rng, spans):
        calls.append(spans)
        if len(calls) > 1000:
            raise RuntimeError("the draw never ends")
        return _randints(rng, spans)

    monkeypatch.setattr(sampling, "_randints", bounded)
    rng = Random(0)
    with pytest.raises(InputError) as info:
        draw(rng)
    assert str(info.value) == message
    assert calls == []
    assert rng.getstate() == Random(0).getstate()


def test_random_point_is_never_the_origin():
    rng = Random(5)
    assert all(any(random_point(rng, 3, bound=1).coords) for _ in range(500))


def test_drawn_rows_are_the_rows_of_the_points():
    # Pairs like (2, 4) and (1, 2) give one row, so equal points in a drawn
    # class have equal rows.
    rng = Random(9)
    for d in (1, 2, 3):
        for _ in range(300):
            pairs = _draw(rng, d, 6)
            assert _scaled_pairs(pairs) == Point(Fraction(n, q) for n, q in pairs).row, pairs


def test_randints_are_the_randint_stream():
    # The helper reads getrandbits as CPython's randint does, so it must give
    # the same integers and leave the generator in the same state: the
    # random() after it agrees.  A span of one value still draws its bits.
    spans = [(-10**4, 10**4), (1, 10**4), (1, 1), (5, 5)]
    for seed in range(300):
        rng, ref = Random(seed), Random(seed)
        order = Random(-1 - seed).choices(spans, k=seed % 50)
        assert _randints(rng, order) == [ref.randint(lo, hi) for lo, hi in order], seed
        assert rng.random() == ref.random(), seed
    rng = Random(0)
    assert _randints(rng, [(5, 5)]) == [5]
    assert rng.getstate() != Random(0).getstate()
    for empty in ((1, 0), (5, 3)):
        with pytest.raises(ValueError):
            Random(0).randint(*empty)
        with pytest.raises(ValueError, match="empty range"):
            _randints(Random(0), [(1, 1), empty])
