"""Generator tests: exact claimed counts, decompositions, and determinism."""

from fractions import Fraction

import pytest

from colourdepth import constructions
from colourdepth.cli import main
from colourdepth.constructions import (
    RANDOM_CORE_TRIES,
    ConstructionError,
    gen_identical,
    gen_random_core_config,
    gen_regular_ngon,
    gen_sminus,
    gen_splus,
    gen_sprime,
    _build,
    _sprime_classes,
    _verify,
)
from colourdepth.depth import (
    ColourfulConfiguration,
    colour_decomposition,
    colourful_depth,
    core_membership,
    monochrome_depth,
    zero_containing_count,
)
from colourdepth.exact import InputError, in_general_position, origin
from colourdepth.sampling import SamplingError


def recheck(vc):
    """Independent re-verification of a VerifiedConfiguration."""
    d = vc.config.dim
    rep = colourful_depth(vc.config, origin(d), "open")
    assert rep.count == vc.claimed_depth_at_origin
    assert vc.verified


# ------------------------------------------------------------------- identical


@pytest.mark.parametrize("d,want", [(1, 2), (2, 6), (3, 24)])
def test_identical_factorial_depth(d, want):
    vc = gen_identical(d)
    assert vc.claimed_depth_at_origin == want
    recheck(vc)
    # both modes agree: the origin is interior, so no boundary inflation
    assert colourful_depth(vc.config, origin(d), "closed").count == want


def test_identical_general_position_on_distinct_points():
    vc = gen_identical(2)
    distinct = list(dict.fromkeys(vc.config.points()))
    assert in_general_position(distinct + [origin(2)])


# ------------------------------------------------------------ minimum (sminus)


@pytest.mark.parametrize("d,want", [(2, 5), (3, 10)])
def test_sminus_depth(d, want):
    vc = gen_sminus(d)
    assert vc.claimed_depth_at_origin == want == d * d + 1
    recheck(vc)
    assert core_membership(vc.config, origin(d), strict=True)


def test_sminus_witness_decomposition():
    vc = gen_sminus(3)
    assert list(vc.last_colour_counts) == [7, 1, 1, 1]  # 1 + d(d-1), then ones


def test_sminus_2d_point_counts():
    # first point of the last colour generates 3 simplices, the others 1 each
    vc = gen_sminus(2)
    cfg = vc.config
    assert zero_containing_count(cfg, 2, 0, "open") == 3
    assert zero_containing_count(cfg, 2, 1, "open") == 1
    assert zero_containing_count(cfg, 2, 2, "open") == 1


def test_sminus_2d_cone_counts_match():
    # the same counts read off the antipodal cones of the other two colours
    from colourdepth.depth import antipodal_cone_count

    cfg = gen_sminus(2).config
    for k, want in [(0, 3), (1, 1), (2, 1)]:
        cc = antipodal_cone_count(cfg, 2, cfg.classes[2][k])
        assert (cc.count, cc.degenerate) == (want, 0)


def test_sminus_general_position_with_origin():
    for d in (2, 3):
        vc = gen_sminus(d)
        assert in_general_position(vc.config.points() + [origin(d)])


def test_sminus_rejects_d1():
    with pytest.raises(InputError):
        gen_sminus(1)


def test_sminus_deterministic():
    # Each band generator builds once, so the ignored seed cannot change it.
    for gen in (gen_sminus, gen_sprime, gen_splus):
        for d in (2, 3):
            a = gen(d)
            for seed in (0, 5, 7):
                assert gen(d, seed=seed) == a, (gen.__name__, d, seed)


# ------------------------------------------------------------------ alternative


@pytest.mark.parametrize("d,want", [(2, 5), (3, 10)])
def test_sprime_depth(d, want):
    vc = gen_sprime(d)
    assert vc.claimed_depth_at_origin == want
    recheck(vc)


def test_sprime_counts_match_single_facet_story():
    vc = gen_sprime(3)
    assert list(vc.last_colour_counts) == [3, 3, 3, 1]


def test_failed_build_reports_the_achieved_depth():
    # A real build that cannot meet its claim: sprime(2) has depth 5, not 6.
    with pytest.raises(ConstructionError) as info:
        _build(_sprime_classes, 2, Fraction(1, 200), [2, 2, 2], "sprime")
    assert str(info.value) == "sprime(d=2): open depth at origin is 5, wanted 6"
    assert info.value.achieved == 5


def test_verify_refuses_degenerate_tuples_and_wrong_point_counts():
    with pytest.raises(ConstructionError) as info:
        _verify(gen_identical(2).config, [2, 2, 2])
    assert str(info.value) == "21 degenerate / 0 boundary tuples at origin"
    with pytest.raises(ConstructionError) as info:
        _verify(gen_sminus(2).config, [1, 1, 3])
    assert str(info.value) == "per-point counts [3, 1, 1] != expected [1, 1, 3]"


def test_known_failures_at_d4_are_pinned():
    # S- does not meet its claim at d = 4 yet: its deep antipode lands in a
    # cell of the wrong coverage.
    with pytest.raises(ConstructionError) as info:
        gen_sminus(4)
    assert str(info.value) == "sminus(d=4): open depth at origin is 22, wanted 17"
    assert info.value.achieved == 22


def test_sprime_has_unique_simplex_point():
    # some point of the last colour generates exactly one containing simplex
    vc = gen_sprime(2)
    assert 1 in vc.last_colour_counts


def test_sprime_pole_is_the_unique_one():
    vc = gen_sprime(2)
    assert vc.last_colour_counts[-1] == 1


# ----------------------------------------------------------------- maximum


@pytest.mark.parametrize("d,want", [(1, 2), (2, 9), (3, 82)])
def test_splus_depth(d, want):
    vc = gen_splus(d)
    assert vc.claimed_depth_at_origin == want == d ** (d + 1) + 1
    recheck(vc)


def test_splus_witness_decomposition():
    # From d = 4 on, the polar offsets must span every direction off the
    # meridian, or the classes are flat and miss the origin.
    for d in (2, 3, 4, 5):
        vc = gen_splus(d)
        assert vc.last_colour_counts == (d**d,) * d + (1,)


def test_splus_core_strict():
    for d in (1, 2, 3):
        vc = gen_splus(d)
        assert core_membership(vc.config, origin(d), strict=True)


# --------------------------------------------------------------------- n-gons


@pytest.mark.parametrize("n,want", [(3, 1), (5, 5), (7, 14), (9, 30)])
def test_ngon_centre_depth(n, want):
    pts = gen_regular_ngon(n)
    rep = monochrome_depth(pts, origin(2), "open")
    assert rep.count == want == (n**3 - n) // 24


def test_ngon_rejects_even():
    with pytest.raises(InputError):
        gen_regular_ngon(6)


def test_ngon_general_position():
    pts = gen_regular_ngon(7)
    assert in_general_position(pts + [origin(2)])


def test_ngon_points_on_unit_circle():
    for p in gen_regular_ngon(5):
        assert p[0] ** 2 + p[1] ** 2 == 1


# ------------------------------------------------------------------- random core


def test_random_core_config_postconditions():
    vc = gen_random_core_config(2, 3, seed=11)
    assert core_membership(vc.config, origin(2), strict=True)
    assert in_general_position(vc.config.points() + [origin(2)])
    recheck(vc)


def test_random_core_config_deterministic():
    a = gen_random_core_config(2, 3, seed=4)
    b = gen_random_core_config(2, 3, seed=4)
    assert a.config == b.config


def test_random_core_config_2d_depth_at_least_five():
    for seed in range(6):
        vc = gen_random_core_config(2, 3, seed=seed)
        assert vc.claimed_depth_at_origin >= 5


def test_random_core_config_size_check():
    with pytest.raises(InputError):
        gen_random_core_config(2, 2, seed=0)


def test_custom_epsilon_still_verifies():
    vc = gen_sminus(2, Fraction(1, 300))
    assert vc.claimed_depth_at_origin == 5


@pytest.mark.parametrize("call, message", [
    (lambda: gen_identical(0), "dimension must be at least 1"),
    (lambda: gen_splus(0), "dimension must be at least 1"),
    (lambda: gen_random_core_config(0, 2, 0), "dimension must be at least 1"),
    (lambda: gen_regular_ngon(2), "need at least 3 vertices"),
    (lambda: gen_sminus(2, "1/10"), "epsilon must lie in (0, 1/50]"),
])
def test_generator_refusals_name_the_bad_argument(call, message):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


# --------------------------------------------------------- construction failures


def refused(capsys, *argv) -> str:
    """The one stderr line of a CLI run, in this process, that exits 3."""
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("construction failed: "), err
    return err.strip()


def test_verify_refuses_points_not_in_general_position(monkeypatch, capsys):
    # Three points of the first colour on the line y = 2.  Each colourful
    # triangle has one point of it, so no tuple is degenerate, and only the
    # planar line pass of general position refuses.
    cfg = ColourfulConfiguration.from_lists(2, [
        [(-3, 2), (1, 2), (4, 2), (2, -2)], [(2, 6), (9, -7), (-9, 6)], [(-1, 8), (-2, -3), (6, 8)],
    ])
    rep, by_colour = colour_decomposition(cfg, "open")
    assert (rep.count, rep.degenerate, rep.boundary) == (8, 0, 0)
    with pytest.raises(ConstructionError) as info:
        _verify(cfg, list(by_colour[-1]))
    assert str(info.value) == "points plus origin not in general position"
    assert info.value.achieved == 8
    monkeypatch.setattr(constructions, "in_general_position", lambda points: False)
    assert refused(capsys, "gen", "sprime", "--dim", "2") == (
        "construction failed: sprime(d=2): points plus origin not in general position")


def test_verify_refuses_an_origin_outside_a_colour_hull(monkeypatch, capsys):
    # The first colour is a segment away from the origin, yet both colourful
    # triangles hold the origin in their interiors.
    cfg = ColourfulConfiguration.from_lists(2, [[(1, 0), (2, 1)], [(-1, 2)], [(-1, -2)]])
    with pytest.raises(ConstructionError) as info:
        _verify(cfg, [2])
    assert str(info.value) == "origin is not strictly inside every colour hull"
    assert info.value.achieved == 2
    monkeypatch.setattr(constructions, "core_membership", lambda *a, **k: False)
    assert refused(capsys, "gen", "splus", "--dim", "2") == (
        "construction failed: splus(d=2): origin is not strictly inside every colour hull")


def test_random_core_config_redraws_after_a_general_position_failure(monkeypatch):
    real = constructions.in_general_position
    asked = []

    def first_fails(points):
        asked.append(points)
        return len(asked) > 1 and real(points)

    monkeypatch.setattr(constructions, "in_general_position", first_fails)
    vc = gen_random_core_config(2, 3, seed=0)
    assert vc.retries == 1 and len(asked) == 2 and asked[0] != asked[1]
    assert core_membership(vc.config, origin(2), strict=True)
    recheck(vc)


def test_random_core_config_gives_up_after_its_tries(monkeypatch, capsys):
    asked = []

    def never(points):
        asked.append(points)
        return False

    monkeypatch.setattr(constructions, "in_general_position", never)
    message = f"no general-position core configuration after {RANDOM_CORE_TRIES} attempts"
    with pytest.raises(ConstructionError) as info:
        gen_random_core_config(2, 3, seed=0)
    assert str(info.value) == message and len(asked) == RANDOM_CORE_TRIES
    assert refused(capsys, "gen", "random", "--dim", "2") == f"construction failed: {message}"


def test_random_core_config_reports_an_exhausted_sampler(monkeypatch, capsys):
    def exhausted(*args):
        raise SamplingError("no draw left")

    monkeypatch.setattr(constructions, "random_core_class", exhausted)
    with pytest.raises(ConstructionError) as info:
        gen_random_core_config(2, 3, seed=0)
    assert str(info.value) == "core sampling budget exhausted: no draw left"
    assert isinstance(info.value.__cause__, SamplingError)
    assert refused(capsys, "gen", "random", "--dim", "2") == (
        "construction failed: core sampling budget exhausted: no draw left")


def test_ngon_refuses_points_not_in_general_position(monkeypatch, capsys):
    monkeypatch.setattr(constructions, "in_general_position", lambda points: False)
    with pytest.raises(ConstructionError) as info:
        gen_regular_ngon(7)
    assert str(info.value) == "could not place a 7-gon in general position"
    assert refused(capsys, "gen", "ngon", "--n", "7") == (
        "construction failed: could not place a 7-gon in general position")


def test_identical_refuses_a_closed_count_unlike_its_open_one(monkeypatch, capsys):
    real = constructions.colourful_depth

    def closed_one_more(config, p, mode="open"):
        rep = real(config, p, mode)
        return rep._replace(count=rep.count + 1) if mode == "closed" else rep

    monkeypatch.setattr(constructions, "colourful_depth", closed_one_more)
    with pytest.raises(ConstructionError) as info:
        gen_identical(2)
    assert str(info.value) == "identical-class closed depth 7, wanted 6"
    assert info.value.achieved == 7
    assert refused(capsys, "gen", "identical", "--dim", "2") == (
        "construction failed: identical-class closed depth 7, wanted 6")
