"""Generator tests: exact claimed counts, decompositions, and determinism."""

from fractions import Fraction

import pytest

from colourdepth.constructions import (
    ConstructionError,
    ConstructionSpec,
    gen_identical,
    gen_random_core_config,
    gen_regular_ngon,
    gen_sminus,
    gen_splus,
    gen_sprime,
    generate,
    _build,
    _sprime_classes,
)
from colourdepth.depth import (
    colourful_depth,
    core_membership,
    monochrome_depth,
    zero_containing_count,
)
from colourdepth.exact import InputError, in_general_position, origin


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


def test_known_failures_at_d4_are_pinned():
    # Neither band construction meets its claim at d = 4 yet: S- lands in a
    # cell of the wrong coverage, and S+ has the right depth but flat classes.
    with pytest.raises(ConstructionError) as info:
        gen_sminus(4)
    assert str(info.value) == "sminus(d=4): open depth at origin is 22, wanted 17"
    assert info.value.achieved == 22
    with pytest.raises(ConstructionError) as info:
        gen_splus(4)
    assert str(info.value) == "splus(d=4): origin is not strictly inside every colour hull"
    assert info.value.achieved == 1025


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
    for d in (2, 3):
        vc = gen_splus(d)
        counts = list(vc.last_colour_counts)
        assert counts == [d**d] * d + [1]


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


# ---------------------------------------------------------------------- spec API


def test_generate_dispatch():
    vc = generate(ConstructionSpec(kind="sminus", dim=2))
    assert vc.claimed_depth_at_origin == 5
    with pytest.raises(InputError):
        generate(ConstructionSpec(kind="nope", dim=2))
    vc = generate(ConstructionSpec(kind="random_core", dim=2, seed=4))
    assert vc == gen_random_core_config(2, 3, seed=4)


def test_spec_validation():
    with pytest.raises(InputError):
        ConstructionSpec(kind="sminus", dim=0)
    with pytest.raises(InputError):
        ConstructionSpec(kind="sminus", dim=2, epsilon=Fraction(-1, 100))


def test_custom_epsilon_still_verifies():
    vc = gen_sminus(2, Fraction(1, 300))
    assert vc.claimed_depth_at_origin == 5
