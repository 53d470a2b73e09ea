"""Exact round-trip tests for the JSON formats."""

import json
from fractions import Fraction
from random import Random

import pytest

from colourdepth.cli import main
from colourdepth.depth import ColourfulConfiguration
from colourdepth.exact import InputError, Point, pt
from colourdepth.sampling import random_points
from colourdepth.serialization import (
    config_from_dict,
    config_to_dict,
    fraction_to_json,
    load_config,
    load_points,
    parse_fraction,
    parse_point,
    points_from_dict,
    points_to_dict,
    save_config,
    save_points,
)


def test_fraction_json_forms():
    assert fraction_to_json(Fraction(3)) == 3
    assert fraction_to_json(Fraction(-1, 2)) == "-1/2"
    assert parse_fraction(3) == 3
    assert parse_fraction("3") == 3
    assert parse_fraction("-7/4") == Fraction(-7, 4)


def test_parse_fraction_rejects_garbage():
    for bad in ("x", "1/0", 1.5, True, None):
        with pytest.raises(InputError):
            parse_fraction(bad)


def test_parse_point():
    p = parse_point("1/2,-3")
    assert p == pt(Fraction(1, 2), -3)
    with pytest.raises(InputError):
        parse_point("1/2", dim=2)
    with pytest.raises(InputError):
        parse_point("")
    for text in ("1,,2", ",1", "1,2,"):
        with pytest.raises(InputError, match="empty coordinate"):
            parse_point(text)


def test_config_roundtrip_exact(tmp_path):
    rng = Random(2)
    classes = tuple(tuple(random_points(rng, 3, 2, bound=1000)) for _ in range(3))
    config = ColourfulConfiguration(2, classes)
    path = tmp_path / "cfg.json"
    save_config(config, path)
    assert load_config(path) == config


def test_config_dict_validation():
    with pytest.raises(InputError):
        config_from_dict({"colours": []})
    with pytest.raises(InputError):
        config_from_dict({"dimension": 2, "colours": [[[1, 2, 3]]]})


def test_points_roundtrip(tmp_path):
    pts = [pt(Fraction(1, 3), -2), pt(0, Fraction(7, 5))]
    path = tmp_path / "pts.json"
    save_points(pts, path)
    assert load_points(path) == pts


def test_points_accepts_single_colour_config(tmp_path):
    config = ColourfulConfiguration(2, ((pt(1, 0), pt(0, 1)),))
    path = tmp_path / "cfg.json"
    save_config(config, path)
    assert load_points(path) == [pt(1, 0), pt(0, 1)]


def test_point_set_refuses_several_colours_and_other_dimensions():
    with pytest.raises(InputError) as info:
        points_from_dict({"dimension": 2, "colours": [[[1, 0]], [[0, 1]]]})
    assert str(info.value) == "point-set file expected; configuration has several colours"
    with pytest.raises(InputError) as info:
        points_from_dict({"dimension": 2, "points": [[1, 0], [1, 2, 3]]})
    assert str(info.value) == "point of dimension 3 in a dimension-2 file"


def test_mixed_int_and_string_coordinates():
    data = {"dimension": 1, "colours": [[[1], ["1/2"]]]}
    config = config_from_dict(data)
    assert config.classes[0][1] == Point([Fraction(1, 2)])
    assert config_to_dict(config) == {"dimension": 1, "colours": [[[1], ["1/2"]]]}


@pytest.mark.parametrize("call", [
    lambda: points_to_dict([]),
    lambda: points_from_dict({"points": []}),
])
def test_empty_point_set_is_refused_both_ways(call):
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == "empty point set"


@pytest.mark.parametrize("data, message", [
    ([[0, 0], [1, 0], [0, 1]], "point-set file must hold a JSON object, got list"),
    ({"dimension": 2}, "point-set file needs a 'points' (or one-colour 'colours') key"),
])
def test_point_set_file_without_points_is_one_line_input_error(capsys, tmp_path, data, message):
    with pytest.raises(InputError) as info:
        points_from_dict(data)
    assert str(info.value) == message
    path = tmp_path / "pts.json"
    path.write_text(json.dumps(data))
    assert main(["depth", "--points", str(path), "--point", "0,0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
