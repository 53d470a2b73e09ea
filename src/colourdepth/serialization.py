"""Exact JSON round-tripping of configurations and point sets.

Coordinates serialize as rational strings "num/den" (plain integers allowed
as shorthand), never as floats, so a parse-write cycle reproduces every value
bit for bit.  Every coordinate read back is parsed by the one rational
parser of `exact`, which `Point` applies to its own coordinates: integers
and "num/den" strings become integer pairs with `int()` alone, and the
point's row is built from them.  `parse_fraction` is that parser with a
`Fraction` result.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .depth import ColourfulConfiguration
from .exact import InputError, Point, parse_fraction

__all__ = [
    "fraction_to_json",
    "parse_fraction",
    "parse_point",
    "config_to_dict",
    "config_from_dict",
    "save_config",
    "load_config",
    "points_to_dict",
    "points_from_dict",
    "load_points",
    "save_points",
]


def fraction_to_json(f: Fraction):
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_point(text: str, dim: int | None = None) -> Point:
    """Parse a comma-separated list of rationals, e.g. '1/2,-3'; an empty
    coordinate, as in '1,,2' or '1,2,', is an `InputError`."""
    if not text.strip():
        raise InputError("empty point")
    parts = text.split(",")
    if not all(s.strip() for s in parts):
        raise InputError(f"empty coordinate in point {text!r}")
    p = Point(parts)
    if dim is not None and p.dim != dim:
        raise InputError(f"point has dimension {p.dim}, expected {dim}")
    return p


def _coords_to_json(p: Point) -> list:
    return [fraction_to_json(c) for c in p.coords]


def config_to_dict(config: ColourfulConfiguration) -> dict:
    return {
        "dimension": config.dim,
        "colours": [[_coords_to_json(p) for p in cls] for cls in config.classes],
    }


def _check_dimension(dim) -> None:
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise InputError("'dimension' must be an integer")


def _check_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def config_from_dict(data: dict) -> ColourfulConfiguration:
    if not isinstance(data, dict):
        raise InputError(f"configuration file must hold a JSON object, got {type(data).__name__}")
    try:
        dim = data["dimension"]
        colours = data["colours"]
    except KeyError as e:
        raise InputError(f"configuration file needs 'dimension' and 'colours': {e}") from e
    _check_dimension(dim)
    classes = []
    for cls in _check_list(colours, "'colours'"):
        points = []
        for coords in _check_list(cls, "a colour class"):
            if len(_check_list(coords, "a coordinate list")) != dim:
                raise InputError(
                    f"coordinate list {coords} does not have length {dim}"
                )
            points.append(Point(coords))
        classes.append(tuple(points))
    return ColourfulConfiguration(dim, tuple(classes))


def _write_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as e:
            # a JSONDecodeError, an over-long integer, or nesting past the recursion limit
            raise InputError(f"{path}: not valid JSON: {e}") from e


def save_config(config: ColourfulConfiguration, path) -> None:
    _write_json(config_to_dict(config), path)


def load_config(path) -> ColourfulConfiguration:
    return config_from_dict(_read_json(path))


def points_to_dict(points: Sequence[Point]) -> dict:
    if not points:
        raise InputError("empty point set")
    return {
        "dimension": points[0].dim,
        "points": [_coords_to_json(p) for p in points],
    }


def points_from_dict(data: dict) -> list[Point]:
    if not isinstance(data, dict):
        raise InputError(f"point-set file must hold a JSON object, got {type(data).__name__}")
    if "points" in data:
        dim = data.get("dimension")
        if dim is not None:
            _check_dimension(dim)
        pts = [
            Point(_check_list(coords, "a coordinate list"))
            for coords in _check_list(data["points"], "'points'")
        ]
    elif "colours" in data:
        config = config_from_dict(data)
        if config.num_classes != 1:
            raise InputError("point-set file expected; configuration has several colours")
        dim = config.dim
        pts = list(config.classes[0])
    else:
        raise InputError("point-set file needs a 'points' (or one-colour 'colours') key")
    if not pts:
        raise InputError("empty point set")
    if dim is not None:
        for p in pts:
            if p.dim != dim:
                raise InputError(f"point of dimension {p.dim} in a dimension-{dim} file")
    return pts


def load_points(path) -> list[Point]:
    return points_from_dict(_read_json(path))


def save_points(points: Sequence[Point], path) -> None:
    _write_json(points_to_dict(points), path)
