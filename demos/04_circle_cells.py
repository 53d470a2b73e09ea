"""Cell depths on the circle for two planar colour classes.

Two classes of three or more points (each with the origin strictly inside
its hull) cut the circle into one arc per point.  Each arc's depth counts the
colourful cones covering it; crossing a boundary ray changes the count by the
points of the other class ahead of the ray less those behind it, which is
+-1 for the three-point classes below.  The engine reads the ray order and
every crossing from one angular sweep, counts the cones over one cell, and
propagates that count around the circle, which must close up.
"""

import math
from fractions import Fraction

from colourdepth import (
    Point,
    canonical_rotation,
    cell_depth_sequence,
    crossing_delta,
    gen_sminus,
    gen_splus,
    verify_cell_depth_lemma,
)


def circle_point(angle_deg, digits=9):
    t = math.tan(math.radians(angle_deg) / 2)
    tf = Fraction(round(t * 10**digits), 10**digits)
    den = 1 + tf * tf
    return Point(((1 - tf * tf) / den, 2 * tf / den))


# The crossing rule itself: l cones unaffected, u points off the hyperplane,
# k of them on the side being left.
print("count after crossing (l=0, u=4, k=1, d=2):", crossing_delta(0, 4, 1, 2))

# The minimum configuration has the lopsided cell profile with a unique
# depth-1 cell (the sparse cell the construction exploits).
cfg = gen_sminus(2).config
arr = cell_depth_sequence(cfg.classes[0], cfg.classes[1])
print("minimum-depth configuration cells:", canonical_rotation(arr.cell_depths))
print("cell depth law:", verify_cell_depth_lemma(arr).lemma_ok)

# The deep configuration shows the same family: its depth-4 cell is the one
# that swallows two antipodes.
cfg = gen_splus(2).config
arr = cell_depth_sequence(cfg.classes[0], cfg.classes[1])
print("maximum-depth configuration cells:", canonical_rotation(arr.cell_depths))

# Two rotated concentric triangles give the balanced family instead.
X = [circle_point(a) for a in (90, 210, 330)]
Y = [circle_point(a + 17) for a in (30, 150, 270)]
arr = cell_depth_sequence(X, Y)
print("rotated triangles cells:", tuple(arr.cell_depths), "(balanced family)")
print("boundary labels:", [(r.colour, r.index) for r in arr.boundaries])
