"""Barrier geometry: distance, nearest point, reflection, regularity scales.

Walks through the closed-form queries on a line and a circle, the Newton
projection on a parametric ellipse (whose callables map an array of
parameters to shape (2,) + theta.shape), and shows how the reflection
regularity scale tracks curvature (and caps out for flat barriers).
"""

import numpy as np

from fbmcf.barrier import Circle, Line, ParametricBarrier

line = Line(normal=(0.0, -1.0), offset=0.0)      # barrier y = 0, Omega above
circle = Circle((0.0, 0.0), 1.0)

print("== closed-form queries ==")
x = np.array([3.0, 4.0])
print(f"distance from {x} to the line y=0:   {line.distance(x)}")
print(f"nearest point:                        {line.project(x)}")
print(f"mirror image:                         {line.reflect_point(x)}")

x = np.array([0.5, 0.0])
print(f"\ncircle: project {x} -> {circle.project(x)}, mirror -> "
      f"{circle.reflect_point(x)}")

print("\n== involution check (reflecting twice returns the point) ==")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    ang = rng.uniform(0, 2 * np.pi)
    p = (1.0 + rng.uniform(-0.4, 0.4)) * np.array([np.cos(ang), np.sin(ang)])
    back = circle.reflect_point(circle.reflect_point(p))
    worst = max(worst, np.linalg.norm(back - p))
print(f"worst |reflect(reflect(x)) - x| over 200 samples: {worst:.3e}")

print("\n== parametric ellipse (Newton projection, multistart) ==")
a, b = 2.0, 1.0
ellipse = ParametricBarrier.from_function(
    lambda t: np.array([a * np.cos(t), b * np.sin(t)]),
    lambda t: np.array([-a * np.sin(t), b * np.cos(t)]),
    lambda t: np.array([-a * np.cos(t), -b * np.sin(t)]), n_samples=256)
print(f"project (0, 2) onto the 2x1 ellipse: {ellipse.project(np.array([0.0, 2.0]))}")
print(f"estimated reach: {ellipse.reach:.4f}")

print("\n== regularity scales ==")
y = np.array([1.0, 0.0])
print(f"circle r_2          : {circle.regularity_scale(y, 2):.4f}")
print(f"circle r_3          : {circle.regularity_scale(y, 3):.4f}")
print(f"circle r_S          : {circle.reflection_regularity_scale(y):.4f}")
print(f"ellipse r_S (vertex): "
      f"{ellipse.reflection_regularity_scale(np.array([2.0, 0.0])):.4f}")
print(f"flat barrier r_S    : {line.reflection_regularity_scale(np.zeros(2)):.3g}"
      " (configured cap)")
