"""Local invariants of differential operators, step by step.

Parses a few operators and walks through the machinery that reads off
their local structure: one theta expansion per point, and the weight,
characteristic polynomial, Newton polygon and regularity read off it,
then the extracted formal data.
"""

from fractions import Fraction

from irrkatz import (
    INF,
    char_poly,
    extract_formal_data,
    is_regular_singular,
    newton_polygon,
    parse,
    singular_points,
    theta_expand,
)

ZERO = Fraction(0)


def section(title):
    print()
    print(f"== {title}")


section("a first-order operator: x*D - 5")
p = parse("x*D - 5")
print("operator:      ", p)
at_0 = theta_expand(p, ZERO)
print("weight at 0:   ", at_0.min_index)
print("char poly at 0:", char_poly(at_0).format("t"), "-> exponent 5")
print("char poly at oo:", char_poly(theta_expand(p, INF)).format("t"), "-> exponent -5")
print("theta form at 0:", [(i, q.format("t")) for i, q in at_0.terms])

section("the triconfluent operator: D^2 + (-x^2-7)*D + (-2*x+3)")
tri = parse("D^2 + (-x^2-7)*D + (-2*x+3)")
print("operator:        ", tri)
print("finite singular points:", singular_points(tri), "(none: everything sits at infinity)")
tri_inf = theta_expand(tri, INF)
np = newton_polygon(tri_inf)
print("Newton polygon at oo: vertices", np.vertices, "slopes", [str(s) for s in np.slopes])
print("regular singular at oo?", is_regular_singular(tri_inf))
data = extract_formal_data(tri)
print("formal data:", data)
print("note the slope-3 factor: its theta form is x^3 + 7x, degree = slope")

section("a ramified example the engine honestly refuses: Airy")
try:
    extract_formal_data(parse("D^2 - x"))
except Exception as exc:
    print("extract_formal_data(D^2 - x) ->", type(exc).__name__, "-", exc)
