"""Wall-and-chamber decompositions of the lifted-polarization cones.

Classes m*h + n*xi sweep out a two-dimensional cone of effective classes;
walking it in primitive integer rays (m, n) finds the walls where an
exceptional curve must be flopped to the other component and the boundary
rays where the class stops being ample on a whole component.
"""

from degen_atlas import catalogue_model, fan_diagram, lift_fan, stable_model_at
from degen_atlas.surface_pair import curve_catalogue, flop_all

for mid in ("A15", "E7E7A3", "E8E8"):
    fan = lift_fan(catalogue_model(mid))
    print(fan_diagram(fan))
    print()

# Stable models at the rays of the E8E8 cone: the lower boundary contracts
# the (transported) big component to a point.
m = catalogue_model("E8E8")
state = flop_all(m, ["e'10", "e'9"])  # the chamber adjacent to the boundary
curves = curve_catalogue(state)  # the curve whitelist of that chamber's model
desc = stable_model_at(state, curves, (1, -3))
for i, fate in enumerate(desc.components):
    print(f"E8E8 at h-3xi, V{i}: {fate.verdict}")

# At an interior chamber point nothing is contracted.
desc = stable_model_at(state, curves, (2, -5))
print("E8E8 at 2h-5xi:", [f.verdict for f in desc.components])
