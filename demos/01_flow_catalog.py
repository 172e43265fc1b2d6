"""Tour of the flow catalog: closed forms, the RK4 oracle, orbit samples."""

import math

import numpy as np

from expanse import (
    CircleUnion,
    exp_radii,
    field_norm,
    integrate_flow,
    interval_flow,
    interval_flow_transit_time,
    min_orbit_diameter,
    rotation_flow,
    sample_orbit,
)

# The interval flow x' = x(1-x): closed form against the integrator.
flow = interval_flow(1.0)
x = np.array([0.5])
t = math.log(2.0)
closed = flow.evaluate(t, x)
rk4 = integrate_flow(flow.vector_field, t, x, step=1e-4)
print(f"phi_ln2(1/2): closed form {closed[0]:.12f}, RK4 {rk4[0]:.12f} (exact 2/3)")

# Transit times are explicit: time from 1/3 to 2/3 is ln 4.
print(f"transit 1/3 -> 2/3: {interval_flow_transit_time(1/3, 2/3):.9f}"
      f" vs ln 4 = {math.log(4):.9f}")

# Orbit samples hold times and points; the weights come from the flow's
# singular set and field, evaluated at the sampled points.
s = sample_orbit(flow, x, T=5.0, h=0.5)
print("\norbit of 1/2 on [-5, 5]:")
for tt, p, d, v in zip(s.times, s.points, flow.singular.distances(s.points),
                       field_norm(flow, s.points)):
    print(f"  t={tt:+5.1f}  x={p[0]:.6f}  dist to Sing={d:.6f}  |V|={v:.6f}")

# Rotations on unions of circles: every circle is a periodic orbit, and the
# sampled orbit diameter equals the full chord 2r.
rot = rotation_flow(CircleUnion(exp_radii(4)))
r = math.exp(-2)
d = min_orbit_diameter(rot, [np.array([r, 0.0])], T=math.pi, h=0.01)
print(f"\nrotation orbit diameter at radius e^-2: {d:.9f} (2r = {2*r:.9f})")
