#!/usr/bin/env python3
"""Walk through the order-3 twisted module construction on the free fermion:
dressing, twisted generator modes, the grading operator, and the character."""

from __future__ import annotations

from fractions import Fraction as F

from permtwist import (
    char_plain,
    char_twisted,
    corollary_check,
    delta_apply,
    get_ring,
    omega_vec,
    psi_vec,
    twisted_mode,
    vac_vec,
)

ring = get_ring(3)
psi, omega = psi_vec(ring), omega_vec(ring)

print("== dressing of the generator and the conformal vector (k = 3) ==")
for name, u in (("psi", psi), ("omega", omega)):
    for e, vec in sorted(delta_apply(u).by_exponent()):
        print(f"  D(x) {name}: x^({e}) * {vec.render()}")

print("\n== twisted generator modes are scaled plain modes ==")
for m in (F(-1, 3), F(0), F(2, 3)):
    print(f"  psi^g_({m}) = {twisted_mode(psi, m).render()}")

print("\n== grading operator on the first states ==")
act = twisted_mode(omega, 1)
for label, w in (("|0>", vac_vec(ring)), ("psi(-1/2)|0>", psi)):
    got = act.apply(w).scale(3)
    print(f"  3 * omega^g_1 {label} = {got.render()}")

print("\n== characters ==")
print("  plain   :", char_plain(2).render(6))
print("  twisted :", char_twisted(3, F(2, 3)).render(6))
rep = corollary_check(3, 2)
print(f"  corollary check: {rep.status} on {rep.window}")
