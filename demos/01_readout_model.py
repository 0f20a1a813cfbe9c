"""What a single NMR read-out actually measures.

Walks through the forward model: the nine pre-acquisition rotations, the
16-parameter layout of a two-spin density matrix, and how each read-out
turns two peak integrals into four linear equations in those parameters.
"""

import numpy as np

from tomoforge import (
    ROTATION_LABELS,
    assemble_design,
    matrix_to_params,
    observable_positions,
    params_to_matrix,
    readout_label,
    readout_rows,
    readout_spin,
    rotation_matrix,
)

np.set_printoptions(precision=3, suppress=True, linewidth=120)

print("The nine rotations applied before acquisition:")
for label in ROTATION_LABELS:
    r = rotation_matrix(label)
    unitary_defect = np.max(np.abs(r @ r.conj().T - np.eye(4)))
    print(f"  {label}: unitary within {unitary_defect:.1e}")

print("\nA density matrix is 16 real parameters: 4 populations (x1, x5, x8, x10),")
print("6 coherence real parts (x2, x3, x4, x6, x7, x9) and 6 imaginary parts (x11..x16).")

x = np.zeros(16)
x[[0, 4, 7, 9]] = [0.4, 0.3, 0.2, 0.1]   # populations
x[2] = 0.05                              # real part of element (1,3)
x[12] = -0.02                            # imaginary part of element (1,4)
rho = params_to_matrix(x)
print("\nExample state from a hand-picked parameter vector:")
print(rho)
print("round trip back to parameters is exact:", np.array_equal(matrix_to_params(rho), x))

print("\nEach read-out id pairs a rotation with an acquired spin and reads two")
print("fixed off-diagonal elements of the rotated matrix:")
for rid in (1, 4, 10, 14):
    label, spin = readout_label(rid), readout_spin(rid)
    (li, lj), (ri, rj) = observable_positions(rid)
    print(f"  id {rid:2d} = {label} then acquire {spin}: "
          f"left peak = element ({li},{lj}), right peak = element ({ri},{rj})")

print("\nRead-out 4 (XI, acquire H) in detail. The rotated element (1,3) is")
print("x3 + i/2 (x1 - x8), so its real and imaginary parts give these rows:")
rows, labels = readout_rows(4)
for row, label in zip(rows[:2], labels[:2]):
    terms = " ".join(f"{c:+.2f}*x{k + 1}" for k, c in enumerate(row) if abs(c) > 1e-12)
    print(f"  {label}: {terms}")

r = rotation_matrix("XI")
rotated = r @ rho @ r.conj().T
predicted = rows[:2] @ x
print(f"row model:    re = {predicted[0]:+.6f}, im = {predicted[1]:+.6f}")
print(f"matrix model: re = {rotated[0, 2].real:+.6f}, im = {rotated[0, 2].imag:+.6f}")

design = assemble_design(range(1, 19))
print(f"\nStacking all 18 read-outs plus the trace row gives the "
      f"{design.rows}x16 design system.")
