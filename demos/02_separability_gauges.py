"""Deciding entanglement and measuring how entangled a direction is.

On two qubits the PPT criterion decides separability exactly, which makes
three nested convex bodies measurable: all states, PPT states, separable
states. Their Minkowski gauges of the Bell-state direction recover the
classic Werner-state fact: p |phi+><phi+| + (1-p) Id/4 stays separable
up to p = 1/3, i.e. the separable gauge of the direction is 3.
"""

import math

import numpy as np

from entanglab import (
    DensityMatrix,
    ProductDims,
    SeededStream,
    gauge_ppt,
    gauge_separable,
    gauge_states,
    is_separable_exact,
    min_pt_eigenvalue,
    support_separable,
)

dims = ProductDims((2, 2))
phi = np.zeros(4, dtype=complex)
phi[0] = phi[3] = 1 / math.sqrt(2)
bell = np.outer(phi, phi.conj())

print("=== Werner states p|phi+><phi+| + (1-p) Id/4 ===")
for p in (0.2, 1 / 3, 0.5, 0.9):
    rho = DensityMatrix(dims, p * bell + (1 - p) * np.eye(4) / 4)
    sep = is_separable_exact(rho)
    print(f"  p={p:.3f}: min PT eigenvalue = {min_pt_eigenvalue(rho):+.4f}  separable={sep}")

print()
print("=== gauges of the direction A = |phi+><phi+| - Id/4 ===")
A = bell - np.eye(4) / 4
print(f"  all states : {gauge_states(A):.6f}")
print(f"  PPT states : {gauge_ppt(A, dims):.6f}")
res = gauge_separable(A, dims)
print(f"  separable  : {res.value:.6f}  (exact: on two qubits separable = PPT,"
      f" {res.membership_evals} eigensolves)")
print("  the three bodies are nested, so the gauges are ordered")

print()
print("=== support function: best product state against A ===")
sup = support_separable(A, dims, restarts=16, stream=SeededStream(4))
print(f"  h(A) = {sup.value:.6f}  (= 1/2 - 1/4: best product overlap with phi+ is 1/2)")
psi = np.kron(sup.maximizer[0], sup.maximizer[1])
print(f"  witness product state achieves {np.real(psi.conj() @ A @ psi):.6f}")

print()
print("=== works for any number of factors ===")
rng = np.random.default_rng(5)
dims3 = ProductDims((2, 2, 2))
B = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
B = (B + B.conj().T) / 2
B -= np.trace(B).real / 8 * np.eye(8)
sup3 = support_separable(B, dims3, restarts=16, stream=SeededStream(5))
print(f"  three-qubit direction: h(B) >= {sup3.value:.6f} (certified lower bound)")
