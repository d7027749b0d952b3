"""
Mechanical verification of the commutation theorems
===================================================

Two facts make deviation equations trustworthy:

* Lagrangian: the Euler-Lagrange operator of the vertically extended
  density VL equals the deviation of the Euler-Lagrange operator of L,
  so "linearize then vary" and "vary then linearize" agree.
* Hamiltonian: the Hamilton equations of the vertical Hamiltonian VH
  equal the deviation of the Hamilton equations of H.

check_model verifies either identity pair by pair, exactly: both sides
of a pair are built by derivations over the same atoms, so the pair
holds when their canonical normal forms coincide.
"""

from pathlib import Path

from deviq import check_model, load_model

MODELS = Path(__file__).resolve().parent.parent / "models"

# Lagrangian side: every pair compares one component of EL(VL) with
# the matching component of d_V(EL(L)).
for name in ("pendulum", "sphere", "wave"):
    report = check_model(load_model(MODELS / f"{name}.eqn"))
    print(f"{name}:")
    print(report)
    print()

# Hamiltonian side: the pairs run over the velocity equations and the
# momentum equations of both derivations.
for name in ("hpend", "hkepler"):
    report = check_model(load_model(MODELS / f"{name}.eqn"))
    print(f"{name}:")
    print(report)
    print()
