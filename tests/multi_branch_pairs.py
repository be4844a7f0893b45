"""CONTAINED pairs whose certificate needs several Eq. (8) branches.

No homomorphism ``Q2 → Q1`` of these pairs is onto ``vars(Q1)``, so no
branch is valid on its own (:func:`repro.core.containment.closed_form_verdict`
has no proof for them) and the ``Γn`` LP decides them.  Importable from every
test module: pytest puts ``tests/`` (the directory of the root
``conftest.py``) on ``sys.path``.
"""

from __future__ import annotations

from repro.cq.parser import parse_query
from repro.workloads.generators import path_query
from repro.workloads.paper_examples import chaudhuri_vardi_example, vee_example

TRIANGLE = parse_query("R(x,y), R(y,z), R(z,x)")
VEE = parse_query("R(a,b), R(a,c)")


def triangle_vee_with_path(k: int):
    """``triangle ⊎ path_k ⊑ vee ⊎ path_k``, over ``k + 4`` variables.

    ``hom(A ⊎ P, D) = hom(A, D) · hom(P, D)``, so each side conjoined with
    the same variable-disjoint path of ``k`` edges keeps the paper's VEE pair
    (Example 4.3) contained and scales its arity: ``n = 8`` and ``9`` at
    ``k = 4`` and ``5``, with 28 and 32 branches.
    """
    path = path_query(k).with_fresh_variables("_p")
    return TRIANGLE.conjoin(path), VEE.conjoin(path)


_VEE = vee_example()

#: The paper's VEE and Chaudhuri–Vardi pairs (Examples 4.3 and A.2) and the
#: VEE pair scaled to ``n = 8`` and ``9``.
MULTI_BRANCH_PAIRS = {
    "vee": (_VEE.q1, _VEE.q2),
    "chaudhuri-vardi": chaudhuri_vardi_example(),
    "triangle-vee-path4": triangle_vee_with_path(4),
    "triangle-vee-path5": triangle_vee_with_path(5),
}
