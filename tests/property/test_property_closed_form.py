"""A single Eq. (8) branch is valid over ``Γn`` exactly when its φ is onto.

If ``φ ∈ hom(Q2, Q1)`` is onto ``V = vars(Q1)``, the branch
``E_T∘φ − h(V)`` telescopes into conditional mutual informations
(:func:`repro.core.containment.closed_form_verdict`); if φ misses some
``x``, the step function ``h_{V∖x}`` makes it ``−1``.  Checked against the
Shannon prover's LP on random pairs at ``n = 2–6``, where ``Q1`` is an image
of ``Q2`` plus atoms that may bring fresh variables, so that both outcomes
occur.
"""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.containment import closed_form_verdict
from repro.core.containment_inequality import build_containment_inequality
from repro.cq.query import Atom, ConjunctiveQuery
from repro.infotheory.shannon import shannon_prover
from repro.workloads.generators import random_query

#: Branches checked per pair, each one LP.
MAX_BRANCHES = 8


def image_with_extras(q2: ConjunctiveQuery, rng: random.Random, fresh: int) -> ConjunctiveQuery:
    """``Q2`` mapped onto ``y0 … y(m-1)`` plus atoms that add ``fresh`` new variables."""
    size = rng.randint(1, len(q2.variables))
    names = [f"y{i}" for i in range(size)]
    targets = names + [rng.choice(names) for _ in range(len(q2.variables) - size)]
    rng.shuffle(targets)
    image = dict(zip(q2.variables, targets))
    atoms = [atom.rename(image) for atom in q2.atoms]
    for index in range(fresh):
        atoms.append(Atom("R", (rng.choice(names), f"z{index}")))
    for _ in range(rng.randint(0, 2)):
        atoms.append(Atom("R", (rng.choice(names), rng.choice(names))))
    return ConjunctiveQuery(atoms=tuple(atoms), head=(), name="Q1")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1 << 30),
)
def test_a_single_branch_is_valid_exactly_when_its_homomorphism_is_onto(
    variables, atoms, fresh, seed
):
    q2 = random_query(variables, atoms, relations=(("R", 2),), seed=seed, name="Q2")
    q1 = image_with_extras(q2, random.Random(seed), fresh)
    assume(2 <= len(q1.variables) <= 6)
    inequality = build_containment_inequality(q1, q2)
    prover = shannon_prover(inequality.ground)
    ground = set(inequality.ground)
    onto = [set(branch.homomorphism.values()) == ground for branch in inequality.branches]
    max_ii = inequality.as_max_ii()
    for is_onto, expression in list(zip(onto, max_ii.branches))[:MAX_BRANCHES]:
        assert prover.is_valid(expression) == is_onto
    assert (closed_form_verdict(inequality) is not None) == any(onto)
