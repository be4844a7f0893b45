"""Information-theoretic substrate.

Implements everything the paper assumes about entropies and information
inequalities (Sections 2.3, 3.2 and Appendices B–C):

* set functions over a ground set of variables (:mod:`repro.infotheory.setfunction`),
* entropies of distributions and relations (:mod:`repro.infotheory.entropy`),
* polymatroids, elemental Shannon inequalities and the cones
  ``Mn ⊆ Nn ⊆ Γ*n ⊆ Γn`` (:mod:`repro.infotheory.polymatroid`,
  :mod:`repro.infotheory.cones`),
* step / modular / normal / parity functions (:mod:`repro.infotheory.functions`),
* the Möbius inverse / I-measure (:mod:`repro.infotheory.imeasure`),
* linear and max-linear information expressions and inequalities
  (:mod:`repro.infotheory.expressions`),
* the Shannon prover and the Max-II decision procedures over polyhedral cones
  (:mod:`repro.infotheory.shannon`, :mod:`repro.infotheory.maxiip`),
* the normalization constructions of Lemma 3.7 / Appendix C
  (:mod:`repro.infotheory.normalization`),
* group-characterizable entropies (:mod:`repro.infotheory.group_entropy`).
"""

from repro.infotheory.setfunction import SetFunction
from repro.infotheory.entropy import (
    entropy_of_counts,
    entropy_of_distribution,
    distribution_entropy,
    relation_entropy,
)
from repro.infotheory.functions import (
    modular_function,
    normal_function,
    parity_function,
    step_function,
    uniform_function,
    zero_function,
)
from repro.infotheory.polymatroid import (
    elemental_inequalities,
    is_modular,
    is_monotone,
    is_polymatroid,
    is_submodular,
)
from repro.infotheory.imeasure import (
    from_mobius_inverse,
    i_measure,
    is_normal_function,
    mobius_inverse,
)
from repro.infotheory.expressions import (
    ConditionalExpression,
    ConditionalTerm,
    InformationInequality,
    LinearExpression,
    MaxInformationInequality,
)
from repro.infotheory.shannon import ShannonCertificate, ShannonProver, shannon_prover
from repro.infotheory.cones import GammaCone, ModularCone, NormalCone
from repro.infotheory.maxiip import MaxIIVerdict, decide_max_ii, decide_max_ii_many
from repro.infotheory.normalization import modular_lower_bound, normal_lower_bound

__all__ = [
    "SetFunction",
    "entropy_of_counts",
    "entropy_of_distribution",
    "distribution_entropy",
    "relation_entropy",
    "step_function",
    "modular_function",
    "normal_function",
    "parity_function",
    "uniform_function",
    "zero_function",
    "is_polymatroid",
    "is_monotone",
    "is_submodular",
    "is_modular",
    "elemental_inequalities",
    "mobius_inverse",
    "from_mobius_inverse",
    "i_measure",
    "is_normal_function",
    "LinearExpression",
    "ConditionalTerm",
    "ConditionalExpression",
    "InformationInequality",
    "MaxInformationInequality",
    "ShannonProver",
    "ShannonCertificate",
    "shannon_prover",
    "GammaCone",
    "NormalCone",
    "ModularCone",
    "decide_max_ii",
    "decide_max_ii_many",
    "MaxIIVerdict",
    "modular_lower_bound",
    "normal_lower_bound",
]
