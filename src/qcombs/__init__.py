"""Quantum combs: circuit boards with open slots as positive operators.

A higher-order quantum architecture (a circuit with holes into which
unknown gates are plugged) is represented by a single positive operator
subject to linear causality constraints.  This package provides the
operator algebra (wire-labeled tensors, Choi representations, the link
product), the comb constraint machinery, exact Haar-averaged figures of
merit for gate cloning and gate learning, and a deterministic
semidefinite solver that maximizes such figures over all causal boards.
"""

from .choi import (
    CausalityReport,
    ChoiOperator,
    KrausMap,
    apply_choi,
    choi_to_kraus,
    is_channel,
    kraus_to_choi,
    max_entangled,
)
from .comb import (
    MAX_DIM,
    TOL_VERIFY,
    CombStructure,
    ProbabilisticComb,
    QuantumComb,
    random_comb,
    reduced_comb,
    register_comb,
    supermap_apply,
    verify_causality,
)
from .errors import (
    BoundUnavailableError,
    DimMismatchError,
    DimOverflowError,
    DuplicateLabelError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    InvalidBranchSumError,
    LabelMismatchError,
    NoConvergenceError,
    NotAPermutationError,
    NotHermitianError,
    NotPSDError,
    OperatorFileError,
    QCombsError,
    SlotArityMismatchError,
    TooManyWiresError,
    UnknownLabelError,
    UnsupportedError,
)
from .haar import ginibre, haar_isometry, haar_unitary
from .io import OPERATOR_FORMAT_VERSION, PROVENANCE_TAGS, OperatorFile, ResultRecord
from .labeled import LabeledOperator, LabeledVector, Wire
from .link import link_product
from .objective import (
    PerformanceOperator,
    cloning_objective,
    estimation_reference,
    haar_average,
    learning_objective,
)
from .solver import (
    SdpProblem,
    SdpSolution,
    dual_bound,
    project_to_comb,
    solve,
    solve_probabilistic,
)
from .twirl import TwirlSpec

__version__ = "0.1.0"

__all__ = [
    "BoundUnavailableError",
    "CausalityReport",
    "ChoiOperator",
    "CombStructure",
    "DimMismatchError",
    "DimOverflowError",
    "DuplicateLabelError",
    "IndexOutOfRangeError",
    "InvalidArgumentError",
    "InvalidBranchSumError",
    "KrausMap",
    "LabelMismatchError",
    "LabeledOperator",
    "LabeledVector",
    "MAX_DIM",
    "NoConvergenceError",
    "NotAPermutationError",
    "NotHermitianError",
    "NotPSDError",
    "OPERATOR_FORMAT_VERSION",
    "OperatorFile",
    "OperatorFileError",
    "PROVENANCE_TAGS",
    "PerformanceOperator",
    "ProbabilisticComb",
    "QCombsError",
    "QuantumComb",
    "ResultRecord",
    "SdpProblem",
    "SdpSolution",
    "SlotArityMismatchError",
    "TOL_VERIFY",
    "TooManyWiresError",
    "TwirlSpec",
    "UnknownLabelError",
    "UnsupportedError",
    "Wire",
    "apply_choi",
    "choi_to_kraus",
    "cloning_objective",
    "dual_bound",
    "estimation_reference",
    "ginibre",
    "haar_average",
    "haar_isometry",
    "haar_unitary",
    "is_channel",
    "kraus_to_choi",
    "learning_objective",
    "link_product",
    "max_entangled",
    "project_to_comb",
    "random_comb",
    "reduced_comb",
    "register_comb",
    "solve",
    "solve_probabilistic",
    "supermap_apply",
    "verify_causality",
]
