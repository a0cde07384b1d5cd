"""Fock states over bosonic modes: basis rewriting under unitary mode
redefinitions and extremization of bipartite mode entanglement."""

from .entanglement import (
    Partition,
    SchmidtSpectrum,
    entropy_of_spectrum,
    rank_bound,
    schmidt_spectrum,
)
from .errors import (
    DegenerateStateError,
    DimensionError,
    FockmodesError,
    KetParseError,
    NotNormalizedError,
    NotUnitaryError,
    NumericalConsistencyError,
    ParseError,
    PartitionError,
    SizeLimitError,
    UnitaryFileError,
)
from .fock import (
    Occupation,
    PureState,
    enumerate_sector,
    inner_product,
    normalize,
    sector_dimension,
    sector_weights,
)
from .ketparse import (
    format_state,
    format_unitary_file,
    parse_state,
    parse_unitary_file,
)
from .optimize import OptConfig, OptResult, optimize_entanglement
from .transform import (
    ModeUnitary,
    apply_redefinition,
    beam_splitter,
    exp_map,
    fock_matrix_element,
    permanent,
)

__version__ = "0.1.0"

__all__ = [
    "DegenerateStateError",
    "DimensionError",
    "FockmodesError",
    "KetParseError",
    "ModeUnitary",
    "NotNormalizedError",
    "NotUnitaryError",
    "NumericalConsistencyError",
    "Occupation",
    "OptConfig",
    "OptResult",
    "ParseError",
    "Partition",
    "PartitionError",
    "PureState",
    "SchmidtSpectrum",
    "SizeLimitError",
    "UnitaryFileError",
    "apply_redefinition",
    "beam_splitter",
    "entropy_of_spectrum",
    "enumerate_sector",
    "exp_map",
    "fock_matrix_element",
    "format_state",
    "format_unitary_file",
    "inner_product",
    "normalize",
    "optimize_entanglement",
    "parse_state",
    "parse_unitary_file",
    "permanent",
    "rank_bound",
    "schmidt_spectrum",
    "sector_dimension",
    "sector_weights",
]
