"""Entropies and signed multi-way transmissions over categorical case records.

load_table counts a case-record file (id plus 3 or 4 nominal labels per
line) into a sparse contingency table. From a table th4 computes
Shannon entropies, signed transmissions (mutual information in 2 to 4
dimensions), conditional transmissions, the maximum-entropy three-way
interaction information, and group-wise decompositions of
transmission. The cli module adds a batch front end that appends one
CSV row per run. The names below are the ones README's Library section
documents.
"""

from .decompose import DecompositionResult, GroupContribution, decompose_by_dimension
from .errors import (
    EmptyDatasetError,
    FormatError,
    InputDataError,
    NotConvergedError,
    TableTooLargeError,
)
from .infocalc import (
    EntropyReport,
    conditional_transmission,
    entropy,
    full_report,
    transmission,
)
from .ingest import load_table
from .maxent import IpfResult, ipf_fit, krippendorff_interaction
from .tables import ContingencyTable, merge, project

__version__ = "0.1.0"

__all__ = [
    "ContingencyTable",
    "DecompositionResult",
    "EmptyDatasetError",
    "EntropyReport",
    "FormatError",
    "GroupContribution",
    "InputDataError",
    "IpfResult",
    "NotConvergedError",
    "TableTooLargeError",
    "conditional_transmission",
    "decompose_by_dimension",
    "entropy",
    "full_report",
    "ipf_fit",
    "krippendorff_interaction",
    "load_table",
    "merge",
    "project",
    "transmission",
]
