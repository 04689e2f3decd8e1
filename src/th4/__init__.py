"""Entropies and signed multi-way transmissions over categorical case records.

Count case-record files (id plus 3 or 4 nominal labels per line) into
sparse contingency tables, and compute Shannon entropies, signed
transmissions (mutual information in 2 to 4 dimensions), conditional
transmissions, the maximum-entropy three-way interaction information,
and group-wise decompositions of transmission. The cli module adds a
batch front end that appends one CSV row per run.
"""

from .decompose import (
    DecompositionResult,
    GroupContribution,
    decompose_by_dimension,
    decompose_external,
)
from .errors import (
    EmptyDatasetError,
    FormatError,
    InputDataError,
    NotConvergedError,
    TableTooLargeError,
)
from .infocalc import (
    DIM_NAMES,
    EntropyReport,
    conditional_transmission,
    entropy,
    full_report,
    parse_subset,
    subset_name,
    transmission,
)
from .ingest import (
    CaseRecord,
    Dataset,
    drop_empty_labels,
    load_dataset,
    load_table,
    parse_dataset,
    parse_line,
    render_line,
)
from .maxent import IpfResult, ipf_fit, krippendorff_interaction, redundancy_bits
from .tables import (
    ContingencyTable,
    MarginalTable,
    build_table,
    marginal,
    merge,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "CaseRecord",
    "ContingencyTable",
    "Dataset",
    "DecompositionResult",
    "DIM_NAMES",
    "EmptyDatasetError",
    "EntropyReport",
    "FormatError",
    "GroupContribution",
    "InputDataError",
    "IpfResult",
    "MarginalTable",
    "NotConvergedError",
    "TableTooLargeError",
    "build_table",
    "conditional_transmission",
    "decompose_by_dimension",
    "decompose_external",
    "drop_empty_labels",
    "entropy",
    "full_report",
    "ipf_fit",
    "krippendorff_interaction",
    "load_dataset",
    "load_table",
    "marginal",
    "merge",
    "parse_dataset",
    "parse_line",
    "parse_subset",
    "project",
    "redundancy_bits",
    "render_line",
    "subset_name",
    "transmission",
]
