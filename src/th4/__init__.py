"""Entropies and signed multi-way transmissions over categorical case records.

load_table counts a case-record file (id plus 3 or 4 nominal labels per
line) into a sparse contingency table. From a table th4 computes
Shannon entropies, signed transmissions (mutual information in 2 to 4
dimensions), conditional transmissions, the maximum-entropy three-way
interaction information, and group-wise decompositions of
transmission. The cli module adds a batch front end that appends one
CSV row per run. The names below are the ones README's Library section
documents.

The package imports lazily (PEP 562): `import th4` loads no module
that uses numpy, and each name's module is imported at its first use.
So the cli module can set numpy's start-up options before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the module that defines it.
_MODULES = {
    "ContingencyTable": "tables",
    "DecompositionResult": "decompose",
    "EmptyDatasetError": "errors",
    "EntropyReport": "infocalc",
    "FormatError": "errors",
    "GroupContribution": "decompose",
    "InputDataError": "errors",
    "IpfResult": "maxent",
    "NotConvergedError": "errors",
    "TableTooLargeError": "errors",
    "conditional_transmission": "infocalc",
    "decompose_by_dimension": "decompose",
    "entropy": "infocalc",
    "full_report": "infocalc",
    "ipf_fit": "maxent",
    "krippendorff_interaction": "maxent",
    "load_table": "ingest",
    "merge": "tables",
    "project": "tables",
    "transmission": "infocalc",
}

__all__ = list(_MODULES)


def __getattr__(name: str):
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
