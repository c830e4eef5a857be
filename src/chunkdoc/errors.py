"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
TrainingError -> 4. An unreadable split.json, a missing or unreadable checkpoint
or chunk_embeddings.tsv, or a run left INCOMPLETE by `train`, is a ConfigError.
"""


class ConfigError(Exception):
    """Bad configuration, unusable paths, or missing or unreadable prerequisite artifacts."""


class DataError(Exception):
    """Input data violates a contract (empty document, unknown label, ...)."""


class TrainingError(Exception):
    """Training could not run or diverged (non-finite loss)."""


class OOVChunkError(DataError):
    """A chunk contains no in-vocabulary tokens and cannot be embedded."""
