"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
TrainingError -> 4. A config that cannot be read or is not UTF-8, a config or
flag value of the wrong type, NaN or infinite, or out of range (a negative
seed, a repeated `aggregator.seeds` value, an `aggregator.batch_size` under 2,
a `run_name` of `.` or `..`), an unreadable split.json or input file, a
split.json that lists a document id twice, a `prepare` that would replace the
split of a run holding pvdm.bin or aggregator.bin with another, a missing or
unreadable checkpoint (one missing a field included) or chunk_embeddings.tsv,
or a run left INCOMPLETE by `train`, is a ConfigError. A `predict` input that
is not UTF-8 or has no tokens is a DataError.
"""


class ConfigError(Exception):
    """Bad configuration, unusable paths, or missing or unreadable prerequisite artifacts."""


class DataError(Exception):
    """Input data violates a contract (empty document, unknown label, ...)."""


class TrainingError(Exception):
    """Training could not run or diverged (non-finite loss)."""


class OOVChunkError(DataError):
    """A chunk contains no in-vocabulary tokens and cannot be embedded."""
