"""Exception types shared across the package, and the exit codes the CLI gives them.

The CLI exits 0 on success, 2 on a ConfigError, 3 on a DataError and 4 on a
TrainingError. This is the one list of what raises each.

ConfigError (exit 2):
- a config that cannot be read or is not UTF-8, or an unknown config key;
- a config or flag value of the wrong type, NaN or infinite, or out of range:
  a negative seed, a repeated `aggregator.seeds` value, an
  `aggregator.batch_size` under 2, fewer than 2 or a repeated
  `corpus.labels` entry, or a `corpus.labels` entry or `run_name` that is
  not a plain directory name (empty, `.`, `..`, or holding a `/` or a NUL),
  or an `output_dir` holding a NUL;
- a `sweep --n` that is not a comma-separated integer list, is empty, or
  holds a value under 1 or a repeated value;
- a run directory another command holds;
- an unreadable split.json, or one that lists a document id twice;
- a missing or unreadable input file;
- a `prepare` that would replace the split of a run holding pvdm.bin or
  aggregator.bin with another;
- a missing or unreadable checkpoint, one missing a field, a pvdm.bin of
  another inference rule or of none (one written while inference read
  `W_in`), a pvdm.bin whose `W_out` holds a NaN or infinite value, or an
  svm.bin that does not match aggregator.bin (other labels, or support
  vectors of another width than the pooled vectors);
- a missing or unreadable chunk_embeddings.tsv, or one that lacks a scored
  document's chunk vectors or holds a NaN or infinite value in one;
- a run left INCOMPLETE by an unfinished `train`.

DataError (exit 3): input data that breaks a contract, such as a `predict`
input that is not UTF-8 or has no tokens, or a corpus too small to split.

TrainingError (exit 4): training diverged (a non-finite aggregator loss or
PV-DM weight), or every cell of a `sweep` failed.
"""


class ConfigError(Exception):
    """Bad configuration, unusable paths, or missing or unreadable prerequisite artifacts."""


class DataError(Exception):
    """Input data violates a contract (empty document, unknown label, ...)."""


class TrainingError(Exception):
    """Training could not run or diverged (non-finite loss)."""


class OOVChunkError(DataError):
    """A chunk contains no in-vocabulary tokens and cannot be embedded."""
