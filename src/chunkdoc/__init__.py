"""chunkdoc: long-document classification via chunk embeddings, a BiLSTM
attention aggregator, and linear or RBF-SVM heads.

The package root exports the stage-level entry points; layer internals stay in
their modules."""

from .aggregator import AggregatorConfig, load_aggregator, save_aggregator
from .chunker import ChunkingConfig
from .config import PipelineConfig, load_config
from .corpus import DatasetSplit, LabelSet, load_corpus, split_dataset
from .embedder import EmbedderConfig, load_chunk_embeddings, load_pvdm, save_pvdm
from .errors import ConfigError, DataError, OOVChunkError, TrainingError
from .pipeline import PipelineSettings, evaluate, train_pipeline
from .svm import SVMConfig, load_svm, save_svm
from .synthetic import SyntheticSpec, generate_synthetic_corpus

__version__ = "0.1.0"
