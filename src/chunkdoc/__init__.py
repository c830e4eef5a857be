"""chunkdoc: long-document classification via chunk embeddings, a BiLSTM
attention aggregator, and linear or RBF-SVM heads."""

from .aggregator import (AdamState, AggregatorConfig, AggregatorModel, ForwardTrace,
                         adam_step, attention_forward, backward_batch, bilstm_forward,
                         collate, cross_entropy, document_vectors, forward_batch,
                         load_aggregator, save_aggregator, train_aggregator)
from .chunker import Chunk, ChunkingConfig, chunk_document, mean_words_per_chunk, split_into_chunks
from .corpus import (Corpus, CorpusStats, DatasetSplit, Document, LabelSet, corpus_stats,
                     load_corpus, split_dataset, strip_boilerplate, tokenize)
from .embedder import (ChunkEmbedding, EmbedderConfig, PVDMModel, Vocabulary, build_vocab,
                       embed_chunks, embed_corpus, export_chunk_embeddings, infer_vector,
                       load_pvdm, sample_embedding_training_docs, save_pvdm, train_pvdm)
from .errors import ConfigError, DataError, OOVChunkError, TrainingError
from .evaluation import EvalReport, confusion_matrix, export_embeddings, f1_report, macro_f1
from .pipeline import (PipelineSettings, TrainedPipeline, evaluate, mean_chunk_vectors,
                       train_pipeline)
from .svm import (BinarySVM, SVMConfig, SVMModel, load_svm, predict_svm, rbf_kernel,
                  save_svm, train_binary_svm, train_multiclass_svm)
from .sweep import DEFAULT_N_LIST, SweepRow, read_sweep_tsv, run_chunk_sweep, write_sweep_tsv
from .synthetic import SyntheticSpec, generate_synthetic_corpus

__version__ = "0.1.0"
