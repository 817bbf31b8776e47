"""Desk-scale fully convolutional speech recognition toolkit."""

from .acoustic import AcousticModel, AcousticModelConfig, ConvLayerSpec, EmissionTable
from .criterion import Alphabet, asg_loss, encode_target, forward_score
from .decoder import DecoderOptions, DecodeResult, build_trie, decode
from .frontend import (
    FrontendConfig,
    LearnableFrontend,
    MelFrontend,
    Waveform,
    analyze_filters,
)
from .gcnn import GcnnConfig, GcnnLm, train_gcnn
from .lm import ContextLimitedLM, NGramModel, Vocabulary, load_arpa, perplexity

__version__ = "0.1.0"
