"""Emotion intensity ranking from speech prosody and conversion metrics."""

from .config import Config
from .conv_metrics import contour_report, dtw_align, ddur, mcd, mcep
from .dsp import Waveform, load_wav, save_wav
from .emo_eval import (
    clustering_ratio,
    emotion_classification_loss,
    emotion_similarity_loss,
)
from .features import (
    compute_llds,
    delta,
    energy_contour,
    extract_feature_vector,
    functionals,
    pitch_contour,
)
from .ranker import build_pairs, load_model, save_model, score, train_ranker
from .synthcorpus import generate_mini_corpus

__version__ = "0.1.0"

__all__ = [
    "Config",
    "Waveform",
    "build_pairs",
    "clustering_ratio",
    "compute_llds",
    "contour_report",
    "ddur",
    "delta",
    "dtw_align",
    "emotion_classification_loss",
    "emotion_similarity_loss",
    "energy_contour",
    "extract_feature_vector",
    "functionals",
    "generate_mini_corpus",
    "load_model",
    "load_wav",
    "mcd",
    "mcep",
    "pitch_contour",
    "save_model",
    "save_wav",
    "score",
    "train_ranker",
]
