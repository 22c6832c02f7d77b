"""Deterministic text embeddings (feature hashing) and similarity measures."""

from .hashing import HashingEmbedder, char_ngrams, tokenize_words
from .similarity import cosine, keyword_overlap

__all__ = [
    "HashingEmbedder",
    "char_ngrams",
    "tokenize_words",
    "cosine",
    "keyword_overlap",
]
