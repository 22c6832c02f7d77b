"""Similarity measures over embeddings and token sets."""

from __future__ import annotations

import numpy as np

from .hashing import tokenize_words


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero vectors yield 0."""
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm == 0:
        return 0.0
    return float(np.dot(a, b) / norm)


def keyword_overlap(query: str, text: str) -> float:
    """Fraction of query words present in *text* (keyword-search score)."""
    query_words = set(tokenize_words(query))
    if not query_words:
        return 0.0
    text_words = set(tokenize_words(text))
    return len(query_words & text_words) / len(query_words)
