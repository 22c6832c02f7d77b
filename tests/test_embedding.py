"""Tests for the hashing embedder and similarity measures."""

import numpy as np
import pytest

from repro.embedding import (
    HashingEmbedder,
    char_ngrams,
    cosine,
    keyword_overlap,
    tokenize_words,
)


class TestTokenization:
    def test_tokenize_words_lowercases(self):
        assert tokenize_words("Data Scientist, SF!") == ["data", "scientist", "sf"]

    def test_tokenize_keeps_numbers(self):
        assert tokenize_words("top 5 jobs") == ["top", "5", "jobs"]

    def test_char_ngrams_padded(self):
        assert char_ngrams("ab", n=3) == ["#ab", "ab#"]
        assert char_ngrams("data", n=3) == ["#da", "dat", "ata", "ta#"]

    def test_char_ngrams_short_word(self):
        assert char_ngrams("a", n=3) == ["#a#"]


class TestHashingEmbedder:
    def test_deterministic(self):
        embedder = HashingEmbedder(dim=64)
        a = embedder.embed("job matching model")
        b = embedder.embed("job matching model")
        assert np.allclose(a, b)

    def test_normalized(self):
        embedder = HashingEmbedder(dim=64)
        assert np.isclose(np.linalg.norm(embedder.embed("some text")), 1.0)

    def test_empty_text_zero_vector(self):
        embedder = HashingEmbedder(dim=64)
        assert np.allclose(embedder.embed(""), 0.0)

    def test_lexical_similarity_preserved(self):
        embedder = HashingEmbedder(dim=256)
        a = embedder.embed("match job seekers to jobs")
        b = embedder.embed("matching jobs for a job seeker")
        c = embedder.embed("quantum flux capacitor maintenance")
        assert cosine(a, b) > cosine(a, c)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dim=0)

    def test_embed_many_shape(self):
        embedder = HashingEmbedder(dim=32)
        matrix = embedder.embed_many(["a b", "c d", "e f"])
        assert matrix.shape == (3, 32)

    def test_embed_many_empty(self):
        assert HashingEmbedder(dim=32).embed_many([]).shape == (0, 32)

    def test_word_only_mode(self):
        embedder = HashingEmbedder(dim=64, use_char_ngrams=False)
        features = embedder.features("hello world")
        assert features == ["w:hello", "w:world"]


class TestSimilarity:
    def test_cosine_bounds(self):
        a = np.array([1.0, 0.0])
        assert cosine(a, a) == pytest.approx(1.0)
        assert cosine(a, np.array([0.0, 1.0])) == pytest.approx(0.0)
        assert cosine(a, -a) == pytest.approx(-1.0)

    def test_cosine_zero_vector(self):
        assert cosine(np.zeros(2), np.array([1.0, 0.0])) == 0.0


    def test_keyword_overlap(self):
        assert keyword_overlap("data scientist", "senior data scientist role") == 1.0
        assert keyword_overlap("data scientist", "product manager") == 0.0
        assert keyword_overlap("", "anything") == 0.0
