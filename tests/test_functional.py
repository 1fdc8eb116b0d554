"""Tests for the functional (numerical) simulation of the IANUS dataflow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PimConfig
from repro.functional import (
    IanusFunctionalBackend,
    MatrixUnitFunctional,
    PimFunctionalDevice,
    ReferenceTransformer,
    TransformerWeights,
    VectorUnitFunctional,
    compare_backends,
    gelu,
    layer_norm,
    onchip_transpose,
    softmax,
    to_bf16,
)
from repro.models import tiny_gpt


RNG = np.random.default_rng(42)


class TestBf16:
    def test_bf16_idempotent(self):
        x = RNG.standard_normal(256).astype(np.float32)
        once = to_bf16(x)
        twice = to_bf16(once)
        assert np.array_equal(once, twice)

    def test_bf16_relative_error_bounded(self):
        x = RNG.standard_normal(1024).astype(np.float32) * 100
        relative = np.abs(x - to_bf16(x)) / np.maximum(np.abs(x), 1e-6)
        assert relative.max() < 2.0 ** -8

    def test_bf16_preserves_special_values(self):
        x = np.array([0.0, 1.0, -1.0, 2.0**10, -(2.0**-10)], dtype=np.float32)
        assert np.array_equal(to_bf16(x), x)


class TestReferenceTransformer:
    @pytest.fixture(scope="class")
    def model(self):
        return tiny_gpt()

    def test_forward_shapes(self, model):
        reference = ReferenceTransformer(model, seed=1)
        logits = reference.forward(np.array([1, 2, 3]))
        assert logits.shape == (3, model.vocab_size)

    def test_kv_cache_incremental_matches_full_forward(self, model):
        """Generating token-by-token must match processing the full prompt."""
        weights = TransformerWeights.random(model, seed=3)
        tokens = RNG.integers(0, model.vocab_size, size=6)

        full = ReferenceTransformer(model, weights=weights)
        full_logits = full.forward(tokens)

        incremental = ReferenceTransformer(model, weights=weights)
        incremental.forward(tokens[:3])
        last = None
        for token in tokens[3:]:
            last = incremental.forward(np.array([token]))
        assert np.allclose(full_logits[-1], last[-1], rtol=1e-4, atol=1e-5)

    def test_generate_is_deterministic_when_greedy(self, model):
        weights = TransformerWeights.random(model, seed=5)
        prompt = RNG.integers(0, model.vocab_size, size=4)
        first = ReferenceTransformer(model, weights=weights).generate(prompt, 5)
        second = ReferenceTransformer(model, weights=weights).generate(prompt, 5)
        assert np.array_equal(first, second)

    def test_perplexity_positive_and_finite(self, model):
        reference = ReferenceTransformer(model, seed=7)
        stream = RNG.integers(0, model.vocab_size, size=16)
        perplexity = reference.perplexity(stream)
        assert 1.0 < perplexity < model.vocab_size * 10

    def test_perplexity_requires_two_tokens(self, model):
        with pytest.raises(ValueError):
            ReferenceTransformer(model).perplexity(np.array([1]))

    def test_softmax_rows_sum_to_one(self):
        scores = RNG.standard_normal((4, 9)).astype(np.float32)
        assert np.allclose(softmax(scores).sum(axis=-1), 1.0, atol=1e-6)

    def test_layer_norm_zero_mean_unit_variance(self):
        x = RNG.standard_normal((3, 64)).astype(np.float32) * 5 + 2
        normed = layer_norm(x, np.ones(64), np.zeros(64))
        assert np.allclose(normed.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(normed.var(axis=-1), 1.0, atol=1e-2)

    def test_gelu_reference_values(self):
        assert gelu(np.array([0.0]))[0] == pytest.approx(0.0)
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-3)


class TestNpuFunctional:
    def test_matrix_unit_matches_numpy(self):
        mu = MatrixUnitFunctional()
        a = RNG.standard_normal((200, 96)).astype(np.float32)
        b = RNG.standard_normal((96, 130)).astype(np.float32)
        result = mu.matmul(a, b)
        reference = to_bf16(a).astype(np.float32) @ to_bf16(b).astype(np.float32)
        assert np.allclose(result, to_bf16(reference), rtol=1e-2, atol=1e-3)

    def test_matrix_unit_scale_and_bias(self):
        mu = MatrixUnitFunctional()
        a = np.ones((2, 4), dtype=np.float32)
        b = np.ones((4, 3), dtype=np.float32)
        result = mu.matmul(a, b, bias=np.full(3, 1.0, dtype=np.float32), scale=0.5)
        assert np.allclose(result, 3.0)

    def test_matrix_unit_dimension_mismatch(self):
        mu = MatrixUnitFunctional()
        with pytest.raises(ValueError):
            mu.matmul(np.ones((2, 4), dtype=np.float32), np.ones((5, 3), dtype=np.float32))

    def test_masked_softmax_zeroes_masked_positions(self):
        vu = VectorUnitFunctional()
        scores = np.zeros((1, 4), dtype=np.float32)
        mask = np.array([[True, True, False, False]])
        probs = vu.masked_softmax(scores, mask)
        assert probs[0, 2] == pytest.approx(0.0, abs=1e-6)
        assert probs[0, :2].sum() == pytest.approx(1.0, rel=1e-3)

    def test_vu_gelu_close_to_exact_gelu(self):
        vu = VectorUnitFunctional()
        x = np.linspace(-4, 4, 128, dtype=np.float32)
        assert np.max(np.abs(vu.gelu(x) - gelu(x))) < 0.02

    def test_concat_appends_rows(self):
        vu = VectorUnitFunctional()
        previous = np.ones((2, 4), dtype=np.float32)
        new = np.zeros((1, 4), dtype=np.float32)
        assert vu.concat(previous, new).shape == (3, 4)
        assert vu.concat(None, new).shape == (1, 4)

    def test_onchip_transpose(self):
        x = RNG.standard_normal((5, 7)).astype(np.float32)
        assert np.array_equal(onchip_transpose(x), to_bf16(x).T)


class TestPimFunctional:
    @pytest.mark.parametrize(
        "out_features, in_features",
        [(64, 64), (128, 1024), (200, 1500), (1280, 1280), (96, 2048)],
    )
    def test_gemv_matches_bf16_reference(self, out_features, in_features):
        device = PimFunctionalDevice(PimConfig())
        weights = (RNG.standard_normal((out_features, in_features)) * 0.05).astype(np.float32)
        x = RNG.standard_normal(in_features).astype(np.float32)
        device.store_weight("w", weights)
        result = device.gemv("w", x)
        reference = to_bf16(weights).astype(np.float32) @ to_bf16(x).astype(np.float32)
        assert np.allclose(result, reference, rtol=2e-2, atol=1e-2)

    def test_gemv_with_fused_gelu(self):
        device = PimFunctionalDevice(PimConfig())
        weights = np.eye(8, 16, dtype=np.float32)
        x = np.linspace(-2, 2, 16, dtype=np.float32)
        device.store_weight("w", weights)
        result = device.gemv("w", x, fused_gelu=True)
        assert np.allclose(result, gelu(x[:8]), atol=0.02)

    def test_repeated_gemv_over_tokens(self):
        device = PimFunctionalDevice(PimConfig())
        weights = (RNG.standard_normal((32, 64)) * 0.1).astype(np.float32)
        xs = RNG.standard_normal((3, 64)).astype(np.float32)
        device.store_weight("w", weights)
        result = device.gemm_as_repeated_gemv("w", xs)
        assert result.shape == (3, 32)

    def test_unknown_weight_rejected(self):
        device = PimFunctionalDevice(PimConfig())
        with pytest.raises(KeyError):
            device.gemv("missing", np.zeros(8, dtype=np.float32))

    def test_wrong_input_length_rejected(self):
        device = PimFunctionalDevice(PimConfig())
        device.store_weight("w", np.ones((4, 8), dtype=np.float32))
        with pytest.raises(ValueError):
            device.gemv("w", np.zeros(9, dtype=np.float32))

    def test_stored_bytes_accounts_for_full_rows(self):
        device = PimFunctionalDevice(PimConfig())
        device.store_weight("w", np.ones((1, 1), dtype=np.float32))
        assert device.stored_bytes("w") == 128 * 2048

    def test_memory_utilization_reflects_padding(self):
        """A matrix that fills whole tiles stores no padding; a ragged one
        pads every tile it touches out to full DRAM rows."""
        device = PimFunctionalDevice(PimConfig())
        device.store_weight("aligned", np.ones((128, 1024), dtype=np.float32))
        device.store_weight("ragged", np.ones((130, 1030), dtype=np.float32))
        assert device.stored_bytes("aligned") == 128 * 1024 * 2
        ragged_utilization = 130 * 1030 * 2 / device.stored_bytes("ragged")
        assert ragged_utilization < 0.5


class TestEndToEndFunctionalEquivalence:
    def test_backend_matches_reference_perplexity(self):
        comparison = compare_backends(tiny_gpt(), prompt_length=6, generated_tokens=3)
        assert comparison.perplexity_gap / comparison.reference_perplexity < 0.02

    def test_backend_greedy_generation_matches_reference(self):
        model = tiny_gpt()
        weights = TransformerWeights.random(model, seed=11)
        prompt = RNG.integers(0, model.vocab_size, size=5)
        reference_tokens = ReferenceTransformer(model, weights=weights).generate(prompt, 4)
        ianus_tokens = IanusFunctionalBackend(model, weights=weights).generate(prompt, 4)
        assert np.array_equal(reference_tokens, ianus_tokens)

    def test_generation_path_uses_pim_gemv(self):
        model = tiny_gpt()
        backend = IanusFunctionalBackend(model, seed=2)
        prompt = RNG.integers(0, model.vocab_size, size=4)
        logits_summarization = backend.forward(prompt)
        logits_generation = backend.forward(np.array([int(np.argmax(logits_summarization[-1]))]))
        assert logits_generation.shape == (1, model.vocab_size)
