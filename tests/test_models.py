"""Tests for the model zoo (Tables 3 and 4) and workload expansion."""

from __future__ import annotations

import pytest

from repro.models import (
    ALL_MODELS,
    BERT_CONFIGS,
    GPT2_CONFIGS,
    LARGE_GPT_CONFIGS,
    ModelConfig,
    ModelFamily,
    Stage,
    Workload,
    get_model,
    tiny_gpt,
)


class TestTable3Gpt2:
    @pytest.mark.parametrize(
        "key, dim, head_dim, heads, blocks",
        [
            ("m", 1024, 64, 16, 24),
            ("l", 1280, 64, 20, 36),
            ("xl", 1536, 64, 24, 48),
            ("2.5b", 1920, 96, 20, 54),
        ],
    )
    def test_architecture(self, key, dim, head_dim, heads, blocks):
        model = GPT2_CONFIGS[key]
        assert model.embedding_dim == dim
        assert model.head_dim == head_dim
        assert model.num_heads == heads
        assert model.num_blocks == blocks
        assert model.family is ModelFamily.GPT

    @pytest.mark.parametrize(
        "key, params_millions, tolerance",
        [("m", 345, 0.25), ("l", 762, 0.25), ("xl", 1500, 0.25), ("2.5b", 2500, 0.25)],
    )
    def test_parameter_counts_roughly_match_table3(self, key, params_millions, tolerance):
        model = GPT2_CONFIGS[key]
        assert model.num_params == pytest.approx(params_millions * 1e6, rel=tolerance)

    def test_fc_parameters_are_about_91_percent(self):
        """Sec. 3.2: FC parameters are ~91% of GPT-2's parameters."""
        model = GPT2_CONFIGS["xl"]
        fraction = model.fc_params / (model.num_params + model.lm_head_params)
        assert 0.80 <= fraction <= 0.97


class TestTable3Bert:
    @pytest.mark.parametrize(
        "key, dim, heads, blocks",
        [("base", 768, 12, 12), ("large", 1024, 16, 24), ("1.3b", 2048, 32, 24),
         ("3.9b", 2560, 40, 48)],
    )
    def test_architecture(self, key, dim, heads, blocks):
        model = BERT_CONFIGS[key]
        assert model.embedding_dim == dim
        assert model.num_heads == heads
        assert model.num_blocks == blocks
        assert model.family is ModelFamily.BERT
        assert not model.is_decoder

    def test_bert_base_is_about_110m(self):
        assert BERT_CONFIGS["base"].num_params == pytest.approx(110e6, rel=0.2)


class TestTable4LargeGpt:
    @pytest.mark.parametrize(
        "key, dim, head_dim, heads, blocks",
        [("6.7b", 4096, 128, 32, 32), ("13b", 5120, 128, 40, 40), ("30b", 7168, 128, 56, 48)],
    )
    def test_architecture(self, key, dim, head_dim, heads, blocks):
        model = LARGE_GPT_CONFIGS[key]
        assert model.embedding_dim == dim
        assert model.head_dim == head_dim
        assert model.num_heads == heads
        assert model.num_blocks == blocks

    @pytest.mark.parametrize("key, billions", [("6.7b", 6.7), ("13b", 13.0), ("30b", 30.0)])
    def test_parameter_counts(self, key, billions):
        assert LARGE_GPT_CONFIGS[key].num_params == pytest.approx(billions * 1e9, rel=0.25)

    def test_models_exceed_single_device_capacity(self):
        """The reason the scalability analysis needs multiple devices."""
        for model in LARGE_GPT_CONFIGS.values():
            assert model.param_bytes > 8 * 1024**3


class TestModelConfigValidation:
    def test_heads_times_head_dim_must_equal_embedding(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad", family=ModelFamily.GPT, embedding_dim=1024,
                head_dim=64, num_heads=15, num_blocks=2,
            )

    def test_positive_dimensions_required(self):
        with pytest.raises(ValueError):
            ModelConfig(
                name="bad", family=ModelFamily.GPT, embedding_dim=0,
                head_dim=0, num_heads=0, num_blocks=0,
            )

    def test_kv_cache_grows_linearly(self):
        model = GPT2_CONFIGS["m"]
        assert model.kv_cache_bytes(200) == 2 * model.kv_cache_bytes(100)

    def test_describe_mentions_name(self):
        assert "gpt2-xl" in GPT2_CONFIGS["xl"].describe()

    def test_tiny_gpt_is_valid(self):
        model = tiny_gpt()
        assert model.num_params > 0
        assert model.is_decoder


class TestModelRegistry:
    def test_get_model_by_registry_key(self):
        assert get_model("gpt2-xl").name == "gpt2-xl"
        assert get_model("bert-base").name == "bert-base"
        assert get_model("gpt-13b").name == "gpt-13b"

    def test_get_model_unknown_raises(self):
        with pytest.raises(KeyError):
            get_model("nonexistent-model")

    def test_registry_has_all_models(self):
        # 4 GPT-2 + 4 BERT + 3 larger GPT configurations (Tables 3 and 4)
        # plus the 2 GQA/gated-MLP Gemma configurations of the co-hosted
        # model-set experiments.
        assert len(ALL_MODELS) == 13


class TestWorkload:
    def test_label_format(self):
        assert Workload(128, 64).label() == "(128,64)"

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            Workload(0, 1)
        with pytest.raises(ValueError):
            Workload(8, -1)

    def test_single_output_token_has_no_generation_passes(self):
        """(input, 1) configurations are summarization-only in the paper."""
        workload = Workload(128, 1)
        stages = list(workload.stages())
        assert len(stages) == 1
        assert stages[0].stage is Stage.SUMMARIZATION
        assert workload.num_generation_passes == 0

    def test_stage_expansion(self):
        workload = Workload(input_tokens=16, output_tokens=4)
        stages = list(workload.stages())
        assert len(stages) == 4  # 1 summarization + 3 generation
        assert stages[0].num_tokens == 16
        assert stages[0].kv_length == 16
        assert [s.kv_length for s in stages[1:]] == [17, 18, 19]
        assert all(s.num_tokens == 1 for s in stages[1:])

    def test_generation_kv_lengths_match_stages(self):
        workload = Workload(32, 8)
        kv = workload.generation_kv_lengths()
        assert kv == [s.kv_length for s in workload.stages() if s.stage is Stage.GENERATION]

    def test_total_tokens(self):
        assert Workload(128, 64).total_tokens == 192
