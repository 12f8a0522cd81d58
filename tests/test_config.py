import pytest

from pd4g.config import ConfigError, RunConfig, parse_config


class TestDefaults:
    def test_published_constants(self):
        cfg = RunConfig()
        cfg.validate()
        assert (cfg.lambda_layer0, cfg.lambda_layer1, cfg.lambda_layer2) == (0.04, 0.01, 0.00025)
        assert cfg.lambda_temporal == 0.01
        assert (cfg.pi_aggressive0, cfg.pi_aggressive1, cfg.pi_aggressive2) == (0.15, 0.30, 0.55)
        assert cfg.ema_alpha == 0.05
        assert cfg.sample_period == 200
        assert cfg.warmup_steps == 2000
        assert cfg.mask_threshold == 0.01

    def test_derived_objects(self):
        cfg = RunConfig()
        assert cfg.loss_weights().lambda_layer == (0.04, 0.01, 0.00025)
        assert cfg.rollout_config().sample_period == 200
        assert set(cfg.quant_steps()) == {"position", "feature", "scale", "offset", "mask", "deform"}


class TestParsing:
    def test_round_trip(self):
        cfg = RunConfig(seed=7, scene_kind="static", anchor_count=32)
        parsed = parse_config(cfg.to_text())
        assert parsed == cfg

    def test_comments_and_blanks(self):
        cfg = parse_config("# leading comment\n\nseed = 3  # trailing\nscene_kind = static\n")
        assert cfg.seed == 3
        assert cfg.scene_kind == "static"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="lambda_render"):
            parse_config("lambda_render = 0.5\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="anchor_count"):
            parse_config("anchor_count = lots\n")

    def test_validation_applied(self):
        with pytest.raises(ConfigError, match="scene_kind"):
            parse_config("scene_kind = wiggly\n")
        with pytest.raises(ConfigError, match="anchor_count"):
            parse_config("anchor_count = 2\n")
        with pytest.raises(ConfigError):
            parse_config("pi_aggressive0 = 0.9\n")  # no longer sums to 1
        with pytest.raises(ConfigError, match="quant_step_position"):
            parse_config("quant_step_position = 1e308\n")  # step * 2**31 overflows

    @pytest.mark.parametrize(
        "key",
        [
            "lambda_layer0",
            "lambda_layer1",
            "lambda_layer2",
            "lambda_temporal",
            "binary_weight",
            "smooth_weight",
            "tau_scene_units",
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_weight_named(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {value}\n")
