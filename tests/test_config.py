import ast
import importlib
import importlib.util
import inspect
import re
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest

from pd4g import asset, bitstream, toyscene
from pd4g.config import ConfigError, RunConfig, parse_config
from pd4g.losses import LossWeights
from pd4g.rollout import RolloutConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
# the benchmark's timing wrappers, called as wrapper(fn, *args, **kwargs)
CALL_WRAPPERS = ("_timed", "call")

# the method's fixed loss, rollout, scene and codec constants, with their
# published values; none of them is a config key
FIXED_CONSTANTS = {
    "lambda_layer1": "0.01",
    "lambda_layer2": "0.00025",
    "lambda_temporal": "0.01",
    "smooth_weight": "1.0",
    "tau_scene_units": "0.1",
    "pair_factor": "4",
    "pi_aggressive0": "0.15",
    "pi_aggressive1": "0.30",
    "pi_aggressive2": "0.55",
    "ema_alpha": "0.05",
    "feature_dim": "4",
    "mask_threshold": "0.01",
    "quant_step_position": "0.0625",
    "quant_step_feature": "0.0625",
    "quant_step_scale": "0.0625",
    "quant_step_offset": "0.0625",
    "quant_step_mask": "0.00390625",
    "quant_step_deform": "0.0625",
    "compressor_preset": "6",
}


def _pd4g_names(tree: ast.Module) -> dict[str, object]:
    """What each name a benchmark file imports from pd4g is bound to."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pd4g":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # a submodule not yet imported
                    importlib.import_module(f"{node.module}.{alias.name}")
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _resolve(expr: ast.expr, names: dict[str, object], where: str):
    """The pd4g object that ``expr`` (such as ``rollout.RolloutConfig``) names, or None for any other."""
    if isinstance(expr, ast.Name):
        return names.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = _resolve(expr.value, names, where)
        if owner is not None:
            assert hasattr(owner, expr.attr), f"{where} uses {ast.unparse(expr)}, which pd4g lacks"
            return getattr(owner, expr.attr)
    return None


def _pd4g_calls(path: Path):
    """(where, callee, positional count, keyword names) of each call into pd4g in ``path``, wrapped or direct."""
    tree = ast.parse(path.read_text())
    names = _pd4g_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        where = f"perfbench/{path.name}:{node.lineno}"
        args = node.args
        wrapped = isinstance(node.func, ast.Name) and node.func.id in CALL_WRAPPERS and len(args) > 0
        callee = _resolve(args[0] if wrapped else node.func, names, where)
        if callee is not None:
            positional = args[1:] if wrapped else args
            assert not any(isinstance(a, ast.Starred) for a in positional), where
            yield where, callee, len(positional), [k.arg for k in node.keywords]


class TestDefaults:
    def test_published_constants(self):
        cfg = RunConfig()
        weights, schedule = cfg.loss_weights(), cfg.rollout_config()
        assert weights == LossWeights() and schedule == RolloutConfig()
        assert weights.lambda_layer == (0.04, 0.01, 0.00025)
        assert weights.lambda_temporal == 0.01
        assert schedule.aggressive_weights == (0.15, 0.30, 0.55)
        assert schedule.ema_alpha == 0.05
        assert schedule.sample_period == 200
        assert schedule.warmup_steps == 2000
        assert cfg.mask_threshold == 0.01

    def test_derived_objects(self):
        cfg = RunConfig()
        assert cfg.loss_weights().lambda_layer == (0.04, 0.01, 0.00025)
        assert cfg.rollout_config().sample_period == 200
        assert set(cfg.quant_steps()) == {"position", "feature", "scale", "offset", "mask", "deform"}
        varied = RunConfig(lambda_layer0=0.5, binary_weight=0.0, sample_period=25, warmup_steps=400)
        assert varied.loss_weights() == LossWeights(lambda_layer=(0.5, 0.01, 0.00025), binary_weight=0.0)
        assert varied.rollout_config() == RolloutConfig(sample_period=25, warmup_steps=400)

    def test_keys_pinned(self):
        # every key is a knob a run may turn: adding one means editing this set
        assert {f.name for f in fields(RunConfig)} == {
            "seed",
            "scene_kind",
            "anchor_count",
            "timestep_count",
            "image_width",
            "image_height",
            "lambda_layer0",
            "binary_weight",
            "sample_period",
            "warmup_steps",
            "train_steps",
            "progressive_start_step",
            "learning_rate",
            "out_dir",
        }

    def test_loss_weights_pinned(self):
        # the smoothness constants tau and pair_factor are module constants of losses, not weights
        assert [f.name for f in fields(LossWeights)] == [
            "lambda_layer",
            "lambda_temporal",
            "binary_weight",
            "smooth_weight",
        ]

    def test_benchmark_reads_exist(self):
        # perfbench/workloads.py reads these off a config; tier-1 does not run it, so a
        # name dropped from RunConfig would otherwise surface only as a failed benchmark run
        cfg = RunConfig()
        names = set(re.findall(r"\bcfg\.(\w+)", WORKLOADS.read_text()))
        assert {"mask_threshold", "compressor_preset", "feature_dim", "quant_steps"} <= names
        for name in names:
            assert hasattr(cfg, name), f"perfbench/workloads.py reads cfg.{name}, which RunConfig lacks"
        assert cfg.quant_steps() == bitstream.DEFAULT_QUANT_STEPS
        assert cfg.mask_threshold == asset.MASK_THRESHOLD
        assert cfg.compressor_preset == bitstream.DEFAULT_PRESET
        assert cfg.feature_dim == toyscene.FEATURE_DIM

    def test_benchmark_calls_match_signatures(self):
        # tier-1 does not run perfbench/, so a parameter narrowed or dropped in pd4g
        # would otherwise surface only as a failed benchmark run
        checked = set()
        for name in ("rounds.py", "workloads.py", "oracle.py"):
            for where, callee, positional, keywords in _pd4g_calls(PERFBENCH / name):
                assert None not in keywords, f"{where}: a **mapping argument cannot be checked"
                try:
                    inspect.signature(callee).bind_partial(*[None] * positional, **dict.fromkeys(keywords))
                except TypeError as exc:
                    pytest.fail(f"{where} calls {callee.__qualname__}: {exc}")
                checked.add(callee.__qualname__)
        assert {"train_masks", "make_scene", "RolloutConfig", "EncodeConfig", "MaskBank", "encode"} <= checked

    def test_benchmark_values_are_accepted(self, monkeypatch):
        # signatures aside, pd4g refuses all but the published steps, preset, end point,
        # EMA rate and cut: build every workload's inputs, which constructs the configs the
        # benchmark passes, and train for 0 steps with each keyword its Training carries
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
        spec.loader.exec_module(workloads)
        assert set(workloads.WORKLOADS) == {"train-motion-dense", "codec-stress", "trace-replay"}
        for name in workloads.WORKLOADS:
            inputs = workloads.build_inputs(name, 0)
            if inputs.training is not None:
                t = inputs.training
                keywords = {f.name: getattr(t, f.name) for f in fields(t)}
                bank, report = toyscene.train_masks(inputs.scene(0), **{**keywords, "steps": 0, "seed": 0})
                assert report.steps == 0 and bank.threshold == t.threshold

    def test_benchmark_traced_functions_exist(self):
        # perfbench/tracing.py replaces each (module, attribute) of _FUNCTIONS in the module's namespace
        tree = ast.parse((PERFBENCH / "tracing.py").read_text())
        names = _pd4g_names(tree)
        (table,) = [
            node.value
            for node in tree.body
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["_FUNCTIONS"]
        ]
        assert table.elts
        for entry in table.elts:
            module, attr = names[entry.elts[0].id], entry.elts[1].value
            assert callable(vars(module).get(attr)), f"perfbench/tracing.py traces {module.__name__}.{attr}, which is gone"

    @pytest.mark.parametrize("name", ["feature_dim", "mask_threshold", "compressor_preset"])
    def test_class_constant_is_not_settable(self, name):
        value = getattr(RunConfig, name)
        with pytest.raises(TypeError, match=name):
            RunConfig(**{name: value})
        with pytest.raises(TypeError, match=name):
            replace(RunConfig(), **{name: value})


class TestValue:
    def test_frozen_and_hashable(self):
        cfg = RunConfig(seed=7)
        with pytest.raises(FrozenInstanceError):
            cfg.seed = 8
        assert cfg == RunConfig(seed=7) and hash(cfg) == hash(RunConfig(seed=7))
        assert len({cfg, RunConfig(seed=7), RunConfig(seed=8)}) == 2

    def test_replace_validates(self):
        # a derived config is checked as a parsed one is, with the same message
        with pytest.raises(ConfigError, match="anchor_count must lie in"):
            replace(RunConfig(), anchor_count=2)
        with pytest.raises(ConfigError, match="anchor_count must lie in"):
            RunConfig(anchor_count=2)


    @pytest.mark.parametrize(
        "key, value",
        [
            ("anchor_count", 8.5),
            ("train_steps", 2.5),
            ("seed", "7"),
            ("seed", True),
            ("learning_rate", False),
            ("learning_rate", "0.4"),
            ("scene_kind", 3),
            ("out_dir", None),
        ],
    )
    def test_value_of_the_wrong_type_named(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be of type"):
            RunConfig(**{key: value})
        with pytest.raises(ConfigError, match=f"{key} must be of type"):
            replace(RunConfig(), **{key: value})

    def test_anchor_pixel_product_is_bounded(self):
        # 64 anchors at 128x128 is the bound; one more pixel row or column passes it
        assert RunConfig(anchor_count=64, image_width=128, image_height=128).image_height == 128
        message = r"anchor_count \* image_width \* image_height must be at most 1048576"
        for width, height in ((128, 129), (129, 128)):
            with pytest.raises(ConfigError, match=message):
                RunConfig(anchor_count=64, image_width=width, image_height=height)
        with pytest.raises(ConfigError, match=message):
            parse_config("anchor_count = 1024\nimage_width = 33\nimage_height = 32\n")

    def test_int_value_for_a_float_key(self):
        assert RunConfig(learning_rate=1).learning_rate == 1
        assert RunConfig(lambda_layer0=0).loss_weights().lambda_layer[0] == 0


class TestParsing:
    def test_round_trip(self):
        cfg = RunConfig(seed=7, scene_kind="static", anchor_count=32)
        text = "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(cfg))
        parsed = parse_config(text)
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
        with pytest.raises(ConfigError, match="sample_period"):
            parse_config("sample_period = 0\n")  # checked by RolloutConfig
        for seed in (-(2**63) - 1, 2**63):  # seeds are hashed as signed 64-bit integers
            with pytest.raises(ConfigError, match="seed"):
                parse_config(f"seed = {seed}\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config("learning_rate = inf\n")  # training would diverge at its first steps
        assert parse_config(f"seed = {-(2**63)}\n").seed == -(2**63)
        # codec and scene constants are not keys, whatever the value
        for line in ("quant_step_position = 1e308", "feature_dim = 65536", "feature_dim = 65535"):
            with pytest.raises(ConfigError, match=f"unknown config key '{line.split()[0]}'"):
                parse_config(line + "\n")

    @pytest.mark.parametrize("key, value", FIXED_CONSTANTS.items())
    def test_fixed_constant_is_unknown_key(self, key, value):
        # even a line restating the published value is rejected
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            parse_config(f"{key} = {value}\n")

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
        # a line naming a dropped weight fails as an unknown key, before its value is read
        reason = "unknown config key" if key in FIXED_CONSTANTS else "must be non-negative and finite"
        with pytest.raises(ConfigError, match=reason) as raised:
            parse_config(f"{key} = {value}\n")
        assert key in str(raised.value)
