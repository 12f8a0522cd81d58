"""Release-gate suite: one test per acceptance criterion, each at its stated tolerance.

Runs every criterion through the same functions the ``verify`` CLI command
uses and prints one PASS/FAIL line per criterion (visible with ``-s`` or on
failure). Training-backed criteria share the in-process cache, so the whole
module costs a handful of desk-scale training runs.
"""

import hashlib
from dataclasses import fields, replace

import pytest

from pd4g import acceptance
from pd4g.config import ConfigError, RunConfig


def _run(index: int) -> None:
    name, fn = acceptance.CRITERIA[index - 1]
    passed, details = fn()
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {index}: {name} -- {details}")
    assert passed, f"criterion {index} ({name}): {details}"


def test_criterion_01_first_frame_latency_grid():
    _run(1)


def test_criterion_02_level_distribution_interpolation():
    _run(2)


def test_criterion_03_entropy_model_oracle():
    _run(3)


def test_criterion_04_analytic_gradients():
    _run(4)


def test_criterion_05_prefix_decodability():
    _run(5)


def test_criterion_06_level_monotonicity():
    _run(6)


def test_criterion_07_activation_adaptivity():
    _run(7)


def test_criterion_08_rate_weight_sweep():
    _run(8)


def test_criterion_09_mask_binarization():
    _run(9)


def test_criterion_10_rate_coder_correlation():
    _run(10)


def test_criterion_11_simulator_exactness():
    _run(11)


# sha256 prefixes of (mask bytes, loss_curve_csv(), to_json()) of two
# acceptance runs, recorded before the config -> call wiring moved into
# RunConfig: motion-dense seed 101, and mixed seed 301 with the binary term
# off; criteria 6 and 9 train the same runs, so they come from the cache
PINNED_TRAINED = [
    (acceptance.MOTION_RUNS[0], ("18d1d0ba7987257e", "1b7265b1fec01efa", "2c17dfb5fa5f5d8d")),
    (acceptance.BINARY_PAIRS[0][1], ("17ba085523e4a6b8", "44c6a030bc9b8e4e", "9ea70f41b1b6f195")),
]


@pytest.mark.parametrize("cfg, expected", PINNED_TRAINED, ids=["motion-dense-101", "mixed-301-binary-off"])
def test_trained_runs_pinned(cfg, expected):
    _, bank, report = acceptance.trained(cfg)
    masks = b"".join(bank.level(level).tobytes() for level in range(3))
    texts = (masks, report.loss_curve_csv().encode(), report.to_json().encode())
    assert tuple(hashlib.sha256(t).hexdigest()[:16] for t in texts) == expected


DECLARED_RUNS = [
    *acceptance.MOTION_RUNS,
    *acceptance.STATIC_RUNS,
    *acceptance.SWEEP_RUNS,
    *(cfg for pair in acceptance.BINARY_PAIRS for cfg in pair),
]


class TestDeclaredRuns:
    def test_every_declared_run_is_a_run_config(self):
        assert len(DECLARED_RUNS) == 13 and len(set(DECLARED_RUNS)) == 13
        for cfg in DECLARED_RUNS:
            assert isinstance(cfg, RunConfig) and replace(cfg) == cfg

    def test_sweep_varies_only_the_sweep_fields(self):
        varied = {"scene_kind", "seed", "lambda_layer0", "train_steps", "learning_rate"}
        for cfg in acceptance.SWEEP_RUNS:
            for f in fields(RunConfig):
                if f.name not in varied:
                    assert getattr(cfg, f.name) == getattr(acceptance.ACCEPT_RUN, f.name), f.name
        assert [cfg.lambda_layer0 for cfg in acceptance.SWEEP_RUNS] == [0.00025, 0.01, 0.04]

    def test_invalid_run_cannot_be_derived(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            replace(acceptance.ACCEPT_RUN, learning_rate=-0.5)

    def test_cache_is_keyed_by_the_whole_config(self):
        # progressive_start_step is a field the keyword form of trained() could not vary
        base = replace(acceptance.ACCEPT_RUN, anchor_count=8, image_width=8, image_height=8, train_steps=4)
        early, late = (replace(base, progressive_start_step=start) for start in (0, 4))
        try:
            early_run, late_run = acceptance.trained(early), acceptance.trained(late)
            assert early_run is not late_run and acceptance.trained(early) is early_run
            assert early_run[2].loss_curve != late_run[2].loss_curve
        finally:
            for cfg in (early, late):
                acceptance._TRAIN_CACHE.pop(cfg, None)


class TestHarnessSanity:
    def test_corrupted_entropy_constant_fails_the_oracle(self, monkeypatch):
        # deliberate fault injection: the oracle criterion must catch a wrong
        # clamp constant rather than silently passing
        monkeypatch.setattr(acceptance.entropy, "MASS_CLAMP", 1e-5)
        passed, details = acceptance.criterion_entropy_oracle(samples=120)
        assert not passed

    def test_doubled_consistency_gradient_fails_the_gradient_check(self, monkeypatch):
        # deliberate fault injection: criterion 4 must check the gradient that
        # training uses, so a wrong consistency gradient inside level_loss fails it
        consistency_loss = acceptance.losses.consistency_loss

        def doubled(*args):
            value, grad = consistency_loss(*args)
            return value, 2.0 * grad

        monkeypatch.setattr(acceptance.losses, "consistency_loss", doubled)
        passed, details = acceptance.criterion_gradients(configs=10)
        assert not passed

    def test_run_all_reports_wall_clock(self):
        results = acceptance.run_all(selected={1, 2, 11})
        assert [r.index for r in results] == [1, 2, 11]
        assert all(r.seconds >= 0 for r in results)
        assert all(r.passed for r in results)
