"""Release-gate suite: one test per acceptance criterion, each at its stated tolerance.

Runs every criterion through the same functions the ``verify`` CLI command
uses and prints one PASS/FAIL line per criterion (visible with ``-s`` or on
failure). Training-backed criteria share the in-process cache, so the whole
module costs a handful of desk-scale training runs.
"""


from pd4g import acceptance


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
