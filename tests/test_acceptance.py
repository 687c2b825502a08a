"""Acceptance gate: every criterion at its stated tolerance.

Each test runs one cross-verification check at full size and prints its
pass/fail line; tolerances are pinned in seqmix.verify and stated below.

  1. ridge oracle equivalence ......... |solver - oracle| <= 1e-4 abs,
                                        finite-d within 3 pooled stderr
  2. solver sweeps track the simulator  max rel deviation <= 0.05,
                                        iters 1-20, 5 seeds, d = 1000
  3. simulator fixed points are GD
     critical points ................. grad <= 1e-4 (1 + ||grad at 0||_inf)
  4. training loss = -free entropy .... |et + phi| <= 2 (tol + stderr)
  5. solver predicts trained test error within 3 pooled stderr at
                                        alpha in {0.5, 1, 2, 4}, d = 500
  6. directed messages = single-index   coordinate RMS <= 5 / sqrt(d)
     iteration at d = 40, n = 80
  7. two-token invariant suite ........ residual, symmetry/PSD, identity,
                                        trajectory deviation <= 0.05
  8. unit-level property sweep ........ prox 1e-10, gradients 1e-5,
                                        roots 1e-9, moments 3 sigma,
                                        linearity 1e-12
"""

import pytest

from seqmix.verify import (
    check_free_energy_identity,
    check_gamp_gd_fixed_point,
    check_onsager_mutation,
    check_rbp_gamp_equivalence,
    check_replica_predicts_erm,
    check_ridge_oracle,
    check_se_tracks_gamp,
    check_two_token,
    check_unit_properties,
)


@pytest.fixture(scope="session")
def report_line(request):
    """Write one live line per criterion, bypassing output capture."""
    plugins = request.config.pluginmanager
    terminal = plugins.get_plugin("terminalreporter")
    capture = plugins.get_plugin("capturemanager")

    def write(result):
        if terminal is not None and capture is not None:
            # fd-level capture also swallows the terminal writer's stream
            with capture.global_and_fixture_disabled():
                terminal.write_line("")
                terminal.write_line(result.line())
        else:
            print(result.line())
        assert result.passed, result.detail

    return write


class TestAcceptance:
    def test_criterion_1_ridge_oracle(self, report_line):
        report_line(check_ridge_oracle())

    def test_criterion_2_se_tracks_gamp(self, report_line):
        report_line(check_se_tracks_gamp())

    def test_criterion_3_gamp_fixed_points_are_gd_critical_points(self, report_line):
        report_line(check_gamp_gd_fixed_point())

    def test_criterion_4_free_energy_identity(self, report_line):
        report_line(check_free_energy_identity())

    def test_criterion_5_replica_predicts_erm(self, report_line):
        report_line(check_replica_predicts_erm())

    def test_criterion_6_rbp_gamp_equivalence(self, report_line):
        report_line(check_rbp_gamp_equivalence())

    def test_criterion_7_two_token_invariants(self, report_line):
        report_line(check_two_token())

    def test_criterion_8_unit_properties(self, report_line):
        report_line(check_unit_properties())


class TestRegression:
    def test_onsager_terms_are_load_bearing(self, report_line):
        # removing either memory term must break the trajectory agreement
        report_line(check_onsager_mutation())
