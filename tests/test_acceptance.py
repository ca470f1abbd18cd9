"""Acceptance gate: one test per selftest criterion, plus the exit code.

Every test replays the corresponding selftest check (results are cached
and shared, so the heavy convergence runs execute once per session) and
asserts it passed, carrying the measured numbers in the failure message.

Criterion 8 runs its penalty sweep under the transverse load f = 0,
g = 1, whose large-penalty limit is nonzero, so a collapse there is
locking and not the exact solution vanishing (see the locking module
docstring).  The last test is the selftest exit code over all twelve.
"""

from infsup_lab import cli, selftest


def _assert_passed(result):
    assert result.passed, (f"criterion {result.number} [{result.label}] "
                           f"failed: {result.detail}")


def test_01_taylor_hood_beta_stable_under_refinement():
    _assert_passed(selftest.check_taylor_hood_stability())


def test_02_equal_order_beta_decays():
    _assert_passed(selftest.check_equal_order_decay())


def test_03_mini_beta_stable_under_refinement():
    _assert_passed(selftest.check_mini_stability())


def test_04_p1p0_worst_mode_is_checkerboard():
    _assert_passed(selftest.check_checkerboard_mode())


def test_05_loss_reintroduction_converges_at_order_one():
    _assert_passed(selftest.check_loss_convergence())


def test_06_brezzi_pitkaranta_converges_at_order_one():
    _assert_passed(selftest.check_brezzi_pitkaranta_convergence())


def test_07_taylor_hood_converges_at_optimal_order():
    _assert_passed(selftest.check_taylor_hood_convergence())


def test_08_plain_penalty_locks_and_correction_holds():
    _assert_passed(selftest.check_locking_and_cure())


def test_09_multiplier_elimination_identity():
    _assert_passed(selftest.check_multiplier_elimination())


def test_10_nitsche_reproduces_constants_and_converges():
    _assert_passed(selftest.check_nitsche())


def test_11_flux_multiplier_penalty_equivalence():
    _assert_passed(selftest.check_penalty_multiplier_equivalence())


def test_12_assembly_requadrature_identity():
    _assert_passed(selftest.check_assembly_requadrature())


def test_14_selftest_subcommand_exits_zero(tmp_path, capsys):
    code = cli.main(["selftest", "--json", str(tmp_path / "selftest.json")])
    out = capsys.readouterr().out
    assert out.count("\n") >= len(selftest.CHECKS) + 1   # checks + total
    assert "checks passed" in out
    assert code == 0, f"selftest exited {code}; table:\n{out}"
