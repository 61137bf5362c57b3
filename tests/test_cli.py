import gc
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from logent.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.startswith("{") else captured.out
    return code, payload, captured.err


def as_number(value):
    """Decode the JSON serialization: floats stay, 'a/b' strings are exact."""
    if isinstance(value, str):
        if value == "Infinity":
            return math.inf
        num, den = value.split("/")
        return int(num) / int(den)
    return value


class TestEntropyCommand:
    def test_partition_input(self, capsys):
        code, out, _ = run(capsys, "entropy", "0,1|2")
        assert code == 0
        assert out["outputs"]["h"] == pytest.approx(4 / 9)
        assert out["outputs"]["H"] == pytest.approx(0.91830, abs=5e-6)
        assert out["outputs"]["dits"] == 4
        assert out["units"]["H"] == "bits"
        assert all(v < 1e-9 for v in out["residuals"].values())

    def test_uniform_discrete(self, capsys):
        code, out, _ = run(capsys, "entropy", "0|1|2|3")
        assert out["outputs"]["h"] == pytest.approx(0.75)
        assert out["outputs"]["H"] == pytest.approx(2.0)

    def test_point_mass_distribution(self, capsys):
        code, out, _ = run(capsys, "entropy", "1")
        assert code == 0
        assert out["outputs"]["h"] == 0
        assert out["outputs"]["H"] == 0.0

    def test_exact_distribution(self, capsys):
        code, out, _ = run(capsys, "entropy", "1/2,1/3,1/6")
        assert out["outputs"]["h"] == "11/18"
        assert out["outputs"]["identification_probability"] == "7/18"

    def test_weights(self, capsys):
        code, out, _ = run(capsys, "entropy", "0,1|2", "--weights", "1/2,1/4,1/4")
        assert out["outputs"]["h"] == "3/8"

    def test_weights_on_distribution_rejected(self, capsys):
        code, _, err = run(capsys, "entropy", "1/2,1/2", "--weights", "1/2,1/2")
        assert code == 1
        assert "partition" in err

    def test_universe_size_on_distribution_rejected(self, capsys):
        """The size is the largest index + 1, so ``--n`` is no option, on any input."""
        for text in ("1/2,1/2", "0,1|2"):
            code, _, err = run(capsys, "entropy", text, "--n", "5")
            assert code == 1
            assert "unrecognized arguments: --n 5" in err
        code, _, err = run(capsys, "ops", "join", "0|1", "0,1", "--n", "2")
        assert code == 1
        assert "unrecognized arguments: --n 2" in err

    def test_base_e(self, capsys):
        code, out, _ = run(capsys, "entropy", "0|1", "--base", "e")
        assert out["outputs"]["H"] == pytest.approx(math.log(2))
        assert out["units"]["H"] == "nats"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "entropy", "0,1|x")
        assert code == 1
        assert "error" in err

    def test_kind_override(self, capsys):
        code, out, _ = run(capsys, "entropy", "0,1", "--kind", "partition")
        assert out["outputs"]["h"] == 0.0
        assert out["inputs"]["partition"] == "0,1"


class TestJointCommand:
    def test_independent_uniform(self, capsys):
        code, out, _ = run(capsys, "joint", "1/4,1/4;1/4,1/4", "--exact")
        assert out["outputs"]["I_xy"] == pytest.approx(0.0, abs=1e-12)
        assert out["outputs"]["m_xy"] == "1/4"
        assert all(
            float(v) < 1e-9 for v in out["residuals"].values()
        )

    def test_identity_coupling(self, capsys):
        code, out, _ = run(capsys, "joint", "1/2,0;0,1/2", "--exact")
        assert out["outputs"]["I_xy"] == pytest.approx(1.0)
        assert out["outputs"]["m_xy"] == "1/2"
        assert out["outputs"]["h_x_given_y"] == "0/1"
        assert out["outputs"]["H_x_given_y"] == pytest.approx(0.0)

    def test_point_mass(self, capsys):
        code, out, _ = run(capsys, "joint", "1,0;0,0")
        for key in ("h_xy", "m_xy", "I_xy", "H_xy"):
            assert float(out["outputs"][key]) == pytest.approx(0.0)

    def test_negative_entry(self, capsys):
        code, _, err = run(capsys, "joint", "0.5,-0.5;0.5,0.5")
        assert code == 1

    def test_normalization_error(self, capsys):
        code, _, err = run(capsys, "joint", "0.5,0.5;0.5,0.5")
        assert code == 1
        assert "sum" in err


class TestOpsCommand:
    def test_join(self, capsys):
        code, out, _ = run(capsys, "ops", "join", "0,1|2,3", "0,2|1,3")
        assert out["outputs"]["partition"] == "0|1|2|3"

    def test_meet(self, capsys):
        code, out, _ = run(capsys, "ops", "meet", "0,1|2,3", "0,2|1,3")
        assert out["outputs"]["partition"] == "0,1,2,3"

    def test_implies(self, capsys):
        code, out, _ = run(capsys, "ops", "implies", "0,1|2,3", "0,1,2|3")
        assert out["outputs"]["partition"] == "0|1|2,3"

    def test_mismatched_sizes_rejected(self, capsys):
        code, _, err = run(capsys, "ops", "join", "0,1", "0|1,2")
        assert code == 1
        assert "size" in err

    def test_bad_operation(self, capsys):
        code, _, _ = run(capsys, "ops", "subtract", "0,1", "0|1")
        assert code == 1


class TestCompareCommand:
    def test_equal_distributions(self, capsys):
        code, out, _ = run(capsys, "compare", "1/2,1/2", "1/2,1/2")
        assert as_number(out["outputs"]["d"]) == 0
        assert out["outputs"]["D_pq"] == pytest.approx(0.0)

    def test_disjoint_supports(self, capsys):
        code, out, _ = run(capsys, "compare", "1,0", "0,1")
        assert float(out["outputs"]["d"]) == 1.0
        assert out["outputs"]["h_cross"] == 1.0
        assert out["outputs"]["D_pq"] == "Infinity"

    def test_reference_values(self, capsys):
        code, out, _ = run(capsys, "compare", "1/2,1/2", "1/4,3/4")
        assert out["outputs"]["d"] == "1/16"
        assert out["outputs"]["D_pq"] == pytest.approx(0.20752, abs=5e-6)
        assert out["outputs"]["D_sym"] == pytest.approx(0.19812, abs=5e-6)
        assert out["outputs"]["chain_cross_ge_mixture"] is True
        assert out["outputs"]["chain_mixture_ge_mean"] is True
        assert out["residuals"]["jensen_difference"] < 1e-12

    def test_length_mismatch(self, capsys):
        code, _, _ = run(capsys, "compare", "1/2,1/2", "1/3,1/3,1/3")
        assert code == 1


BELOW = f"1/{10**400},{10**400 - 1}/{10**400}"  # exact (t, 1 - t), t below the float range


class TestFloatRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ("entropy", BELOW),
            ("joint", BELOW.replace(",", ",0;0,")),
            ("compare", "1/2,1/2", BELOW),
            ("sample", "typical", BELOW, "--length", "50", "--samples", "5"),
        ],
        ids=["entropy", "joint", "compare", "sample-typical"],
    )
    def test_exact_mass_below_the_float_range(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--exact")
        assert code == 0
        for value in [*out["outputs"].values(), *out["residuals"].values()]:
            if not isinstance(value, (bool, list)):
                assert math.isfinite(as_number(value))

    def test_divergence_past_the_float_range_is_finite(self, capsys):
        code, out, _ = run(capsys, "compare", "1/2,1/2", "5e-324,1")
        assert code == 0
        assert out["outputs"]["D_pq"] == 536.0
        assert out["outputs"]["D_sym"] == 268.5


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3", "--seed", "11")
        assert code == 0
        assert out["outputs"]["all_passed"] is True
        assert out["outputs"]["failed_suites"] == []
        names = {s["name"] for s in out["outputs"]["suites"]}
        assert "join_dit_union" in names
        assert "mutual_dit_structure_theorem" in names

    def test_max_n_limits(self, capsys, monkeypatch):
        code, _, err = run(capsys, "verify", "--max-n", "8")
        assert code == 1
        code, _, err = run(capsys, "verify", "--max-n", "1")
        assert code == 1
        from logent import verification
        from logent.verification import SuiteResult

        # n = 7 is accepted; the sweep itself (minutes) is stubbed out here
        passed = [SuiteResult("stub", checks=1, failures=0, worst_residual=0.0)]
        monkeypatch.setattr(verification, "run_all", lambda max_n, seed: passed)
        code, out, _ = run(capsys, "verify", "--max-n", "7")
        assert code == 0 and out["inputs"]["max_n"] == 7

    def test_failure_exits_with_code_two(self, capsys, monkeypatch):
        from logent import verification
        from logent.verification import SuiteResult

        broken = [SuiteResult("planted_failure", checks=10, failures=3, worst_residual=0.5)]
        monkeypatch.setattr(verification, "run_all", lambda max_n, seed: broken)
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 2
        assert out["outputs"]["all_passed"] is False
        assert out["outputs"]["failed_suites"] == ["planted_failure"]

    def test_a_broken_measure_is_reported(self, capsys, monkeypatch):
        from logent import shannon

        substituted = shannon._substituted_sum
        monkeypatch.setattr(shannon, "_substituted_sum", lambda *a: substituted(*a) + 0.25)
        code, out, _ = run(capsys, "verify", "--max-n", "2")
        assert code == 2
        assert out["outputs"]["failed_suites"] == ["compound_transforms_match_direct"]


class TestLatticeCommand:
    @pytest.mark.parametrize("n, count", [(1, 1), (3, 5), (5, 52)])
    def test_bell_counts(self, capsys, n, count):
        code, out, _ = run(capsys, "lattice", str(n))
        assert out["outputs"]["bell_count"] == count

    def test_edges_small(self, capsys):
        code, out, _ = run(capsys, "lattice", "3")
        assert out["outputs"]["cover_edge_count"] == 6
        assert [0, 1] in out["outputs"]["cover_edges"]

    def test_count_only_for_large(self, capsys):
        code, out, _ = run(capsys, "lattice", "12")
        assert out["outputs"]["bell_count"] == 4213597
        assert "cover_edges" not in out["outputs"]

    def test_limit(self, capsys):
        code, _, _ = run(capsys, "lattice", "13")
        assert code == 1

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "lattice", "2", "--dot")
        assert out["outputs"]["dot"].startswith("digraph")

    def test_dot_refused_beyond_listing_cap(self, capsys):
        code, out, err = run(capsys, "lattice", "7", "--dot")
        assert code == 1
        assert out == ""
        assert "DOT output needs n <= 6" in err


class TestSampleCommand:
    def test_pairs_report(self, capsys):
        code, out, _ = run(
            capsys, "sample", "pairs", "1/2,1/2", "--trials", "100000", "--seed", "42"
        )
        assert code == 0
        assert out["outputs"]["target"] == pytest.approx(0.5)
        assert abs(out["outputs"]["estimate"] - 0.5) < 0.01
        assert out["outputs"]["trials"] == 100000
        assert out["outputs"]["seed"] == 42

    def test_typical_equiprobable(self, capsys):
        code, out, _ = run(
            capsys,
            "sample", "typical", "1/3,1/3,1/3",
            "--length", "1000", "--samples", "10", "--seed", "42",
        )
        assert out["outputs"]["estimate"] == pytest.approx(math.log2(3), abs=1e-12)
        assert out["outputs"]["std_error"] == 0.0

    def test_seqavg_point_mass(self, capsys):
        code, out, _ = run(capsys, "sample", "seqavg", "1", "--length", "100")
        assert out["outputs"]["estimate"] == 0.0

    def test_deterministic_repeat(self, capsys):
        args = ("sample", "pairs", "1/2,1/3,1/6", "--trials", "5000", "--seed", "9")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_count_too_large_to_allocate_exits_one(self, capsys):
        # 8 * 10**15 bytes is beyond any address space, so nothing is really allocated
        code, out, err = run(capsys, "sample", "pairs", "1/2,1/2", "--trials", str(10**15), "--seed", "1")
        assert (code, out) == (1, "")
        assert err == f"error: cannot allocate {10**15} sampled values ({8 * 10**15} bytes)\n"


class TestStirlingCommand:
    def test_two_blocks(self, capsys):
        code, out, _ = run(capsys, "stirling", "6,6")
        assert out["outputs"]["s_exact"] == pytest.approx(math.log(924) / 12, abs=1e-12)
        assert out["units"]["s_exact"] == "nats"

    def test_single_block(self, capsys):
        code, out, _ = run(capsys, "stirling", "1")
        assert out["outputs"]["s_exact"] == 0.0
        assert out["outputs"]["approx2"] == 0.0

    def test_four_blocks_three_term_wins(self, capsys):
        code, out, _ = run(capsys, "stirling", "250,250,250,250")
        assert out["outputs"]["err3"] < out["outputs"]["err2"]

    def test_parse_error(self, capsys):
        code, _, _ = run(capsys, "stirling", "6,six")
        assert code == 1

    def test_size_past_lgamma_range_exits_one(self):
        # a child process with a timeout, so an O(N) route fails instead of hanging
        done = subprocess.run(
            [sys.executable, "-m", "logent.cli", "stirling", str(10**400)],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert done.returncode == 1
        assert "float range" in done.stderr


class TestOutputContract:
    def test_every_output_has_a_unit(self, capsys):
        for argv in (
            ["entropy", "0,1|2"],
            ["joint", "1/4,1/4;1/4,1/4"],
            ["compare", "1/2,1/2", "1/4,3/4"],
            ["stirling", "6,6"],
        ):
            _, out, _ = run(capsys, *argv)
            for key in out["outputs"]:
                assert key in out["units"], f"{argv[0]}: no unit for {key}"

    def test_pretty_mode_is_readable(self, capsys):
        code, out, _ = run(capsys, "entropy", "0,1|2", "--pretty")
        assert code == 0
        assert "# entropy" in out
        assert "[bits]" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["stirling", "6,6", "--base", "e"],
            ["verify", "--max-n", "2", "--exact"],
            ["sample", "typical", "1/2,1/2", "--base", "e"],
            ["ops", "join", "0,1|2", "0|1,2", "--exact"],
            ["lattice", "3", "--base", "e"],
            ["sample", "pairs", "1/2,1/2", "--trials", "10", "--length", "5", "--samples", "3"],
            ["sample", "pairs", "1/2,1/2", "--length", "5"],
            ["sample", "pairs", "1/2,1/2", "--samples", "3"],
            ["sample", "seqavg", "1/2,1/2", "--trials", "10"],
            ["sample", "seqavg", "1/2,1/2", "--samples", "3"],
            ["sample", "typical", "1/2,1/2", "--trials", "10"],
        ],
    )
    def test_options_a_subcommand_does_not_read_are_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ops", "meet", "0,1|2", "0|1,2", "--pretty", "--base", "e"],
            ["compare", "1/2,1/2", "0.25,0.75", "--pretty", "--base", "e", "--exact"],
            ["lattice", "3", "--pretty"],
            ["stirling", "6,6", "--pretty", "--bits"],
            ["sample", "pairs", "0.5,0.5", "--pretty", "--exact", "--trials", "10"],
        ],
    )
    def test_options_a_subcommand_reads_are_accepted(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.startswith(f"# {argv[0]}")

    def test_residuals_small_on_valid_inputs(self, capsys):
        _, out, _ = run(capsys, "joint", "0.3,0.2;0.1,0.4")
        assert all(float(v) < 1e-9 for v in out["residuals"].values())

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("0,1|2,3\n"))
        code, out, _ = run(capsys, "entropy", "-")
        assert code == 0
        assert out["outputs"]["h"] == pytest.approx(0.5)

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "joint.csv"
        path.write_text("1/4,1/4\n1/4,1/4\n")
        code, out, _ = run(capsys, "joint", str(path))
        assert code == 0
        assert out["outputs"]["I_xy"] == pytest.approx(0.0, abs=1e-12)


def child(*args):
    """``python *args`` in a child process that imports this checkout's ``logent``."""
    return subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestExitRoute:
    """``python -m logent.cli`` and the ``logent`` script leave through ``cli.run``."""

    def test_module_run_prints_what_main_prints(self, capsys):
        done = child("-m", "logent.cli", "entropy", "0,1|2")
        assert main(["entropy", "0,1|2"]) == 0
        assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")

    def test_input_error_exits_one(self):
        done = child("-m", "logent.cli", "entropy", "x|")
        assert done.returncode == 1
        assert done.stdout == "" and done.stderr.startswith("error: ")

    def test_failing_suite_exits_two(self):
        skew = (
            "import logent.shannon as s, runpy; f = s._substituted_sum; "
            "s._substituted_sum = lambda *a: f(*a) + 0.25; "
            "runpy.run_module('logent.cli', run_name='__main__')"
        )
        done = child("-c", skew, "verify", "--max-n", "2")
        assert done.returncode == 2
        assert json.loads(done.stdout)["outputs"]["failed_suites"] == ["compound_transforms_match_direct"]

    def test_exit_runs_atexit_after_the_freeze(self):
        code = (
            "import atexit, gc, logent.cli as c; "
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); c.run()"
        )
        done = child("-c", code, "stirling", "6,6")
        assert done.returncode == 0
        assert done.stdout.splitlines()[-1] == "frozen True"

    def test_main_leaves_the_collector_alone(self, capsys):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert main(["entropy", "0,1|2"]) == 0
        assert main(["entropy", "x|"]) == 1
        capsys.readouterr()
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    @pytest.mark.parametrize("argv", [["lattice", "6"], ["entropy", "0,1|2"]])
    def test_closed_stdout_exits_one_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader before the child writes: every write is a broken pipe
        try:
            done = subprocess.run(
                [sys.executable, "-m", "logent.cli", *argv],
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, "")  # no traceback, no message

    def test_console_script_is_the_exit_route(self):
        pyproject = (SRC.parent / "pyproject.toml").read_text()
        assert 'logent = "logent.cli:run"' in pyproject
