"""Command surface: flags, exit codes, report formats, reproducibility."""
import subprocess
import sys
from pathlib import Path

import pytest

import blocksketch as bs
from blocksketch.cli import main


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def kv(out):
    pairs = {}
    for ln in out.strip().splitlines():
        if "=" in ln:
            k, v = ln.split("=", 1)
            pairs[k] = v
    return pairs


@pytest.fixture
def clique_file(tmp_path, capsys):
    path = str(tmp_path / "cliques.txt")
    code, out, _ = run(["gen", "--n", "6", "--p", "1", "--q", "0",
                        "--n1", "3", "--n2", "3", "--seed", "1",
                        "--out", path], capsys)
    assert code == 0
    return path


class TestGen:
    def test_disjoint_cliques_example(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        code, out, err = run(["gen", "--n", "6", "--p", "1", "--q", "0",
                              "--n1", "3", "--n2", "3", "--seed", "1",
                              "--out", path], capsys)
        assert code == 0
        assert out == "edges=6\n"
        text = Path(path).read_text()
        assert text.startswith("6 6\n")
        assert any(ln.startswith("labels ") for ln in text.splitlines())
        g = bs.read_graph(path)
        assert g.m == 6 and g.truth is not None

    def test_missing_params_usage_error(self, tmp_path, capsys):
        code, out, err = run(["gen", "--out", str(tmp_path / "g.txt")], capsys)
        assert code == 2
        assert err != ""

    def test_contradictory_n(self, tmp_path, capsys):
        code, _, err = run(["gen", "--n", "7", "--p", "1", "--q", "0",
                            "--n1", "3", "--n2", "3", "--seed", "1",
                            "--out", str(tmp_path / "g.txt")], capsys)
        assert code == 2

    def test_mixed_parametrizations_rejected(self, tmp_path, capsys):
        code, _, _ = run(["gen", "--n1", "3", "--n2", "3", "--p", "0.9",
                          "--q", "0.1", "--alpha", "8", "--seed", "0",
                          "--out", str(tmp_path / "g.txt")], capsys)
        assert code == 2

    def test_rate_form(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        code, out, _ = run(["gen", "--n", "60", "--alpha", "9", "--beta", "1",
                            "--seed", "4", "--out", path], capsys)
        assert code == 0
        assert out.startswith("edges=")
        assert bs.read_graph(path).n == 60

    def test_repeat_identical_files(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        args = ["gen", "--n", "40", "--alpha", "6", "--beta", "1", "--seed", "9"]
        assert run(args + ["--out", a], capsys)[0] == 0
        assert run(args + ["--out", b], capsys)[0] == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_invalid_rates(self, tmp_path, capsys):
        code, _, _ = run(["gen", "--n", "10", "--alpha", "30", "--beta", "2",
                          "--seed", "0", "--out", str(tmp_path / "g.txt")], capsys)
        assert code == 2  # p = 30 ln(10)/10 > 1


class TestSolve:
    def test_recovers_planted(self, clique_file, capsys):
        code, out, _ = run(["solve", "--in", clique_file,
                            "--lambda", "0.3", "--seed", "2"], capsys)
        assert code == 0
        pairs = kv(out)
        assert pairs["recovered"] == "true"
        assert pairs["certificate"] == "tight"
        assert float(pairs["objective"]) >= float(pairs["rounded_objective"]) - 1e-6
        assert "iterations" in pairs and "gap" in pairs

    def test_rate_flags_give_auto_multiplier(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        run(["gen", "--n", "10", "--p", "0.9", "--q", "0.1", "--n1", "5",
             "--n2", "5", "--seed", "0", "--out", path], capsys)
        code, out, _ = run(["solve", "--in", path, "--p", "0.9", "--q", "0.1",
                            "--seed", "0"], capsys)
        assert code == 0
        assert kv(out)["recovered"] == "true"

    def test_failure_exit_code(self, tmp_path, capsys):
        # truth line contradicts the clique structure, so recovery must fail
        path = tmp_path / "bad.txt"
        path.write_text("6 6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n"
                        "labels 1 -1 1 -1 1 -1\n")
        code, out, _ = run(["solve", "--in", str(path),
                            "--lambda", "0.3", "--seed", "2"], capsys)
        assert code == 1
        assert kv(out)["recovered"] == "false"

    def test_no_truth_no_recovered_line(self, tmp_path, capsys):
        path = tmp_path / "plain.txt"
        path.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run(["solve", "--in", str(path),
                            "--lambda", "0.0", "--seed", "0"], capsys)
        assert code == 0
        assert "recovered" not in kv(out)

    def test_multiplier_source_required(self, clique_file, capsys):
        code, _, err = run(["solve", "--in", clique_file], capsys)
        assert code == 2
        assert "multiplier" in err

    def test_balanced_excludes_lambda(self, clique_file, capsys):
        code, _, _ = run(["solve", "--in", clique_file, "--balanced",
                          "--lambda", "0.3"], capsys)
        assert code == 2

    def test_balanced_flag(self, clique_file, capsys):
        code, out, _ = run(["solve", "--in", clique_file, "--balanced",
                            "--seed", "2"], capsys)
        assert code == 0
        assert kv(out)["recovered"] == "true"

    def test_balanced_odd_n(self, tmp_path, capsys):
        path = tmp_path / "odd.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, _, _ = run(["solve", "--in", str(path), "--balanced"], capsys)
        assert code == 2

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(["solve", "--in", str(tmp_path / "nope.txt"),
                          "--lambda", "0.3"], capsys)
        assert code == 2

    def test_rank_below_two(self, clique_file, capsys):
        code, out, err = run(["solve", "--in", clique_file, "--lambda", "0.3",
                              "--rank", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_rank_flag_default(self, tmp_path, capsys):
        # below the threshold, so the ascent runs and the rank matters
        path = str(tmp_path / "g.txt")
        run(["gen", "--n", "100", "--alpha", "3", "--beta", "1", "--seed", "1",
             "--out", path], capsys)
        argv = ["solve", "--in", path, "--alpha", "3", "--beta", "1", "--seed", "1"]
        code, out, _ = run(argv, capsys)
        assert code == 1 and kv(out)["iterations"] != "0"
        assert run(argv + ["--rank", "8"], capsys)[:2] == (code, out)


class TestSketch:
    def test_full_sample_succeeds(self, clique_file, capsys):
        code, out, _ = run(["sketch", "--in", clique_file, "--gamma", "1",
                            "--p", "1", "--q", "0", "--lambda", "0.3",
                            "--seed", "2"], capsys)
        assert code == 0
        pairs = kv(out)
        assert pairs["success"] == "true"
        assert pairs["sample_size"] == "6"
        assert pairs["ties"] == "0"
        assert pairs["lambda"] == "0.3"

    def test_gamma_out_of_range(self, clique_file, capsys):
        assert run(["sketch", "--in", clique_file, "--gamma", "1.5",
                    "--p", "1", "--q", "0"], capsys)[0] == 2
        assert run(["sketch", "--in", clique_file, "--gamma", "0",
                    "--p", "1", "--q", "0"], capsys)[0] == 2

    def test_needs_labels_line(self, tmp_path, capsys):
        path = tmp_path / "plain.txt"
        path.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, _, _ = run(["sketch", "--in", str(path), "--gamma", "1",
                          "--p", "0.9", "--q", "0.1"], capsys)
        assert code == 2

    def test_needs_rates(self, clique_file, capsys):
        code, _, _ = run(["sketch", "--in", clique_file, "--gamma", "1",
                          "--lambda", "0.3"], capsys)
        assert code == 2

    def test_missing_file(self, tmp_path, capsys):
        code, _, _ = run(["sketch", "--in", str(tmp_path / "nope.txt"),
                          "--gamma", "0.5", "--p", "0.9", "--q", "0.1"], capsys)
        assert code == 2

    def test_degenerate_sample_reports_failure(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        run(["gen", "--n", "4", "--p", "0.9", "--q", "0.1", "--n1", "2",
             "--n2", "2", "--seed", "1", "--out", path], capsys)
        # seed 0 drops all four nodes at gamma=0.1
        code, out, err = run(["sketch", "--in", path, "--gamma", "0.1",
                              "--p", "0.9", "--q", "0.1", "--seed", "0"], capsys)
        assert code == 1
        pairs = kv(out)
        assert pairs["success"] == "false"
        assert pairs["lambda"] == "none"
        assert pairs["certificate"] == "none"
        assert "degenerate" in err


class TestSweep:
    def test_single_cell_single_row(self, capsys):
        code, out, err = run(["sweep", "--n", "12", "--alpha", "2",
                              "--beta", "0.5", "--gamma", "1.0",
                              "--trials", "1", "--master-seed", "0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == bs.CSV_HEADER
        assert lines[1].split(",")[0] == "12"

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(["sweep", "--n", "12", "--alpha", "2",
                            "--beta", "0.5", "--gamma", "0.5", "--gamma", "1.0",
                            "--trials", "2", "--master-seed", "3"], capsys)
        assert code == 0
        assert bs.parse_sweep_csv(out).to_csv() == out

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(["sweep", "--n", "12", "--alpha", "2",
                            "--beta", "0.5", "--gamma", "1.0", "--trials", "1",
                            "--master-seed", "0", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert path.read_text().startswith(bs.CSV_HEADER)

    def test_jobs_do_not_change_results(self, capsys):
        args = ["sweep", "--n", "12", "--alpha", "2", "--beta", "0.5",
                "--gamma", "0.5", "--gamma", "1.0", "--trials", "3",
                "--master-seed", "5"]
        _, out1, _ = run(args + ["--jobs", "1"], capsys)
        _, out4, _ = run(args + ["--jobs", "4"], capsys)

        def mask(csv):
            rows = csv.splitlines()
            return [",".join(r.split(",")[:10] + r.split(",")[11:])
                    for r in rows[1:]]

        assert mask(out1) == mask(out4)

    def test_trials_zero(self, capsys):
        code, _, _ = run(["sweep", "--n", "12", "--alpha", "2", "--beta", "0.5",
                          "--gamma", "1.0", "--trials", "0",
                          "--master-seed", "0"], capsys)
        assert code == 2

    def test_missing_axis(self, capsys):
        code, _, _ = run(["sweep", "--n", "12", "--alpha", "2", "--beta", "0.5",
                          "--trials", "1"], capsys)
        assert code == 2


class TestVoteOracle:
    def test_file_mode(self, clique_file, capsys):
        code, out, _ = run(["vote-oracle", "--in", clique_file, "--gamma", "1",
                            "--trials", "5", "--seed", "0"], capsys)
        assert code == 0
        pairs = kv(out)
        assert pairs == {"trials": "5", "successes": "5",
                         "success_rate": "1.000000"}

    def test_param_mode(self, capsys):
        code, out, _ = run(["vote-oracle", "--n", "60", "--alpha", "9",
                            "--beta", "1", "--gamma", "0.9", "--trials", "5",
                            "--seed", "1"], capsys)
        assert code == 0
        rate = float(kv(out)["success_rate"])
        assert 0.0 <= rate <= 1.0

    def test_source_exclusivity(self, clique_file, capsys):
        both = ["vote-oracle", "--in", clique_file, "--n", "10", "--alpha", "9",
                "--beta", "1", "--gamma", "0.5"]
        assert run(both, capsys)[0] == 2
        assert run(["vote-oracle", "--gamma", "0.5"], capsys)[0] == 2

    def test_trials_positive(self, clique_file, capsys):
        code, _, _ = run(["vote-oracle", "--in", clique_file, "--gamma", "0.5",
                          "--trials", "0"], capsys)
        assert code == 2


class TestBounds:
    def test_threshold_report(self, capsys):
        code, out, _ = run(["bounds", "--alpha", "8", "--beta", "2"], capsys)
        assert code == 0
        pairs = kv(out)
        assert pairs["gamma_star"] == "1.000000"
        assert pairs["theorem1"] == "boundary"

    def test_gamma_star_value(self, capsys):
        _, out, _ = run(["bounds", "--alpha", "25", "--beta", "4"], capsys)
        assert kv(out)["gamma_star"] == "0.222222"

    def test_tail_block(self, capsys):
        code, out, _ = run(["bounds", "--K1", "100", "--K2", "100",
                            "--p", "0.2", "--q", "0.05"], capsys)
        assert code == 0
        pairs = kv(out)
        assert pairs["lemma2_bound"] == "6.737947e-3"
        assert float(pairs["exact_tail"]) <= float(pairs["lemma2_bound"])
        assert (float(pairs["exact_tail"]) <= float(pairs["chernoff_min"])
                <= float(pairs["lemma2_bound"]))

    def test_lambda_star_line(self, capsys):
        _, out, _ = run(["bounds", "--p", "0.2", "--q", "0.05"], capsys)
        assert kv(out)["lambda_star"] == "0.108202"

    def test_exponent_with_gamma(self, capsys):
        _, out, _ = run(["bounds", "--alpha", "25", "--beta", "4",
                         "--gamma", "0.5"], capsys)
        assert kv(out)["lemma2_exponent"] == "2.250000"

    def test_no_computable_group(self, capsys):
        assert run(["bounds"], capsys)[0] == 2
        assert run(["bounds", "--K1", "10", "--K2", "10"], capsys)[0] == 2

    def test_domain_errors(self, capsys):
        assert run(["bounds", "--alpha", "2", "--beta", "8"], capsys)[0] == 2
        assert run(["bounds", "--K1", "10", "--K2", "100", "--p", "0.05",
                    "--q", "0.2"], capsys)[0] == 2

    def test_capacity_exit_code(self, capsys):
        code, _, _ = run(["bounds", "--K1", "60000", "--K2", "60001",
                          "--p", "0.2", "--q", "0.05"], capsys)
        assert code == 3


class TestParsingAndSeeds:
    def test_unknown_flag(self, capsys):
        assert run(["bounds", "--alpha", "8", "--beta", "2",
                    "--frobnicate"], capsys)[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["transmogrify"], capsys)[0] == 2

    def test_no_subcommand(self, capsys):
        assert run([], capsys)[0] == 2

    @pytest.mark.parametrize("argv", [
        ["bounds", "--alpha", "30", "--beta", "2", "--n", "0"],
        ["bounds", "--alpha", "30", "--beta", "2", "--n", "-4"],
        ["solve", "--in", "{empty}", "--alpha", "30", "--beta", "2"],
        ["solve", "--in", "{cliques}", "--lambda", "nan"],
        ["solve", "--in", "{cliques}", "--lambda", "inf"],
        ["sketch", "--in", "{cliques}", "--gamma", "1", "--p", "1", "--q", "0",
         "--lambda", "nan"],
        ["gen", "--n", "100", "--alpha", "5", "--beta", "1", "--seed", "-1",
         "--out", "{out}"],
        ["sweep", "--n", "12", "--alpha", "2", "--beta", "0.5", "--gamma", "1.0",
         "--trials", "1", "--master-seed", "-2"],
        ["solve", "--in", "{cliques}", "--lambda", "0.5", "--seed", "-4"],
        ["sketch", "--in", "{cliques}", "--gamma", "1", "--p", "1", "--q", "0",
         "--seed", "-4"],
    ])
    def test_bad_numbers_are_parameter_errors(self, argv, clique_file, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("0 0\n")
        argv = [a.format(empty=empty, cliques=clique_file, out=tmp_path / "g.txt")
                for a in argv]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        monkeypatch.setenv("BLOCKSKETCH_SEED", "17")
        run(["gen", "--n", "40", "--alpha", "6", "--beta", "1", "--out", a],
            capsys)
        monkeypatch.delenv("BLOCKSKETCH_SEED")
        run(["gen", "--n", "40", "--alpha", "6", "--beta", "1", "--seed", "17",
             "--out", b], capsys)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        monkeypatch.setenv("BLOCKSKETCH_SEED", "17")
        run(["gen", "--n", "40", "--alpha", "6", "--beta", "1", "--seed", "3",
             "--out", a], capsys)
        monkeypatch.delenv("BLOCKSKETCH_SEED")
        run(["gen", "--n", "40", "--alpha", "6", "--beta", "1", "--seed", "3",
             "--out", b], capsys)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_env_seed_junk(self, tmp_path, capsys, monkeypatch):
        for raw in ("not-a-number", "-3"):
            monkeypatch.setenv("BLOCKSKETCH_SEED", raw)
            code, out, err = run(["gen", "--n", "40", "--alpha", "6", "--beta", "1",
                                  "--out", str(tmp_path / "a.txt")], capsys)
            assert code == 2
            assert out == "" and err.startswith("error:")

    def test_stdout_byte_reproducible(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        run(["gen", "--n", "10", "--p", "0.9", "--q", "0.1", "--n1", "5",
             "--n2", "5", "--seed", "0", "--out", path], capsys)
        args = ["solve", "--in", path, "--p", "0.9", "--q", "0.1", "--seed", "5"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2

    def test_console_script_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from blocksketch.cli import console_main; console_main()",
             "bounds", "--alpha", "8", "--beta", "2"],
            capture_output=True, text=True)
        assert proc.returncode != 0 or "gamma_star" in proc.stdout


class TestSketchFixture:
    def test_recovery_rate_at_moderate_gamma(self, tmp_path, capsys):
        # n=400, alpha=30, beta=2, gamma=0.6 (about five times the threshold):
        # the pipeline must succeed on at least 85 of these 100 fixture seeds
        hits = 0
        path = str(tmp_path / "g.txt")
        for seed in range(100):
            s = str(seed)
            code, _, _ = run(["gen", "--n", "400", "--alpha", "30",
                              "--beta", "2", "--seed", s, "--out", path],
                             capsys)
            assert code == 0
            code, _, _ = run(["sketch", "--in", path, "--gamma", "0.6",
                              "--alpha", "30", "--beta", "2", "--seed", s],
                             capsys)
            hits += (code == 0)
        assert hits >= 85
