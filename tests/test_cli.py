"""Command-line interface: exit codes, outputs, determinism."""

import io
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from importlib.metadata import EntryPoint
from pathlib import Path
from unittest import mock

import pytest

from condrisk import __version__, _backend, coverage, mc
from condrisk.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from condrisk.compare import COMPARE_CSV_HEADER
from condrisk.coverage import COVERAGE_CSV_HEADER

DATASET_TEXT = textwrap.dedent(
    """\
    id,exposure,y1,y2,y3
    a1,150,1,1,1
    a2,150,1,0,1
    a3,150,0,1,0
    a4,150,0,0,1
    a5,150,1,1,0
    a6,150,0,0,0
    b1,100,1,0,1
    b2,100,0,1,0
    b3,100,1,1,1
    b4,100,0,0,1
    b5,100,1,0,0
    b6,100,0,1,1
    """
)

GRID_TEXT = textwrap.dedent(
    """\
    n_E = 20 30
    n_nonE = 25
    pi_E = 0.3 0.5
    pi_nonE = 0.4
    rho_E = 0.1
    rho_nonE = 0.5
    """
)


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(DATASET_TEXT)
    return path


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text(GRID_TEXT)
    return path


class TestParsing:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"condrisk {__version__}"

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--bogus", "1", "--out", "-"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_pair_spec_is_usage_error(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "analyze", "--input", str(dataset), "--exposed-value", "150",
                "--pairs", "2-1", "--out", str(tmp_path / "out"),
            ])
        assert exc.value.code == EXIT_USAGE

    def test_coverage_grid_flags_are_exclusive(self, grid_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "coverage", "--grid", str(grid_file), "--paper-grid",
                "--out", str(tmp_path / "c.csv"),
            ])
        assert exc.value.code == EXIT_USAGE

    def test_console_script_matches_module(self, tmp_path):
        # run the launcher pip would generate for the declared console
        # script, against the source tree instead of an install
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        repo = Path(__file__).resolve().parents[1]
        with open(repo / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        entry = EntryPoint(
            name="condrisk", value=scripts["condrisk"], group="console_scripts"
        )
        launcher = tmp_path / entry.name
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {entry.module} import {entry.attr}\n"
            f"sys.exit({entry.attr}())\n"
        )
        launcher.chmod(0o755)
        out = subprocess.run(
            [str(launcher), "--version"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(repo / "src")),
        )
        assert out.returncode == 0
        assert out.stdout.strip() == f"condrisk {__version__}"

    def test_python_m_condrisk_runs_the_cli_without_numpy(self):
        # a source checkout runs `python -m condrisk` with no install; -X importtime
        # names every module the run imports on stderr
        repo = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "condrisk", "--version"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(repo / "src")),
        )
        assert out.returncode == 0
        assert out.stdout == f"condrisk {__version__}\n"
        imported = {line.rpartition("|")[2].strip() for line in out.stderr.splitlines()}
        assert "condrisk.cli" in imported and "numpy" not in imported


def _python(code, **env):
    """Run code in a fresh interpreter on the source tree, without OPENBLAS_NUM_THREADS unless given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env={**base, **env})
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


class TestLazyPackage:
    def test_import_loads_no_numpy_and_leaves_the_environment(self):
        code = (
            "import os, sys, condrisk\n"
            "print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)\n"
            "missing = [name for name in condrisk.__all__ if not hasattr(condrisk, name)]\n"
            "print(missing or '-', set(condrisk.__all__) <= set(dir(condrisk)))\n"
        )
        assert _python(code) == ["False", "False", "-", "True"]

    @pytest.mark.parametrize("given, want", [(None, "1"), ("3", "3")])
    def test_cli_runs_one_openblas_thread_unless_told(self, given, want):
        # an import hook records the variable at the moment NumPy is first
        # imported, here by a command that needs it
        code = (
            "import contextlib, io, os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy':\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS', '-'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "from condrisk.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    main(['oracle', '--n-e', '9', '--n-ne', '9', '--pi-e', '0.3', '--pi-ne', '0.3',\n"
            "          '--rho-e', '0.1', '--rho-ne', '0.1', '--reps', '1', '--out', '-'])\n"
            "print('numpy' in sys.modules, *seen)\n"
        )
        env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
        assert _python(code, **env) == ["True", want]


class TestImportSet:
    """A command loads only the modules it runs (fresh interpreter)."""

    @pytest.mark.parametrize("command", ["version", "coverage", "analyze", "compare", "oracle"])
    def test_command_loads_only_its_modules(self, command, dataset, grid_file, tmp_path):
        argv, loaded, absent = {  # argv, modules it loads, modules it must not load
            "version": (["--version"], (), ("numpy",)),
            "coverage": (["coverage", "--grid", str(grid_file), "--threads", "1",
                          "--out", str(tmp_path / "cov.csv")],
                         ("condrisk.coverage",),
                         ("condrisk.ingest", "condrisk.mc", "concurrent.futures")),
            "analyze": (["analyze", "--input", str(dataset), "--exposed-value", "150",
                         "--out", str(tmp_path / "report")],
                        ("condrisk.ingest",), ("condrisk.coverage", "condrisk.mc")),
            "compare": (["compare", "--out", str(tmp_path / "cmp.csv")],
                        ("condrisk.compare",), ("numpy",)),
            "oracle": (["oracle", "--n-e", "9", "--n-ne", "9", "--pi-e", "0.3", "--pi-ne", "0.3",
                        "--rho-e", "0.1", "--rho-ne", "0.1", "--reps", "10", "--threads", "1",
                        "--out", str(tmp_path / "oracle.csv")],
                       ("condrisk.mc",),
                       ("condrisk.coverage", "condrisk.ingest", "concurrent.futures")),
        }[command]
        code = (
            "import contextlib, io, sys\n"
            "from condrisk.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            f"        status = main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        status = exc.code\n"
            f"print(status, *(name in sys.modules for name in {loaded + absent!r}))\n"
        )
        assert _python(code) == ["0"] + ["True"] * len(loaded) + ["False"] * len(absent)


class TestAnalyze:
    def run(self, dataset, out_dir, *extra):
        return main([
            "analyze", "--input", str(dataset), "--exposed-value", "150",
            "--out", str(out_dir), *extra,
        ])

    def test_writes_three_files(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert self.run(dataset, out_dir) == EXIT_OK
        for name in ("report.txt", "risks.csv", "measures.csv"):
            assert (out_dir / name).exists()
        stdout = capsys.readouterr().out
        assert "analysis report" in stdout
        assert "wrote" in stdout
        measures = (out_dir / "measures.csv").read_text().splitlines()
        # 3 visits -> default pairs (2,1), (3,2) -> 3 measure rows each
        assert len(measures) == 2 + 6

    def test_pairs_flag(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert self.run(dataset, out_dir, "--pairs", "3:1") == EXIT_OK
        measures = (out_dir / "measures.csv").read_text().splitlines()
        assert len(measures) == 2 + 3
        assert measures[2].startswith("3,1,rr,")

    def test_long_format_matches_wide(self, dataset, tmp_path):
        wide_out = tmp_path / "wide"
        assert self.run(dataset, wide_out) == EXIT_OK
        rows = ["id,exposure,visit,y"]
        for line in DATASET_TEXT.splitlines()[1:]:
            sid, arm, *ys = line.split(",")
            rows.extend(f"{sid},{arm},{v},{y}" for v, y in enumerate(ys, start=1))
        long_path = tmp_path / "long.csv"
        long_path.write_text("\n".join(rows) + "\n")
        long_out = tmp_path / "long"
        assert main([
            "analyze", "--input", str(long_path), "--exposed-value", "150",
            "--long", "--out", str(long_out),
        ]) == EXIT_OK
        for name in ("risks.csv", "measures.csv", "report.txt"):
            assert (long_out / name).read_bytes() == (wide_out / name).read_bytes()

    def test_paper_literal_rho_changes_output(self, tmp_path):
        # counts with differing no-outcome margins (exposed 5, non-exposed
        # 4) and a nonzero phi numerator, so the two denominators disagree
        counts = {
            (True, 1, 1): 3, (True, 1, 0): 1, (False, 1, 1): 2, (False, 1, 0): 2,
            (True, 0, 1): 2, (True, 0, 0): 4, (False, 0, 1): 1, (False, 0, 0): 2,
        }
        rows = ["id,exposure,y1,y2"]
        for (exposed, y1, y2), n in counts.items():
            arm = "150" if exposed else "100"
            rows.extend(f"s{len(rows)}x{i},{arm},{y1},{y2}" for i in range(n))
        path = tmp_path / "skewed.csv"
        path.write_text("\n".join(rows) + "\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert self.run(path, out_a) == EXIT_OK
        assert self.run(path, out_b, "--paper-literal-rho") == EXIT_OK
        assert (out_a / "measures.csv").read_text() != (out_b / "measures.csv").read_text()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = self.run(tmp_path / "nope.csv", tmp_path / "out")
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,exposure,y1,y2\nx,150,1,7\n")
        assert self.run(bad, tmp_path / "out") == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_bad_level_is_domain_error(self, dataset, tmp_path, capsys):
        code = self.run(dataset, tmp_path / "out", "--level", "1.5")
        assert code == EXIT_NUMERIC
        assert "domain error" in capsys.readouterr().err


class TestCoverage:
    def test_grid_file_run(self, grid_file, tmp_path, capsys):
        out = tmp_path / "cov.csv"
        code = main(["coverage", "--grid", str(grid_file), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == f"# condrisk {__version__}"
        assert lines[1] == COVERAGE_CSV_HEADER
        assert len(lines) == 2 + 4
        # the benchmark parses this line, the kernel name included
        assert capsys.readouterr().out == f"wrote 4 rows to {out} [numpy kernel]\n"

    def test_rerun_is_byte_identical(self, grid_file, tmp_path):
        out = tmp_path / "cov.csv"
        args = ["coverage", "--grid", str(grid_file), "--out", str(out)]
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first

    def test_threads_do_not_change_output(self, grid_file, tmp_path):
        out1 = tmp_path / "t1.csv"
        out3 = tmp_path / "t3.csv"
        assert main(["coverage", "--grid", str(grid_file), "--out", str(out1)]) == EXIT_OK
        assert main([
            "coverage", "--grid", str(grid_file), "--threads", "3", "--out", str(out3),
        ]) == EXIT_OK
        assert out1.read_bytes() == out3.read_bytes()

    def test_stratum_and_level_overrides(self, grid_file, tmp_path):
        out = tmp_path / "cov.csv"
        assert main([
            "coverage", "--grid", str(grid_file), "--stratum", "0",
            "--level", "0.9", "--prune", "0", "--out", str(out),
        ]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
        assert {row[6] for row in rows} == {"0"}
        assert {row[7] for row in rows} == {"0.9"}
        assert {row[12] for row in rows} == {"0"}  # truncation_bound: nothing pruned

    def test_stdout_output(self, grid_file, capsys):
        assert main(["coverage", "--grid", str(grid_file), "--out", "-"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith(f"# condrisk {__version__}\n{COVERAGE_CSV_HEADER}\n")

    def test_missing_grid_file_is_data_error(self, tmp_path):
        code = main(["coverage", "--grid", str(tmp_path / "no.txt"), "--out", "-"])
        assert code == EXIT_DATA

    def test_malformed_grid_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "grid.txt"
        path.write_text("n_E = 10\nn_E = 20\n")
        assert main(["coverage", "--grid", str(path), "--out", "-"]) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err

    def test_bad_prune_is_domain_error(self, grid_file, tmp_path):
        code = main([
            "coverage", "--grid", str(grid_file), "--prune", "1e-3",
            "--out", str(tmp_path / "c.csv"),
        ])
        assert code == EXIT_NUMERIC

    def test_unwritable_out_is_data_error(self, grid_file, tmp_path):
        code = main([
            "coverage", "--grid", str(grid_file),
            "--out", str(tmp_path / "missing" / "c.csv"),
        ])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("out_name", ["cov.csv", "-"])
    def test_work_line_goes_to_stderr_only(self, grid_file, tmp_path, capsys, out_name):
        out = out_name if out_name == "-" else str(tmp_path / out_name)
        assert main(["coverage", "--grid", str(grid_file), "--threads", "2", "--out", out]) == EXIT_OK
        captured = capsys.readouterr()
        assert re.fullmatch(r"coverage: [1-9]\d* kernel rows and columns in 4 points, 1 worker\n", captured.err)
        written = captured.out if out == "-" else Path(out).read_text()
        assert "kernel rows" not in captured.out + written

    def test_work_over_the_cap_is_domain_error(self, grid_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(coverage, "_MAX_WORK", 100)
        spy = mock.Mock(side_effect=AssertionError("kernel ran"))
        with mock.patch.object(_backend, "batch_cover_sums", spy):
            code = main(["coverage", "--grid", str(grid_file), "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_NUMERIC and spy.call_count == 0
        err = capsys.readouterr().err
        assert re.fullmatch(r"condrisk: domain error: the grid's kernel work is \d+ window rows and columns, "
                            r"over the cap of 100; a larger --prune \(now 1e-12\) narrows the windows\n", err)
        assert not (tmp_path / "c.csv").exists()

    def test_one_wide_unpruned_window_is_domain_error(self, tmp_path, capsys, monkeypatch):
        # n_nonE = 8 x 10^6 at --prune 0 passes the work cap; the margins' doubles are refused first
        path = tmp_path / "wide.txt"
        path.write_text("n_E = 3\nn_nonE = 8000000\npi_E = 0.3\npi_nonE = 0.3\nrho_E = 0.5\nrho_nonE = 0.5\n")
        monkeypatch.setattr(coverage, "pmf_vector", mock.Mock(side_effect=AssertionError("pmf built")))
        code = main(["coverage", "--grid", str(path), "--prune", "0", "--out", str(tmp_path / "c.csv")])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "condrisk: domain error: the grid's margins need 56000007 doubles (distinct margins: 2, "
            "largest n: 8000000), over the cap of 8388608; a larger --prune (now 0.0) narrows the windows\n")
        assert not (tmp_path / "c.csv").exists()


class TestCompare:
    def test_default_grid(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[1] == COMPARE_CSV_HEADER
        assert len(lines) == 2 + 225
        assert "wrote 225 rows" in capsys.readouterr().out

    def test_custom_axes_independence(self, capsys):
        assert main([
            "compare", "--pi-e", "0.5", "--pi-ne", "0.25",
            "--rho-e", "0", "--rho-ne", "0", "--out", "-",
        ]) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[2].split(",")
        assert [float(v) for v in row[4:]] == [2.0, 2.0, 2.0]

    def test_inadmissible_axis_value_is_flagged(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main([
            "compare", "--pi-e", "0.1", "--pi-ne", "0.5",
            "--rho-e", "-0.5", "--rho-ne", "0.1", "--out", str(out),
        ]) == EXIT_OK
        assert "1 flagged inadmissible" in capsys.readouterr().out
        assert "nan" in out.read_text().splitlines()[2]

    def test_non_numeric_axis_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--pi-e", "half", "--out", "-"])
        assert exc.value.code == EXIT_USAGE


class TestOracle:
    BASE = [
        "oracle", "--n-e", "30", "--n-ne", "30", "--pi-e", "0.5", "--pi-ne", "0.5",
        "--rho-e", "0.1", "--rho-ne", "0.1", "--reps", "200", "--seed", "7",
    ]

    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "oracle.csv"
        assert main(self.BASE + ["--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[2].split(",")[8] == "fixed_margin"
        assert "estimate" in capsys.readouterr().out

    @pytest.mark.parametrize("margin_model", ["fixed_margin", "cohort"])
    def test_rerun_and_threads_byte_identical(self, tmp_path, monkeypatch, margin_model):
        monkeypatch.setattr(mc, "_BLOCK_REPS", 16)  # 13 blocks of 200 replications
        monkeypatch.setattr(mc, "_DRAWS_PER_WORKER", 1)  # so --threads 2 and 3 start pools
        args = self.BASE + ["--margin-model", margin_model]
        outs = [tmp_path / f"o{i}.csv" for i in range(4)]
        for out, threads in zip(outs, ("1", "1", "2", "3")):
            assert main(args + ["--threads", threads, "--out", str(out)]) == EXIT_OK
        assert len({out.read_bytes() for out in outs}) == 1

    def test_single_rep_estimate_is_binary(self, capsys):
        args = [a if a != "200" else "1" for a in self.BASE]
        assert main(args + ["--out", "-"]) == EXIT_OK
        estimate = float(capsys.readouterr().out.splitlines()[2].split(",")[11])
        assert estimate in (0.0, 1.0)

    def test_cohort_margin_model(self, capsys):
        assert main(self.BASE + ["--margin-model", "cohort", "--out", "-"]) == EXIT_OK
        assert ",cohort," in capsys.readouterr().out.splitlines()[2]

    def test_bad_margin_model_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(self.BASE + ["--margin-model", "bootstrap", "--out", "-"])
        assert exc.value.code == EXIT_USAGE

    def test_inadmissible_rho_is_domain_error(self, capsys):
        args = list(self.BASE)
        args[args.index("--rho-e") + 1] = "1.5"
        assert main(args + ["--out", "-"]) == EXIT_NUMERIC
        assert "domain error" in capsys.readouterr().err

    def test_negative_seed_is_domain_error(self):
        args = list(self.BASE)
        args[args.index("--seed") + 1] = "-1"
        assert main(args + ["--out", "-"]) == EXIT_NUMERIC

    def test_cohort_at_a_hundred_million_per_group_runs_in_small_memory(self, capsys):
        args = list(self.BASE)
        for flag, value in (("--n-e", "100000000"), ("--n-ne", "100000000"), ("--reps", "20")):
            args[args.index(flag) + 1] = value
        tracemalloc.start()
        try:
            code = main(args + ["--margin-model", "cohort", "--out", "-"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK and peak < 1 << 20
        assert capsys.readouterr().out.splitlines()[2].startswith("100000000,100000000,")

    @pytest.mark.parametrize("margin_model, draws", [("fixed_margin", 400), ("cohort", 800)])
    def test_work_line_goes_to_stderr_only(self, tmp_path, capsys, margin_model, draws):
        out = tmp_path / "oracle.csv"
        assert main(self.BASE + ["--margin-model", margin_model, "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == f"oracle: 200 replications, {draws} binomial draws, 1 worker\n"
        assert "draws" not in captured.out + out.read_text()
