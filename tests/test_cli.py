"""Runner behaviour: configs, exit codes, reports, CSVs, determinism."""

import csv
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction

import pytest

from formlab import cli
from formlab.cli import (ConfigError, RunConfig, build_parser, build_config,
                         emit_tables, main, run_suites)
from formlab.harmonic import BasisCache


def small_config(**kw):
    defaults = dict(suites=["identities"], dims=[2], l_max=1, seed=3, jobs=1)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestConfig:
    def test_validation_rejects_bad_dim(self):
        with pytest.raises(ConfigError):
            small_config(dims=[1]).validate()

    def test_validation_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            small_config(mode="fuzzy").validate()

    def test_spectra_needs_valid_degree(self):
        cfg = small_config(suites=["spectra"], dims=[3], degrees=[3])
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_identities_allows_top_degree(self):
        cfg = small_config(degrees=[2])
        cfg.validate()
        assert cfg.degrees_for(2, "identities") == [2]

    def test_config_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dims = 2,3\nseed = 11\nlmax = 1\n# comment\n")
        parser = build_parser()
        args = parser.parse_args(["verify", "--config", str(path), "--seed", "5"])
        cfg = build_config(args)
        assert cfg.dims == [2, 3]
        assert cfg.seed == 5  # flag wins over file
        assert cfg.l_max == 1

    def test_bad_config_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dims 2,3\n")
        parser = build_parser()
        args = parser.parse_args(["verify", "--config", str(path)])
        with pytest.raises(ConfigError):
            build_config(args)


class TestRunSuites:
    def test_identity_suite_passes(self):
        report = run_suites(small_config())
        assert report["summary"]["failed"] == 0
        assert report["summary"]["total"] > 0

    def test_float_mode(self):
        report = run_suites(small_config(mode="float"))
        assert report["summary"]["failed"] == 0

    def test_float_mode_at_large_radii(self):
        # an absolute tolerance failed 15 of these 43 checks on rounding alone
        report = run_suites(small_config(dims=[3], radii=[Fraction(4), Fraction(8)],
                                         mode="float", seed=7))
        assert report["summary"] == {"total": 43, "passed": 43, "failed": 0}

    def test_determinism_across_jobs(self):
        r1 = run_suites(small_config(jobs=1))
        r2 = run_suites(small_config(jobs=3))
        r1.pop("timing"), r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_crash_traceback_kept_under_timing(self, monkeypatch, tmp_path):
        pids = tmp_path / "pids"

        def boom(*args):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            raise RuntimeError("forced crash")
        assert run_suites(small_config())["timing"]["tracebacks"] == {}
        monkeypatch.setattr("formlab.identities.verify_stokes", boom)
        key = "stokes/m2/p1/R1"
        bodies = []
        for jobs in (1, 2):
            pids.unlink(missing_ok=True)
            report = run_suites(small_config(jobs=jobs))
            # at --jobs 2 the crashing case runs in a forked worker
            (pid,) = map(int, pids.read_text().split())
            assert (pid == os.getpid()) == (jobs == 1)
            rec = next(r for r in report["suites"]["identities"]["checks"]
                       if r["id"] == key)
            assert rec == {"id": key, "pass": False,
                           "error": "RuntimeError: forced crash"}
            tb = report["timing"].pop("tracebacks")
            assert list(tb) == [key]
            assert tb[key].startswith("Traceback") and "in boom" in tb[key]
            report.pop("timing")
            bodies.append(json.dumps(report, sort_keys=True))
        assert bodies[0] == bodies[1] and "Traceback" not in bodies[0]

    def test_timing_has_every_case(self):
        cfg = small_config(suites=["identities", "spectra", "bounds"], jobs=2)
        report = run_suites(cfg)
        timing = report["timing"]
        ids = [r["id"] for suite in report["suites"].values() for r in suite["checks"]]
        assert sorted(timing["cases"]) == sorted(ids)
        for suite, data in report["suites"].items():
            want = sum(timing["cases"][r["id"]] for r in data["checks"])
            assert float(timing[suite]) == pytest.approx(want)
        assert timing["jobs"] == 2 and timing["tracebacks"] == {}

    def test_seed_changes_report(self):
        r1 = run_suites(small_config(seed=3))
        r2 = run_suites(small_config(seed=4))
        r1.pop("timing"), r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) != json.dumps(r2, sort_keys=True)

    def test_operators_assembled_once_per_run(self, monkeypatch):
        calls = []
        real = cli.assemble_operator

        def counting(op, m, p, l_max, R, cache):
            calls.append((op, m, p, l_max, Fraction(R)))
            return real(op, m, p, l_max, R, cache)
        monkeypatch.setattr(cli, "assemble_operator", counting)
        cfg = small_config(suites=["spectra", "bounds"], dims=[3], degrees=[1],
                           radii=[Fraction(1), Fraction(1, 2)])
        report = run_suites(cfg)
        assert report["summary"]["failed"] == 0
        assert sorted(calls) == sorted(set(calls))
        assert len(calls) == 6
        ids = [r["id"] for suite in report["suites"].values() for r in suite["checks"]]
        assert len(ids) == len(set(ids))
        spectra = [r for r in report["suites"]["spectra"]["checks"]
                   if r["id"].startswith("spectrum/")]
        assert all(r["certified"] for r in spectra)

    def test_bounds_suite(self, tmp_path):
        cfg = RunConfig(suites=["bounds"], dims=[3], degrees=[1], l_max=1,
                        seed=3, cache_dir=str(tmp_path / "cache"))
        report = run_suites(cfg)
        assert report["summary"]["failed"] == 0
        assert (tmp_path / "cache").exists()


class TestWorkers:
    def test_partition(self):
        cfg = small_config(suites=["identities", "spectra", "bounds"], dims=[3])
        cfg.validate()
        cache = BasisCache()
        assemble = cli._assembler(cache)
        cases = (cli._identity_cases(cfg) + cli._spectra_cases(cfg, assemble)
                 + cli._bounds_cases(cfg, cache, assemble))
        groups = [c[2] for c in cases]
        assert {(3, 1), (3, 2), None} == set(groups)
        for jobs in (1, 2, 3, 7, 10 ** 6):
            shares = cli._partition(groups, jobs)
            assert shares == cli._partition(groups, jobs)
            assert sorted(i for share in shares for i in share) == list(range(len(cases)))
            assert all(share == sorted(share) for share in shares)
            # 2 (m, p) groups and one group per identity case
            assert len(shares) == min(jobs, groups.count(None) + 2)
            assert shares[0]
            for mp in ((3, 1), (3, 2)):
                owners = {w for w, share in enumerate(shares)
                          for i in share if groups[i] == mp}
                assert len(owners) == 1
        # round-robin over groups in order of their first case
        assert cli._partition(["a", None, "a", "b", None], 2) == [[0, 2, 3], [1, 4]]
        assert cli._partition([], 4) == [[]]

    def test_shared_cache_across_workers(self, tmp_path):
        # three forked workers build and write overlapping bases into
        # one directory
        reports, files = [], []
        for jobs in (1, 3):
            cache = tmp_path / f"cache-{jobs}"
            cfg = small_config(suites=["spectra", "bounds"], dims=[2, 3],
                               cache_dir=str(cache), jobs=jobs)
            report = run_suites(cfg)
            assert report["summary"]["failed"] == 0
            report.pop("timing")
            reports.append(json.dumps(report, sort_keys=True))
            files.append({f.name: f.read_bytes() for f in cache.iterdir()})
        assert reports[0] == reports[1]
        assert files[0] == files[1] and all(n.endswith(".json") for n in files[1])

    def test_dying_worker_fails_its_share(self, monkeypatch, tmp_path):
        # every identity case is a group of its own, so worker 1 of 2 runs
        # the odd-numbered cases, stokes/m2/p1/R1 (case 3) among them
        monkeypatch.setattr("formlab.identities.verify_stokes",
                            lambda *args: os._exit(3))

        def hung(*args):
            raise TimeoutError("run did not end after its worker died")
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            code = main(["verify", "--dim", "2", "--lmax", "1", "--jobs", "2",
                         "--out", str(tmp_path)])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        (run_dir,) = os.listdir(tmp_path)
        report = json.loads((tmp_path / run_dir / "report.json").read_text())
        checks = report["suites"]["identities"]["checks"]
        failed = [r for r in checks if not r["pass"]]
        assert [r["id"] for r in checks[1::2]] == [r["id"] for r in failed]
        assert all(r["error"] == "WorkerExit: worker 1 exited with code 3 "
                                 "before reporting its cases" for r in failed)
        assert report["summary"]["passed"] == len(checks) - len(failed) > 0

    def test_exit_two_without_fork(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delattr(os, "fork")
        code = main(["verify", "--dim", "2", "--jobs", "2", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not os.listdir(tmp_path)


class TestQuadratureOracle:
    @staticmethod
    def run_oracle(m, seed):
        cfg = small_config(dims=[m], seed=seed)
        runs = {key: run for key, run, _ in cli._identity_cases(cfg)}
        return runs[f"quadrature-oracle/m{m}"]()

    def test_catches_wrong_exact_value(self, monkeypatch):
        true_value = cli.integrate_ball
        monkeypatch.setattr(cli, "integrate_ball",
                            lambda dens, R: 1.5 * float(true_value(dens, R)))
        assert not self.run_oracle(3, 7)["pass"]

    def test_no_chance_failure_at_seed_83(self):
        # one draw lies just above 3 standard errors at this seed
        rec = self.run_oracle(3, 83)
        assert rec["pass"] and rec["worst_sigma"] > 3


class TestTables:
    def test_csv_emission(self, tmp_path):
        cfg = RunConfig(suites=["identities", "spectra"], dims=[3],
                        degrees=[1], l_max=1, seed=3)
        report = run_suites(cfg)
        written = emit_tables(report, str(tmp_path))
        names = {p.split("/")[-1] for p in written}
        assert names == {"identities.csv", "spectra.csv"}
        with open(tmp_path / "spectra.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["operator", "m", "p", "R", "block", "l", "eigenvalue",
                           "multiplicity", "reference", "difference"]
        data = rows[1:]
        assert data
        # reference column matches the eigenvalue column on the ball
        for row in data:
            assert abs(float(row[9])) < 1e-8


class TestMainEntry:
    def test_exit_zero_on_pass(self, tmp_path):
        code = main(["verify", "--dim", "2", "--seed", "3", "--lmax", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        runs = list(tmp_path.iterdir())
        assert len(runs) == 1
        report = json.loads((runs[0] / "report.json").read_text())
        assert report["schema_version"] == 2
        assert (runs[0] / "identities.csv").exists()

    def test_exit_two_on_bad_degree(self, tmp_path, capsys):
        code = main(["bounds", "--dim", "3", "--degree", "3",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "degree" in capsys.readouterr().err

    def test_exit_two_on_float_mode_outside_identities(self, tmp_path, capsys):
        code = main(["all", "--dim", "2", "--lmax", "1", "--mode", "float",
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "mode 'float'" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("radius", ["1/0", "1,2/0"])
    def test_exit_two_on_zero_denominator_flag(self, tmp_path, capsys, radius):
        code = main(["verify", "--dim", "2", "--radius", radius, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "/0" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_exit_two_on_zero_denominator_in_config(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("dims = 2\nradii = 1, 1/0\n")
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'1/0'" in err
        assert not out.exists()

    def test_exit_two_on_unknown_config_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 3\ndim = 4\n")
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:2: unknown key 'dim'" in err and "Traceback" not in err
        assert "accepted keys: " + ", ".join(cli.CONFIG_KEYS) in err
        assert "dims" in cli.CONFIG_KEYS
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["verify", "spectrum", "bounds", "curvature"])
    def test_exit_two_on_suites_key_outside_all(self, tmp_path, capsys, suite):
        path = tmp_path / "run.cfg"
        path.write_text("dims = 2\nsuites = spectra\n")
        out = tmp_path / "out"
        code = main([suite, "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: key 'suites'" in err and repr(suite) in err
        assert "Traceback" not in err and not out.exists()

    def test_suites_key_selects_suites_of_all(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("suites = bounds, spectra\n")
        args = build_parser().parse_args(["all", "--config", str(path)])
        assert build_config(args).suites == ["bounds", "spectra"]
        args = build_parser().parse_args(["all"])
        assert build_config(args).suites == list(cli.SUITES)

    @pytest.mark.parametrize("seed", ["-1", str(10 ** 41)])
    def test_exit_two_on_seed_out_of_range(self, tmp_path, capsys, seed):
        code = main(["verify", "--dim", "2", "--degree", "1", "--seed", seed,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "seed must be in 0.." in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_largest_seed_keys_the_oracle(self):
        cfg = small_config(seed=cli.MAX_SEED)
        cfg.validate()
        report = run_suites(cfg)
        oracle = [r for r in report["suites"]["identities"]["checks"]
                  if r["id"].startswith("quadrature-oracle")]
        assert oracle and all("error" not in r for r in oracle)
        with pytest.raises(ConfigError):
            small_config(seed=cli.MAX_SEED + 1).validate()

    @pytest.mark.parametrize("dims,degree,named", [("3", "5", "dimension 3"),
                                                    ("2,4", "3", "dimension 2")])
    def test_exit_two_on_dimension_without_identity_degree(self, tmp_path, capsys,
                                                          dims, degree, named):
        code = main(["verify", "--dim", dims, "--degree", degree, "--out", str(tmp_path)])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_exit_two_on_unknown_flag(self):
        assert main(["verify", "--bogus"]) == 2

    def test_append_only_run_dirs(self, tmp_path):
        main(["verify", "--dim", "2", "--seed", "3", "--lmax", "1",
              "--out", str(tmp_path)])
        main(["verify", "--dim", "2", "--seed", "3", "--lmax", "1",
              "--out", str(tmp_path)])
        assert len(list(tmp_path.iterdir())) == 2

    def test_console_script(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "formlab.cli", "verify", "--dim", "2",
             "--seed", "3", "--lmax", "1", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout

    @pytest.mark.parametrize("argv", [["curvature", "--dim", "5"],
                                      ["all", "--dim", "3,5"]])
    def test_exit_two_on_curvature_dimension_above_four(self, tmp_path, capsys, argv):
        code = main(argv + ["--lmax", "1", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "curvature suite covers dimensions 2..4; got dimensions [5]" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_curvature_dimension_checked_for_config_suites(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("suites = spectra, curvature\ndims = 4,6\n")
        cfg = build_config(build_parser().parse_args(["all", "--config", str(path)]))
        with pytest.raises(ConfigError, match=r"2\.\.4; got dimensions \[6\]"):
            cfg.validate()
        path.write_text("suites = spectra\ndims = 6\n")
        build_config(build_parser().parse_args(["all", "--config", str(path)])).validate()

    @pytest.fixture
    def no_cases(self, monkeypatch):
        def run_suites(*args):
            raise AssertionError("cases ran despite a configuration error")
        monkeypatch.setattr(cli, "run_suites", run_suites)

    def test_exit_two_on_unusable_out(self, tmp_path, capsys, no_cases):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["spectrum", "--dim", "2", "--lmax", "1",
                     "--out", str(blocker / "runs")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: unusable output directory")
        assert "Traceback" not in err

    @pytest.mark.parametrize("under", ["file", "file/cache"])
    def test_exit_two_on_unusable_cache(self, tmp_path, capsys, no_cases, under):
        (tmp_path / "file").write_text("")
        out = tmp_path / "out"
        code = main(["spectrum", "--dim", "2", "--lmax", "1", "--out", str(out),
                     "--cache", str(tmp_path / under)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unusable cache directory '{tmp_path / 'file'}" in err
        assert "not a directory" in err.lower() and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,named", [
        (["spectrum", "--dim", "3,3"], "dimension 3"),
        (["verify", "--radius", "1,1"], "radius 1"),
        (["verify", "--radius", "1,2/2"], "radius 1"),
        (["bounds", "--dim", "3", "--degree", "1,2,1"], "degree 1"),
    ])
    def test_exit_two_on_duplicate_values(self, tmp_path, capsys, argv, named):
        code = main(argv + ["--lmax", "1", "--out", str(tmp_path)])
        assert code == 2
        assert f"{named} is given more than once" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
class TestBlasThreads:
    """``main`` pins OpenBLAS to one thread unless the variable is set."""

    CHILD = ("import os, sys\n"
             "from formlab.cli import main\n"
             "code = main(['verify', '--dim', '2', '--lmax', '1', '--out', sys.argv[1]])\n"
             "assert code == 0 and 'numpy' in sys.modules\n"
             "print(len(os.listdir('/proc/self/task')),\n"
             "      os.environ.get('OPENBLAS_NUM_THREADS'))\n")

    def run_child(self, tmp_path, **env):
        child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", self.CHILD, str(tmp_path)],
                              capture_output=True, text=True, env=child_env | env)
        assert proc.returncode == 0, proc.stderr
        threads, value = proc.stdout.split()[-2:]
        return int(threads), value

    def test_unset_variable_runs_one_thread(self, tmp_path):
        assert self.run_child(tmp_path) == (1, "1")

    def test_user_value_wins(self, tmp_path):
        assert self.run_child(tmp_path, OPENBLAS_NUM_THREADS="2")[1] == "2"
