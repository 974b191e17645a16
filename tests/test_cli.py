"""Runner behaviour: configs, exit codes, reports, CSVs, determinism."""

import csv
import hashlib
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from formlab import cli, harmonic, identities, quadrature
from formlab.ball import BallDomain
from formlab.cli import (ConfigError, RunConfig, build_parser, build_config,
                         emit_tables, main, run_suites)

from forms import diag


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

    def test_help_states_each_default_of_its_field(self):
        defaults = RunConfig(suites=[])
        [subcommands] = [a for a in build_parser()._actions if a.dest == "suite"]
        for name, sub in subcommands.choices.items():
            stated = {}
            for action in sub._actions:
                found = re.search(r"\(default (\S+)\)", action.help or "")
                if found:
                    stated[action.dest] = found.group(1)
            assert sorted(stated) == ["dim", "jobs", "lmax"], name
            for dest, _, field, parse, _ in cli.OPTIONS:
                if dest in stated:
                    assert parse(stated[dest]) == getattr(defaults, field), (name, dest)

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

    @pytest.mark.parametrize("m", [5, 6])
    def test_identity_suite_exact_past_m4(self, m):
        report = run_suites(small_config(dims=[m], degrees=[2], radii=[Fraction(1, 2)],
                                         seed=7))
        checks = report["suites"]["identities"]["checks"]
        assert report["summary"] == {"total": 12, "passed": 12, "failed": 0}
        # every record but the pointwise lemmas, the Hessian estimate and
        # the oracle carries its exact residual
        assert [c["residual"] for c in checks if "residual" in c] == ["0"] * 9

    def test_float_mode(self):
        report = run_suites(small_config(mode="float"))
        assert report["summary"]["failed"] == 0

    def test_float_mode_at_large_radii(self):
        # an absolute tolerance failed 15 of these 43 checks on rounding alone
        report = run_suites(small_config(dims=[3], radii=[Fraction(4), Fraction(8)],
                                         mode="float", seed=7))
        assert report["summary"] == {"total": 43, "passed": 43, "failed": 0}

    def test_determinism_across_jobs(self):
        every_suite = dict(suites=list(cli.SUITES), radii=[Fraction(1), Fraction(1, 2)])
        for kw in ({}, every_suite):
            r1 = run_suites(small_config(jobs=1, **kw))
            r2 = run_suites(small_config(jobs=3, **kw))
            r1.pop("timing"), r2.pop("timing")
            assert r1["summary"]["failed"] == 0
            assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_report_digest(self):
        # pins every case id, rng context and record field of three
        # suites; the oracle's records carry floats and are left out, and
        # the schema version is pinned on its own, so that a schema change
        # confined to another suite leaves the digest alone
        report = run_suites(RunConfig(suites=["identities", "spectra", "bounds"],
                                      dims=[2, 3], radii=[Fraction(1), Fraction(1, 2)],
                                      l_max=1, seed=7))
        assert report["schema_version"] == 3
        suites = report["suites"]
        for suite in suites.values():
            suite["checks"] = [r for r in suite["checks"]
                               if not r["id"].startswith("quadrature-oracle/")]
        digest = hashlib.sha256(json.dumps(suites, sort_keys=True).encode()).hexdigest()
        assert digest == "038318b871ba9efb291df1516f1ff3dc4f83f833a6b2cac9b0cdc1f29a4a89d9"

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
        for jobs in (1, 3):
            pids.unlink(missing_ok=True)
            report = run_suites(small_config(jobs=jobs))
            # at --jobs 3 the crashing case runs in forked worker 1
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

    def test_timing_per_worker(self):
        for jobs in (1, 3):
            timing = run_suites(small_config(jobs=jobs))["timing"]
            assert len(timing["workers"]) == jobs
            assert all(seconds > 0 for seconds in timing["workers"])
            assert sum(timing["workers"]) == pytest.approx(sum(timing["cases"].values()))

    def test_seed_changes_report(self):
        r1 = run_suites(small_config(seed=3))
        r2 = run_suites(small_config(seed=4))
        r1.pop("timing"), r2.pop("timing")
        assert json.dumps(r1, sort_keys=True) != json.dumps(r2, sort_keys=True)

    def test_repeat_assemblies_redo_no_certificate_work(self, monkeypatch):
        # the spectra and bounds suites assemble each (op, m, p, R) more
        # than once, at two radii; the trial blocks of the cache carry
        # each block's independence decision and eigenform checks, so the
        # repeats add no decision and no operator image: 2 distinct bases
        # (exact and coexact l=1), each decided once for both radii, and
        # 12 images per radius (hodge-boundary checks both blocks of
        # dimension 3, dtn-neumann the exact one, dtn the coexact one it
        # shares)
        from formlab import spectral
        counts = {"decided": [], "image": 0}
        real_decide, real_image = spectral.is_reduced_basis, spectral._operator_image

        def decide(m, l, p, forms):
            counts["decided"].append((m, l, p, tuple(map(id, forms))))
            return real_decide(m, l, p, forms)

        def image(*args):
            counts["image"] += 1
            return real_image(*args)
        monkeypatch.setattr(spectral, "is_reduced_basis", decide)
        monkeypatch.setattr(spectral, "_operator_image", image)
        cfg = small_config(suites=["spectra", "bounds"], dims=[3], degrees=[1],
                           radii=[Fraction(1), Fraction(1, 2)])
        report = run_suites(cfg)
        assert report["summary"]["failed"] == 0
        assert len(counts["decided"]) == len(set(counts["decided"])) == 2
        assert counts["image"] == 24
        ids = [r["id"] for suite in report["suites"].values() for r in suite["checks"]]
        assert len(ids) == len(set(ids))
        spectra = [r for r in report["suites"]["spectra"]["checks"]
                   if r["id"].startswith("spectrum/")]
        assert all(r["certified"] for r in spectra)

    @pytest.mark.parametrize("m, l_max, decisions, images", [(4, 1, 6, 50), (3, 2, 7, 50)])
    def test_one_independence_decision_and_one_dtn_check_per_block(self, monkeypatch, m,
                                                                   l_max, decisions, images):
        # the three operators at one (m, p, R) share its trial blocks: one
        # independence decision per distinct block, and one eigenform
        # check of each coexact form for both Dirichlet-to-Neumann maps
        # (15 decisions and 61 images at m=4, lmax 1, and 17 and 59 at
        # m=3, lmax 2, when each operator built its own blocks)
        from formlab import spectral
        counts = {"decided": [], "image": 0}
        real_decide, real_image = spectral.is_reduced_basis, spectral._operator_image

        def decide(m, l, p, forms):
            counts["decided"].append((m, l, p, tuple(map(id, forms))))
            return real_decide(m, l, p, forms)

        def image(*args):
            counts["image"] += 1
            return real_image(*args)
        monkeypatch.setattr(spectral, "is_reduced_basis", decide)
        monkeypatch.setattr(spectral, "_operator_image", image)
        report = run_suites(small_config(suites=["spectra", "bounds"], dims=[m], l_max=l_max))
        assert report["summary"]["failed"] == 0
        assert len(counts["decided"]) == len(set(counts["decided"])) == decisions
        assert counts["image"] == images

    def test_bounds_suite(self, tmp_path):
        cfg = RunConfig(suites=["bounds"], dims=[3], degrees=[1], l_max=1,
                        seed=3, cache_dir=str(tmp_path / "cache"))
        report = run_suites(cfg)
        assert report["summary"]["failed"] == 0
        assert (tmp_path / "cache").exists()


class TestWorkers:
    def test_partition(self):
        cfg = small_config(suites=["identities", "spectra", "bounds"], dims=[2, 3])
        cfg.validate()
        cases = [c for suite in ("identities", "spectra", "bounds")
                 for c in cli.CASES[suite](cfg)]
        groups = [c.group for c in cases]
        costs = [c.cost for c in cases]
        labels = [(2, 1), (3, 1), (3, 2), cli.ORACLE_GROUP]
        assert set(labels) | {None} == set(groups)
        assert [c.key for c in cases if c.group == cli.ORACLE_GROUP] == [
            "quadrature-oracle/m2", "quadrature-oracle/m3"]
        for jobs in (1, 2, 3, 7, 10 ** 6):
            shares = cli._partition(groups, costs, jobs)
            assert shares == cli._partition(groups, costs, jobs)
            assert sorted(i for share in shares for i in share) == list(range(len(cases)))
            assert all(share == sorted(share) for share in shares)
            # 3 (m, p) groups, the oracle's and one group per other case
            assert len(shares) == min(jobs, groups.count(None) + len(labels))
            assert shares[0]
            for label in labels:
                owners = {w for w, share in enumerate(shares)
                          for i in share if groups[i] == label}
                assert len(owners) == 1
            # the oracle's group, the heaviest, runs in a forked worker
            if jobs > 1:
                assert not any(groups[i] == cli.ORACLE_GROUP for i in shares[0])
        # longest first: the heavy case sits alone, the light groups share
        # the other worker; a tie goes to the highest-numbered worker
        assert cli._partition(["a", None, "a", "b", None], [1, 5, 1, 1, 1], 2) == [
            [0, 2, 3, 4], [1]]
        assert cli._partition(["a", "b"], [1, 1], 2) == [[1], [0]]
        # the oracle's group is charged numpy's import once
        assert cli._partition([cli.ORACLE_GROUP, None, cli.ORACLE_GROUP, None],
                              [1, 100, 1, 1], 2) == [[1, 3], [0, 2]]
        assert cli._partition([], [], 4) == [[]]

    def test_records_are_immutable(self):
        for record, name in ((BallDomain(3, 1), "radius"),
                             (cli.Case("k", cli._stokes, {}), "group")):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_cases_pickle(self):
        cfg = build_config(build_parser().parse_args(
            ["all", "--dim", "2,3", "--radius", "1,1/2"]))
        cases = [c for suite in cli.SUITES for c in cli.CASES[suite](cfg)]
        assert len(cases) == 119
        assert pickle.loads(pickle.dumps(cases)) == cases
        assert all(getattr(cli, c.run.__name__) is c.run for c in cases)

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
        # a forked worker that calls verify_stokes dies; at --jobs 3 only
        # worker 1 runs stokes/m2/p1/R1 (worker 2 runs the oracle)
        parent = os.getpid()
        real = identities.verify_stokes

        def die_in_child(*args):
            if os.getpid() != parent:
                os._exit(3)
            return real(*args)
        monkeypatch.setattr("formlab.identities.verify_stokes", die_in_child)
        cfg = small_config()
        cases = list(cli.CASES["identities"](cfg))
        shares = cli._partition([c.group for c in cases], [c.cost for c in cases], 3)
        share = [cases[i].key for i in shares[1]]
        assert "stokes/m2/p1/R1" in share

        def hung(*args):
            raise TimeoutError("run did not end after its worker died")
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        try:
            code = main(["verify", "--dim", "2", "--lmax", "1", "--jobs", "3",
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
        assert [r["id"] for r in failed] == share
        assert all(r["error"] == "WorkerExit: worker 1 exited with code 3 "
                                 "before reporting its cases" for r in failed)
        assert report["summary"]["passed"] == len(checks) - len(failed) > 0

    def test_exit_two_without_fork(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delattr(os, "fork")
        code = main(["verify", "--dim", "2", "--jobs", "2", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not os.listdir(tmp_path)


class TestCaseDecisions:
    """Each identity case's ``pass`` fails on an input where one of its
    checks must fail, in float mode too where the case takes the run's
    tolerance."""

    @staticmethod
    def run_case(case, mode="exact", **kw):
        ctx = cli._Context(small_config(dims=[3], mode=mode))
        return case(ctx, BallDomain(3, 1), **kw)

    def test_pointwise_lemmas_fail_with_a_wrong_product_rule(self, monkeypatch):
        assert self.run_case(cli._pointwise_lemmas)["pass"]
        real = identities.gradient_action
        monkeypatch.setattr(identities, "gradient_action", lambda F, w: real(F, w) * 2)
        record = self.run_case(cli._pointwise_lemmas)
        assert not record["pass"]
        assert sorted(k for k, ok in record["checks"].items() if not ok) == \
            ["product-rule-p1", "product-rule-p2", "product-rule-p3"]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_function_match_fails_with_a_wrong_hessian_term(self, monkeypatch, mode):
        # the case's canonical weight vanishes on the sphere, so a wrong
        # f-weighted boundary term would go unseen; the Hessian term is
        # -c int |grad u|^2
        assert self.run_case(cli._function_match, mode)["pass"]
        real = identities._hessian_int
        monkeypatch.setattr(identities, "_hessian_int", lambda *args: real(*args) * 2)
        record = self.run_case(cli._function_match, mode)
        assert not record["pass"]
        assert Fraction(record["residual"]) != 0

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_function_match_fails_with_a_wrong_boundary_laplacian(self, monkeypatch, mode):
        # the boundary Laplacian enters only f-weighted boundary terms,
        # which the canonical weight hides and the polynomial weight shows
        from formlab import ball
        assert self.run_case(cli._function_match, mode)["pass"]
        real = ball.boundary_delta_rep
        monkeypatch.setattr(identities, "boundary_delta_rep",
                            lambda omega, domain: real(omega, domain) * 2)
        record = self.run_case(cli._function_match, mode)
        assert not record["pass"]
        assert Fraction(record["residual"]) != 0

    def test_hessian_estimate_fails_on_inadmissible_hessians(self, monkeypatch):
        from formlab import sampling
        assert self.run_case(cli._hessian_estimate)["pass"]
        # Hess = 0 breaks -Hess >= (c - eps) Id, as eps < c in every trial
        monkeypatch.setattr(sampling, "random_admissible_hessian",
                            lambda rng, m, c, eps: diag([0] * m))
        record = self.run_case(cli._hessian_estimate)
        assert not record["pass"]
        assert record["failures"] == record["params"]["trials"]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_unweighted_match_fails_term_by_term(self, monkeypatch, mode):
        # at weight 2 both identities still hold, and only the term-by-term
        # match of the weighted formula against the unweighted one fails
        from formlab.ball import WeightFunction
        assert self.run_case(cli._unweighted_match, mode, degrees=[1, 2])["pass"]
        monkeypatch.setattr(WeightFunction, "polynomial", classmethod(
            lambda cls, f: cls("polynomial", f * 2)))
        record = self.run_case(cli._unweighted_match, mode, degrees=[1, 2])
        assert not record["pass"]
        if mode == "exact":
            assert record["residual"] == "0"


class TestQuadratureOracle:
    @staticmethod
    def run_oracle(m, seed):
        cfg = small_config(dims=[m], seed=seed)
        return cli._quadrature_oracle(cli._Context(cfg), m)

    def test_catches_wrong_exact_value(self, monkeypatch):
        true_value = quadrature.integrate_ball
        monkeypatch.setattr(quadrature, "integrate_ball",
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
        assert report["schema_version"] == 3
        assert (runs[0] / "identities.csv").exists()

    def test_cold_spectrum_writes_the_bases_it_builds(self, tmp_path, monkeypatch):
        # the exact blocks are closed fields of degree 0; the coexact
        # blocks of degree 1 are i_x of the closed fields at p + 1, which
        # the run builds and stores on the way; no "H" basis is built
        argv = ["spectrum", "--dim", "4", "--lmax", "1", "--cache", str(tmp_path / "cache")]
        assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
        assert sorted(f.name for f in (tmp_path / "cache").iterdir()) == sorted(
            [f"basis_m4_l0_p{p}_H-closed.json" for p in range(1, 5)]
            + [f"basis_m4_l1_p{p}_H-normal-null.json" for p in range(1, 4)])

        def no_compute(*args):
            raise AssertionError("basis computed despite a warm cache")
        monkeypatch.setattr(harmonic.BasisCache, "_compute", no_compute)
        assert main(argv + ["--out", str(tmp_path / "warm")]) == 0

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

    def test_curvature_suite_runs_above_dimension_four(self, tmp_path, capsys):
        code = main(["curvature", "--dim", "5,6", "--out", str(tmp_path)])
        assert code == 0
        assert "4/4 checks passed" in capsys.readouterr().out
        [run] = tmp_path.iterdir()
        checks = json.loads((run / "report.json").read_text())["suites"]["curvature"]["checks"]
        assert [c["id"] for c in checks] == ["curvature/flat/m5", "curvature/round/m5",
                                             "curvature/flat/m6", "curvature/round/m6"]
        for c in checks:
            assert c["pass"] and c["bochner_residual"] == "0"
            assert c.get("weitzenbock_deviation", "0") == "0"
            assert c.get("gallot_meyer", True) is True

    @pytest.fixture
    def no_cases(self, monkeypatch):
        def run_suites(*args):
            raise AssertionError("cases ran despite a configuration error")
        monkeypatch.setattr(cli, "run_suites", run_suites)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("flag,key,value,message", [
        pytest.param("--dim", "dims", "3,x", "'x' is not an integer", id="dim"),
        pytest.param("--degree", "degrees", "1 2.5", "'2.5' is not an integer", id="degree"),
        pytest.param("--radius", "radii", "1,x", "'x' is not a rational number", id="radius"),
        pytest.param("--radius", "radii", "1/0", "zero denominator in '1/0'",
                     id="radius-zero"),
    ])
    def test_exit_two_on_bad_list_value(self, tmp_path, capsys, no_cases, source,
                                        flag, key, value, message):
        argv = ["verify", "--out", str(tmp_path / "out")]
        if source == "flag":
            argv += [flag, value]
            want = f"argument {flag}: {message}"
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"{key} = {value}\n")
            argv += ["--config", str(path)]
            want = f"configuration error: {path}: {key}: {message}"
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert want in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("argv,config,key", [
        (["spectrum", "--dim", ","], None, "dims"),
        (["bounds", "--dim", "3", "--radius", ","], None, "radii"),
        (["verify", "--radius", ","], None, "radii"),
        (["spectrum"], "dims =\n", "dims"),
    ])
    def test_exit_two_on_empty_list(self, tmp_path, capsys, no_cases, argv, config, key):
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        out = tmp_path / "out"
        code = main(argv + ["--lmax", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: {key} is empty" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("suites =", "suites is empty"),
        ("suites = ,", "suites is empty"),
        ("suites = spectra, bounds, spectra", "suite spectra is given more than once"),
    ])
    def test_exit_two_on_empty_or_repeated_suites(self, tmp_path, capsys, no_cases,
                                                  line, message):
        path = tmp_path / "run.cfg"
        path.write_text(f"dims = 2\n{line}\n")
        out = tmp_path / "out"
        code = main(["all", "--config", str(path), "--lmax", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_exit_two_on_config_key_given_twice(self, tmp_path, capsys, no_cases):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\ndims = 2\n\nseed = 2\n")
        out = tmp_path / "out"
        code = main(["verify", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:4: key 'seed' is given twice, on lines 1 and 4" in err
        assert "Traceback" not in err and not out.exists()

    def test_run_dir_taken_between_check_and_create(self, tmp_path, monkeypatch):
        # another run creates the first name after this one found it free
        monkeypatch.setattr(time, "strftime", lambda fmt: "20260101-000000")
        (tmp_path / "run-20260101-000000-seed3").mkdir()
        real_exists = os.path.exists
        monkeypatch.setattr(os.path, "exists", lambda path: (
            False if str(path).startswith(str(tmp_path)) else real_exists(path)))
        code = main(["verify", "--dim", "2", "--degree", "1", "--seed", "3",
                     "--lmax", "1", "--out", str(tmp_path)])
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["run-20260101-000000-seed3",
                                                "run-20260101-000000-seed3-1"]
        assert (tmp_path / "run-20260101-000000-seed3-1" / "report.json").exists()

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
