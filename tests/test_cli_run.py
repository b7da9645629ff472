"""End-to-end checks of run(), sweep(), and the CLI surface."""

import csv
import os
import pickle
import shutil

import numpy as np
import pytest

from sulphsim import diagnostics
from sulphsim.bulk import CgBreakdown, step
from sulphsim.cli import main
from sulphsim.config import ConfigError, parse_config
from sulphsim.model import PhysParams
from sulphsim.runner import initial_state, run, sweep


def small_config(out_dir, **extra):
    lines = [
        "nx = 17",
        "ny = 17",
        "n_steps = 20",
        "dt = 0.002",
        "snapshot_steps = 5,15",
        "r_init_mode = weibull",
        f"out_dir = {out_dir}",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    return parse_config("\n".join(lines))


def read_artifacts(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestRun:
    def test_simulate_emits_artifact_set(self, tmp_path):
        cfg = small_config(tmp_path / "a")
        res = run(cfg)
        assert res.status == 0
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == [
            "fields_step000005.vtk",
            "fields_step000015.vtk",
            "invariants.csv",
            "manifest.ini",
            "profiles.csv",
        ]

    def test_rest_configuration_emits_zeros(self, tmp_path):
        cfg = small_config(tmp_path / "rest", sbar=0)
        res = run(cfg)
        assert res.status == 0
        text = (tmp_path / "rest" / "profiles.csv").read_text()
        r_by_time = {}
        for line in text.strip().split("\n")[1:]:
            t, _, x2, field, value = line.split(",")
            if field == "s":
                assert float(value) == 0.0
            if field == "c":
                assert float(value) == 1.0
            if field == "r":
                r_by_time.setdefault(t, []).append(value)
        profiles = list(r_by_time.values())
        assert len(profiles) == 2  # two snapshots
        assert profiles[0] == profiles[1]  # rugosity never moved

    def test_manifest_reparses_to_same_config(self, tmp_path):
        cfg = small_config(tmp_path / "m")
        run(cfg)
        text = (tmp_path / "m" / "manifest.ini").read_text()
        assert parse_config(text) == cfg
        assert "# code_version" in text
        assert "# invariants.steps" in text

    def test_manifest_reports_the_solver_totals(self, tmp_path, monkeypatch):
        import sulphsim.bulk as bulk

        cg_solve = bulk.cg_solve
        counts = []

        def counting(sys, **kwargs):
            out = cg_solve(sys, **kwargs)
            counts.append(out[1])
            return out

        monkeypatch.setattr(bulk, "cg_solve", counting)
        res = run(small_config(tmp_path / "m"))
        assert res.status == 0
        m = res.metrics
        assert (m.cg_solves, m.cg_iterations_total, m.cg_iterations_max) == (
            len(counts), sum(counts), max(counts)
        )
        assert m.cg_solves == res.config.n_steps == 20
        lines = (tmp_path / "m" / "manifest.ini").read_text().splitlines()
        assert [line for line in lines if line.startswith("# solver.")] == [
            f"# solver.cg_solves = {len(counts)}",
            f"# solver.cg_iterations_total = {sum(counts)}",
            f"# solver.cg_iterations_max = {max(counts)}",
        ]

    def test_same_seed_byte_identical_artifacts(self, tmp_path):
        cfg = small_config(tmp_path / "det")
        run(cfg)
        first = read_artifacts(tmp_path / "det")
        run(cfg)
        second = read_artifacts(tmp_path / "det")
        assert first == second

    def test_different_seed_differs(self, tmp_path):
        run(small_config(tmp_path / "s1", seed=1))
        run(small_config(tmp_path / "s2", seed=2))
        a = (tmp_path / "s1" / "profiles.csv").read_bytes()
        b = (tmp_path / "s2" / "profiles.csv").read_bytes()
        assert a != b

    def test_audit_only_suppresses_field_output(self, tmp_path, monkeypatch):
        import sulphsim.runner as runner_mod

        def no_rows(*args, **kwargs):
            raise AssertionError("profile rows built for a run that writes no CSV")

        monkeypatch.setattr(runner_mod, "profile_rows", no_rows)
        cfg = small_config(tmp_path / "audit", emit_csv="false", emit_vtk="false")
        res = runner_mod.run(cfg)
        assert res.status == 0
        names = sorted(os.listdir(tmp_path / "audit"))
        assert names == ["invariants.csv", "manifest.ini"]

    def test_strict_mode_fails_on_injected_flag(self, tmp_path, monkeypatch):
        # the scheme is designed so the audited bounds hold, so strict mode
        # is exercised by injecting a flagged audit entry
        import dataclasses

        import sulphsim.runner as runner_mod

        original = runner_mod.audit_step

        def flagging(state, p, terms, grid, step_index=0):
            entry = original(state, p, terms, grid, step_index)
            if step_index == 3:
                entry = dataclasses.replace(entry, flags=("synthetic failure",))
            return entry

        monkeypatch.setattr(runner_mod, "audit_step", flagging)
        cfg = small_config(tmp_path / "strict", strict="true", snapshot_steps="")
        res = runner_mod.run(cfg)
        assert res.status == 1
        assert "invariant" in res.error
        assert len(res.report.entries) == 3  # aborted at the flagged step

    def test_strict_mode_passes_clean_run(self, tmp_path):
        cfg = small_config(tmp_path / "strict_ok", strict="true")
        assert run(cfg).status == 0

    def test_trace_recording(self, tmp_path):
        # a run's edge data, step by step, comes from a plain step() loop
        cfg = small_config(tmp_path / "tr")
        grid, p = cfg.grid(), cfg.phys()
        state = initial_state(cfg)
        for _ in range(cfg.n_steps):
            new, terms = step(state, cfg.dt, grid, p)
            assert len(terms.s_trace) == len(new.r) == cfg.ny
            assert np.all(new.r >= state.r)
            state = new


class TestSweep:
    def test_empty_sweep_succeeds(self, tmp_path):
        assert sweep([], str(tmp_path / "summary.csv")) == []
        assert (tmp_path / "summary.csv").read_text().startswith("out_dir,")

    def test_identical_configs_identical_field_outputs(self, tmp_path):
        cfgs = [small_config(tmp_path / "r1"), small_config(tmp_path / "r2")]
        results = sweep(cfgs, str(tmp_path / "summary.csv"))
        assert all(r.status == 0 for r in results)
        a = read_artifacts(tmp_path / "r1")
        b = read_artifacts(tmp_path / "r2")
        del a["manifest.ini"], b["manifest.ini"]  # differ in out_dir only
        assert a == b

    def test_summary_keeps_its_columns_for_a_comma_in_out_dir(self, tmp_path):
        cfgs = [small_config(tmp_path / d, n_steps=5, snapshot_steps="") for d in ("a,b", "plain")]
        sweep(cfgs, str(tmp_path / "summary.csv"))
        with open(tmp_path / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [5, 5, 5]
        assert rows[1] == [str(tmp_path / "a,b"), "0", "", "5", "1"]
        # an ordinary path is written unquoted
        text = (tmp_path / "summary.csv").read_text()
        assert text.endswith(f"\n{tmp_path / 'plain'},0,,5,1\n")

    def test_duplicate_out_dirs_rejected(self, tmp_path):
        cfg = small_config(tmp_path / "dup")
        with pytest.raises(ConfigError):
            sweep([cfg, cfg])

    @pytest.mark.parametrize(
        "first, second",
        [("same", "./same"), ("same", "same/"), ("same", "{tmp}/same")],
        ids=["dot", "trailing-slash", "absolute"],
    )
    def test_out_dirs_naming_one_directory_rejected(self, tmp_path, monkeypatch, first, second):
        monkeypatch.chdir(tmp_path)
        second = second.format(tmp=tmp_path)
        cfgs = [small_config(first, seed=1), small_config(second, seed=2)]
        with pytest.raises(ConfigError) as info:
            sweep(cfgs, str(tmp_path / "summary.csv"))
        assert f"{first!r} and {second!r} name the same directory" in str(info.value)
        assert os.listdir(tmp_path) == []

    def test_one_failure_does_not_abort_others(self, tmp_path, monkeypatch):
        import sulphsim.runner as runner_mod

        good = small_config(tmp_path / "ok")
        bad = small_config(tmp_path / "bad")
        original = runner_mod.run

        def flaky(cfg):
            if cfg.out_dir.endswith("bad"):
                raise RuntimeError("boom")
            return original(cfg)

        monkeypatch.setattr(runner_mod, "run", flaky)
        results = runner_mod.sweep([bad, good], str(tmp_path / "summary.csv"))
        assert [r.status for r in results] == [1, 0]
        assert "boom" in results[0].error

    def test_one_failure_does_not_abort_others_in_worker_processes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SULPHSIM_THREADS", "2")
        self.test_one_failure_does_not_abort_others(tmp_path, monkeypatch)

    def test_worker_processes_match_serial_byte_for_byte(self, tmp_path, monkeypatch):
        cfgs = [small_config(tmp_path / f"p{i}", seed=i, n_steps=8, snapshot_steps="4,8") for i in range(3)]
        summary = tmp_path / "summary.csv"
        outputs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("SULPHSIM_THREADS", workers)
            for cfg in cfgs:
                shutil.rmtree(cfg.out_dir, ignore_errors=True)
            results = sweep(cfgs, str(summary))
            assert [r.config for r in results] == cfgs
            outputs[workers] = (
                summary.read_bytes(),
                [read_artifacts(cfg.out_dir) for cfg in cfgs],
            )
        assert outputs["2"] == outputs["1"]

    def test_configs_run_in_worker_processes(self, tmp_path, monkeypatch):
        import sulphsim.runner as runner_mod

        def report_pid(cfg):
            raise RuntimeError(f"pid {os.getpid()}")

        monkeypatch.setattr(runner_mod, "run", report_pid)
        monkeypatch.setenv("SULPHSIM_THREADS", "2")
        cfgs = [small_config(tmp_path / f"q{i}") for i in range(4)]
        results = runner_mod.sweep(cfgs)
        pids = {int(r.error.split()[-1]) for r in results}
        assert [r.status for r in results] == [1] * 4
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= 2

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_results_are_slim_and_pickle(self, tmp_path, monkeypatch, workers):
        monkeypatch.setenv("SULPHSIM_THREADS", workers)
        cfgs = [small_config(tmp_path / f"k{i}", n_steps=3, snapshot_steps="") for i in range(2)]
        results = sweep(cfgs)
        assert all(r.status == 0 for r in results)
        back = pickle.loads(pickle.dumps(results))
        assert [r.report.entries for r in back] == [r.report.entries for r in results]
        assert [r.config for r in back] == cfgs

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", ""])
    def test_bad_worker_count_rejected(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("SULPHSIM_THREADS", value)
        with pytest.raises(ConfigError, match=f"SULPHSIM_THREADS.*{value!r}"):
            sweep([small_config(tmp_path / "never")])
        assert not (tmp_path / "never").exists()

    def test_threshold_metric_in_summary(self, tmp_path):
        cfg = small_config(tmp_path / "thr", n_steps=400, dt=0.01, snapshot_steps="")
        sweep([cfg], str(tmp_path / "summary.csv"))
        lines = (tmp_path / "summary.csv").read_text().strip().split("\n")
        fields = lines[1].split(",")
        assert fields[1] == "0"
        assert fields[2] != ""  # c on the edge dropped below half its start
        assert int(fields[2]) > 0


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.ini"
        cfg_path.write_text("nx = 17\nny = 17\nn_steps = 5\nsnapshot_steps = 5\n")
        code = main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
             "--set", "nu_law=parabolic"]
        )
        assert code == 0
        assert (tmp_path / "out" / "profiles.csv").exists()
        manifest = (tmp_path / "out" / "manifest.ini").read_text()
        assert "nu_law = parabolic" in manifest

    def test_run_rejects_an_out_dir_the_manifest_cannot_carry(self, tmp_path, capsys):
        code = main(["run", "--set", "nx=17", "--set", "ny=17", "--out", str(tmp_path / "x#y")])
        assert code == 2
        assert "out_dir must hold no '#'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_run_rejects_unknown_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.ini"
        cfg_path.write_text("does_not_exist = 1\n")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_mms_subcommand_writes_table(self, tmp_path, capsys):
        # levels=3 keeps this at the cheap end of the temporal study
        code = main(["mms", "--study", "temporal", "--levels", "3", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "mms_temporal.csv").read_text()
        assert text.startswith("level,h_or_dt,err_L2,err_max,order_L2,order_max")
        assert len(text.strip().split("\n")) == 4

    def test_mms_levels_validated_like_run(self, tmp_path, capsys, monkeypatch):
        # a bad --levels exits 2, like a bad run config, before any solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr("sulphsim.cli.mms_convergence", no_solve)
        argv = ["mms", "--study", "spatial", "--out", str(tmp_path), "--levels"]
        assert main(argv + ["2"]) == 2
        assert "--levels must be >= 3 (got 2)" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(argv + ["x"])
        assert info.value.code == 2
        assert "--levels: invalid int value: 'x'" in capsys.readouterr().err
        assert not (tmp_path / "mms_spatial.csv").exists()

    def test_mms_config_needs_only_valid_physical_parameters(self, tmp_path, capsys):
        # ny = 4 puts the run's default profile lines off its grid; the study
        # reads only the physical parameters, so it runs
        argv = ["mms", "--study", "spatial", "--levels", "3", "--config"]
        (tmp_path / "ny4.ini").write_text("ny = 4\n")
        assert main(argv + [str(tmp_path / "ny4.ini"), "--out", str(tmp_path / "ok")]) == 0
        text = (tmp_path / "ok" / "mms_spatial.csv").read_text()
        assert text.startswith("level,h_or_dt,err_L2,err_max,order_L2,order_max")
        assert len(text.strip().split("\n")) == 4
        (tmp_path / "a.ini").write_text("A = -1\n")
        assert main(argv + [str(tmp_path / "a.ini"), "--out", str(tmp_path / "bad")]) == 2
        assert "(A1): requires A > 0" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nope = 1", "unknown key 'nope' (line 1)"),
            ("lam = abc", "key 'lam': expected a number, got 'abc'"),
            ("nx = 4.5", "key 'nx': expected an integer, got '4.5'"),
            ("g = nan", "g must be finite (got nan)"),
            ("B = 2", "(A9): requires B <= 1/S0"),
            ("sbar = 2", "(A9): requires 0 <= sbar <= S0"),
            ("nu_law = cubic", "key 'nu_law': expected one of linear, parabolic, got 'cubic'"),
        ],
    )
    def test_mms_config_rejects_bad_physics_and_text_by_name(
        self, tmp_path, capsys, monkeypatch, text, message
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr("sulphsim.cli.mms_convergence", no_solve)
        (tmp_path / "c.ini").write_text(text + "\n")
        argv = ["mms", "--study", "spatial", "--config", str(tmp_path / "c.ini")]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mms_solve_failure_exits_1_without_a_traceback(self, tmp_path, monkeypatch, capsys):
        # a config holding only lam = 1e308 passes every assumption check and
        # breaks CG down; the failure is reported like run's, and no table written
        def breakdown(*args, **kwargs):
            raise CgBreakdown("p.Ap = 0.000e+00 at iteration 0")

        monkeypatch.setattr(diagnostics, "_mms_solution", breakdown)
        argv = ["mms", "--study", "spatial", "--levels", "3", "--out", str(tmp_path / "o")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "mms failed: p.Ap = 0.000e+00 at iteration 0\n"
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "o").exists()

    def test_mms_config_keeps_its_global_bound_switch(self, tmp_path, monkeypatch):
        # B = 2 breaks (A9) only while enforce_global_bound holds
        seen = []

        def record(study, levels, p):
            seen.append(p)
            return diagnostics.ConvergenceTable(study, [])

        monkeypatch.setattr("sulphsim.cli.mms_convergence", record)
        (tmp_path / "c.ini").write_text("B = 2\nenforce_global_bound = false\nny = 4\n")
        argv = ["mms", "--study", "temporal", "--config", str(tmp_path / "c.ini")]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert seen == [PhysParams(B=2.0)]

    def test_sweep_subcommand(self, tmp_path):
        c1 = tmp_path / "c1.ini"
        c2 = tmp_path / "c2.ini"
        c1.write_text(f"nx = 17\nny = 17\nn_steps = 5\nsnapshot_steps = 5\nout_dir = {tmp_path/'o1'}\n")
        c2.write_text(f"nx = 17\nny = 17\nn_steps = 5\nsnapshot_steps = 5\nout_dir = {tmp_path/'o2'}\n")
        manifest = tmp_path / "runs.txt"
        manifest.write_text("c1.ini\nc2.ini\n# comment\n")
        code = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)])
        assert code == 0
        summary = (tmp_path / "sweep_summary.csv").read_text()
        assert len(summary.strip().split("\n")) == 3

    @pytest.mark.parametrize(
        "entry",
        ["a#b/run.ini", "a#b/run.ini  # note", "  a#b/run.ini\t#note"],
        ids=["hash-in-path", "trailing-comment", "tab-comment"],
    )
    def test_sweep_manifest_path_may_hold_a_hash(self, tmp_path, capsys, entry):
        (tmp_path / "a#b").mkdir()
        body = "nx = 17\nny = 17\nn_steps = 5\nsnapshot_steps =\nemit_vtk = false\n"
        (tmp_path / "a#b" / "run.ini").write_text(body + f"out_dir = {tmp_path / 'o'}\n")
        manifest = tmp_path / "runs.txt"
        manifest.write_text(f"# a whole-line comment\n{entry}\n   # an indented one\n")
        code = main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)])
        assert code == 0, capsys.readouterr().err
        assert "1/1 runs succeeded" in capsys.readouterr().out
        assert (tmp_path / "o" / "manifest.ini").exists()

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_sweep_bad_worker_count_exits_2(self, tmp_path, monkeypatch, capsys, value):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"nx = 17\nny = 17\nn_steps = 5\nout_dir = {tmp_path / 'o'}\n")
        manifest = tmp_path / "runs.txt"
        manifest.write_text("c.ini\n")
        monkeypatch.setenv("SULPHSIM_THREADS", value)
        assert main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SULPHSIM_THREADS")
        assert repr(value) in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_mms_bad_worker_count_exits_2_like_sweep(self, tmp_path, monkeypatch, capsys):
        import sulphsim.diagnostics as diagnostics

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran")

        monkeypatch.setattr(diagnostics, "_mms_solution", no_solve)
        monkeypatch.setenv("SULPHSIM_THREADS", "abc")
        manifest = tmp_path / "runs.txt"
        manifest.write_text("")
        assert main(["sweep", "--manifest", str(manifest), "--out", str(tmp_path)]) == 2
        sweep_err = capsys.readouterr().err
        assert main(["mms", "--study", "spatial", "--levels", "3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == sweep_err
        assert err.startswith("error: SULPHSIM_THREADS") and "'abc'" in err
        assert not (tmp_path / "mms_spatial.csv").exists()

    def test_worker_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SULPHSIM_THREADS", "2")
        cfgs = [small_config(tmp_path / f"w{i}", n_steps=3, snapshot_steps="") for i in range(3)]
        results = sweep(cfgs, str(tmp_path / "s.csv"))
        assert all(r.status == 0 for r in results)
