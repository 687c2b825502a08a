"""Config parsing, file formats, and the command-line driver."""

import concurrent.futures
import contextlib
import hashlib
import io
import json
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import seqmix
from seqmix import cli, gaussian, verify
from seqmix.cli import main
from seqmix.config import load_experiment, SECTION_KEYS
from seqmix.erm import erm_train, TrainConfig
from seqmix.errors import SpecValidationError
from seqmix.gamp import gamp_run, generate_dataset, rbp_run
from seqmix.gaussian import McPlan
from seqmix.losses import loss_by_name, LOSSES
from seqmix.model import make_atom, SpectralMeasure
from seqmix.saddle import solve_fixed_point, SolverConfig
from seqmix.serialize import read_table, report_to_dict, save_report, write_table
from seqmix.zoo import gmm_instance, INSTANCES, ridge_instance, two_token_instance

RIDGE_EXPERIMENT = """
[model]
instance = ridge
alpha = 1.0
lambda = 0.1

[mc]
gh_order = 7
seed = 1

[solver]
damping = 0.3
tol = 1e-9
max_iters = 500

[sweep]
alphas = 0.5, 1.0, 2.0
lambdas = 0.1

[data]
d = 80
seeds = 0, 1

[gamp]
max_iters = 200
tol = 1e-9
damping = 0.0

[erm]
grad_tol = 1e-6
"""


@pytest.fixture
def ridge_config(tmp_path):
    path = tmp_path / "ridge.ini"
    path.write_text(RIDGE_EXPERIMENT)
    return path


def explicit_ini(spec) -> str:
    """A spec spelled out in [dimensions]/[class_law]/[spectral_measure]/[loss]."""
    dims, keys = spec.dims, spec.dims.lk_pairs()

    def row(xs):
        return " ".join(repr(float(x)) for x in xs)

    lines = ["[model]", f"name = {spec.name}", "", "[dimensions]",
             f"L = {dims.L}", f"r = {dims.r}", f"t = {dims.t}", "K = " + " ".join(map(str, dims.K)),
             f"alpha = {dims.alpha!r}", f"lambda = {dims.lam!r}", "", "[class_law]"]
    lines += [f"tuple_{i} = {' '.join(map(str, c))} : {float(p)!r}"
              for i, (c, p) in enumerate(zip(spec.class_law.support, spec.class_law.probs))]
    lines += ["", "[spectral_measure]"]
    lines += [f"atom_{i} = {float(a.weight)!r} | {row(a.gamma[k] for k in keys)} | "
              f"{row(a.tau[k] for k in keys)} | {row(a.pi)}" for i, a in enumerate(spec.nu.atoms)]
    lines += ["", "[loss]", f"name = {spec.loss.name}"]
    return "\n".join(lines) + "\n"


class TestModelConfig:
    def test_round_trip_explicit_sections(self, tmp_path):
        for spec in (ridge_instance(), gmm_instance(), two_token_instance()):
            path = tmp_path / f"{spec.name}.ini"
            path.write_text(explicit_ini(spec))
            back = load_experiment(path).spec
            assert back.name == spec.name
            assert back.dims == spec.dims
            assert back.class_law == spec.class_law
            assert back.loss.name == spec.loss.name
            for a, b in zip(back.nu.atoms, spec.nu.atoms):
                assert a.weight == b.weight
                assert a.gamma == b.gamma
                assert a.tau == b.tau
                np.testing.assert_array_equal(a.pi, b.pi)

    def test_round_trip_preserves_fixed_point(self, tmp_path):
        spec = ridge_instance(alpha=1.0, lam=0.1)
        path = tmp_path / "m.ini"
        path.write_text(explicit_ini(spec))
        back = load_experiment(path).spec
        cfg = SolverConfig(damping=0.3, tol=1e-10, max_iters=500,
                           mc_plan=McPlan(gh_order=7))
        a = solve_fixed_point(spec, spec.nu, cfg)
        b = solve_fixed_point(back, back.nu, cfg)
        assert a.test_error == pytest.approx(b.test_error, abs=1e-12)

    def test_experiment_sections(self, ridge_config):
        cfg = load_experiment(ridge_config)
        assert cfg.alphas == (0.5, 1.0, 2.0)
        assert cfg.solver.mc_plan.gh_order == 7
        assert (cfg.data.d, cfg.data.seeds) == (80, (0, 1))
        assert cfg.gamp.damping == 0.0 and cfg.erm.grad_tol == 1e-6
        assert cfg.violations() == []

    def test_every_documented_key_loads(self, tmp_path):
        # each experiment key of the configuration reference, the benchmark's
        # [model]/[mc]/[solver]/[sweep] keys among them
        path = tmp_path / "full.ini"
        path.write_text(
            "[model]\ninstance = ridge\nname = my_ridge\nalpha = 1.0\nlambda = 0.1\n\n"
            "[mc]\nn_samples = 2000\nseed = 3\nantithetic = true\ncrn = true\ngh_order = 7\n\n"
            "[solver]\ndamping = 0.3\ntol = 1e-9\nmax_iters = 50\ninit = gamp\n"
            "record_trajectory = true\n\n"
            "[sweep]\nalphas = 0.5, 1.0\nlambdas = 0.1\n\n"
            "[data]\nd = 50\nseeds = 0, 1\n\n"
            "[gamp]\nmax_iters = 20\ntol = 1e-8\ndamping = 0.0\n\n"
            "[erm]\nmax_epochs = 30\ngrad_tol = 1e-5\n\n"
            "[output]\ndir = elsewhere\n"
        )
        cfg = load_experiment(path)
        assert cfg.solver.mc_plan == McPlan(n_samples=2000, seed=3, gh_order=7)
        assert cfg.solver.record_trajectory and cfg.solver.init == "gamp"
        assert (cfg.data.d, cfg.data.seeds) == (50, (0, 1))
        assert (cfg.gamp.max_iters, cfg.erm.max_epochs, cfg.out_dir) == (20, 30, "elsewhere")
        assert cfg.spec.name == "my_ridge"

    def test_erm_section_is_the_train_config(self, ridge_config):
        # [erm] states max_epochs and grad_tol once, as the fit reads them
        cfg = load_experiment(ridge_config)
        assert isinstance(cfg.erm, TrainConfig)
        assert (cfg.erm.grad_tol, cfg.erm.max_epochs) == (1e-6, 5000)
        data = generate_dataset(cfg.spec, cfg.spec.nu, d=cfg.data.d, n=cfg.data.d, seed=0)
        fit = erm_train(data, cfg.spec, config=cfg.erm)
        ref = erm_train(data, cfg.spec, config=TrainConfig(grad_tol=1e-6, max_epochs=5000))
        assert fit.converged and fit.iterations == ref.iterations
        np.testing.assert_array_equal(fit.w_hat, ref.w_hat)

    def test_readme_reference_lists_every_accepted_key(self):
        # the INI blocks of the README and the reader accept the same keys in
        # every section whose key set is fixed
        readme = Path(__file__).resolve().parents[1] / "README.md"
        documented: dict[str, set] = {}
        for block in re.findall(r"```ini\n(.*?)```", readme.read_text(), re.S):
            for line in block.splitlines():
                header = re.match(r"\[(\w+)\]", line)
                key = re.match(r"(\w+)\s*=", line)
                if header:
                    section = header.group(1)
                    documented.setdefault(section, set())
                elif key:
                    documented[section].add(key.group(1).lower())
        assert set(documented) <= set(SECTION_KEYS)
        fixed = {name: keys for name, keys in SECTION_KEYS.items() if keys is not None}
        assert {name: documented.get(name, set()) for name in fixed} == fixed

    @pytest.mark.parametrize("text, named", [
        # a misspelled key was ignored, and the run exited 0
        (RIDGE_EXPERIMENT.replace("max_iters = 500", "max_iter = 3"), "max_iter"),
        (RIDGE_EXPERIMENT + "\n[solvre]\ndamping = 0.3\n", "solvre"),
        # square takes no parameters; coupling belongs to square_energy
        (explicit_ini(ridge_instance()).replace("name = square\n", "name = square\ncoupling = 0.3\n"),
         "coupling"),
        (RIDGE_EXPERIMENT.replace("max_iters = 500", "max_iters = many"), "many"),
        (RIDGE_EXPERIMENT.replace("[solver]", "[solver"), "[solver"),
        # a model is size-free: d was stored and read by nothing
        (RIDGE_EXPERIMENT.replace("lambda = 0.1\n", "lambda = 0.1\nd = 100\n", 1),
         "the dataset size is [data] d"),
        (explicit_ini(ridge_instance()).replace("[class_law]", "d = 100\n\n[class_law]"),
         "the dataset size is [data] d"),
        # the three per-seed commands share one dataset: [gamp] and [erm]
        # stated it twice, with different default sizes
        (RIDGE_EXPERIMENT.replace("[gamp]\n", "[gamp]\nd = 80\n"),
         "unknown key(s) in [gamp]: d; known: ['damping', 'max_iters', 'tol']; "
         "the dataset size is [data] d"),
        (RIDGE_EXPERIMENT.replace("[gamp]\n", "[gamp]\nseeds = 0\n"),
         "unknown key(s) in [gamp]: seeds; known: ['damping', 'max_iters', 'tol']; "
         "the dataset seeds are [data] seeds"),
        (RIDGE_EXPERIMENT.replace("[erm]\n", "[erm]\nd = 60\n"),
         "unknown key(s) in [erm]: d; known: ['grad_tol', 'max_epochs']; "
         "the dataset size is [data] d"),
        (RIDGE_EXPERIMENT.replace("[erm]\n", "[erm]\nseeds = 0, 1\n"),
         "the dataset seeds are [data] seeds"),
        # every test error is exact: no section sizes a test set
        (RIDGE_EXPERIMENT.replace("[erm]\n", "[erm]\nn_test = 20000\n"),
         "unknown key(s) in [erm]: n_test; known: ['grad_tol', 'max_epochs']"),
        (RIDGE_EXPERIMENT.replace("seeds = 0, 1\n", "seeds = 0, 1\nn_test = 20000\n"),
         "unknown key(s) in [data]: n_test; known: ['d', 'seeds']"),
        # raised inside the per-seed fit, which reported it as exit 3
        (RIDGE_EXPERIMENT.replace("grad_tol = 1e-6", "grad_tol = -1"), "grad_tol"),
        # an empty solve indexed its empty residual history
        (RIDGE_EXPERIMENT.replace("max_iters = 500", "max_iters = 0"), "SolverConfig: max_iters"),
        (RIDGE_EXPERIMENT.replace("max_iters = 500", "max_iters = -3"), "SolverConfig: max_iters"),
        # the sample count is round(alpha d); a set n disagreed with the
        # alpha written in the final table
        (RIDGE_EXPERIMENT.replace("[gamp]\n", "[gamp]\nn = 80\n"), "unknown key(s) in [gamp]: n"),
        # raised a bare ValueError from the dataset's seed
        (RIDGE_EXPERIMENT.replace("seeds = 0, 1", "seeds = -1"), "[data] seeds must be >= 0"),
        # ran, then exited 3
        (RIDGE_EXPERIMENT.replace("damping = 0.0", "damping = 1.5"), "[gamp] damping"),
        (RIDGE_EXPERIMENT.replace("max_iters = 200", "max_iters = 0"), "[gamp] max_iters"),
        (RIDGE_EXPERIMENT.replace("tol = 1e-9\ndamping", "tol = -1\ndamping"), "[gamp] tol"),
        # an infinite tolerance stopped each loop as "converged" after its
        # first step, exit 0; a NaN one ran every loop to its cap, exit 3
        (RIDGE_EXPERIMENT.replace("tol = 1e-9\nmax_iters", "tol = inf\nmax_iters"),
         "SolverConfig: tol must be positive and finite"),
        (RIDGE_EXPERIMENT.replace("tol = 1e-9\nmax_iters", "tol = nan\nmax_iters"),
         "SolverConfig: tol must be positive and finite"),
        (RIDGE_EXPERIMENT.replace("tol = 1e-9\ndamping", "tol = inf\ndamping"),
         "[gamp] tol must be positive and finite"),
        (RIDGE_EXPERIMENT.replace("tol = 1e-9\ndamping", "tol = nan\ndamping"),
         "[gamp] tol must be positive and finite"),
        (RIDGE_EXPERIMENT.replace("grad_tol = 1e-6", "grad_tol = inf"),
         "TrainConfig: grad_tol must be positive and finite"),
        (RIDGE_EXPERIMENT.replace("grad_tol = 1e-6", "grad_tol = nan"),
         "TrainConfig: grad_tol must be positive and finite"),
        (RIDGE_EXPERIMENT.replace("grad_tol = 1e-6", "grad_tol = 1e-6\nmax_epochs = 0"),
         "max_epochs"),
        # failed only when the dataset was generated, without the section
        (RIDGE_EXPERIMENT.replace("d = 80", "d = 0"), "[data] d must be >= 1"),
        # redrew Monte Carlo nodes every sweep, ran every sweep and exited 3
        (RIDGE_EXPERIMENT.replace("gh_order = 7\n", "crn = false\n"), "crn must be true"),
        # solved, converged and wrote a negative training loss, exit 0
        (RIDGE_EXPERIMENT.replace("lambdas = 0.1", "lambdas = -0.05"),
         "lambda must be nonnegative and finite"),
        # exited 3 with corrupted order parameters
        (RIDGE_EXPERIMENT.replace("alphas = 0.5, 1.0, 2.0", "alphas = -1.0, 0.5"),
         "alpha must be positive and finite"),
        # exited 3 as diverged
        (RIDGE_EXPERIMENT.replace("alphas = 0.5, 1.0, 2.0", "alphas = nan"),
         "alpha must be positive and finite"),
        # the model's own values, which the per-seed commands run
        (RIDGE_EXPERIMENT.replace("alpha = 1.0\n", "alpha = inf\n", 1),
         "alpha must be positive and finite"),
        (RIDGE_EXPERIMENT.replace("lambda = 0.1\n", "lambda = nan\n", 1),
         "lambda must be nonnegative and finite"),
        # wrote one cell more than the header, which read_table misaligned
        (explicit_ini(replace(ridge_instance(), name="gmm,v2")), "holds a comma or a newline"),
        (explicit_ini(replace(ridge_instance(), name="gmm\n  v2")), "holds a comma or a newline"),
        # a zoo instance's name was dropped for the instance's own
        (RIDGE_EXPERIMENT.replace("instance = ridge\n", "instance = ridge\nname = ridge,v2\n"),
         "holds a comma or a newline"),
        # caught only by a second check in the command line
        (explicit_ini(ridge_instance()).replace("0 : 1.0", "0 : 0.9"), "probs sum to 0.9"),
        # numpy broadcast the one label column against both student columns,
        # and solve-se exited 0
        (explicit_ini(ridge_instance()).replace("r = 1", "r = 2"),
         "LossModel square: the square losses require r == t, got r = 2, t = 1"),
        (explicit_ini(replace(ridge_instance(), loss=loss_by_name("square_energy")))
         .replace("r = 1", "r = 2"),
         "LossModel square_energy: the square losses require r == t, got r = 2, t = 1"),
        # a bare ValueError from the gradient check's reshape
        (explicit_ini(replace(two_token_instance(), loss=loss_by_name("logistic_gmm"))),
         "the mixture classification losses require L = r = 1, got L = 2, r = 1"),
    ], ids=["unknown-key", "unknown-section", "unknown-loss-parameter", "bad-value", "bad-header",
            "model-d", "dimensions-d", "gamp-d", "gamp-seeds", "erm-d", "erm-seeds",
            "erm-n-test", "data-n-test", "erm-grad-tol", "solver-max-iters-0",
            "solver-max-iters-negative", "gamp-n-unknown", "data-seeds",
            "gamp-damping", "gamp-max-iters", "gamp-tol", "solver-tol-inf", "solver-tol-nan",
            "gamp-tol-inf", "gamp-tol-nan", "erm-grad-tol-inf", "erm-grad-tol-nan",
            "erm-max-epochs", "data-d",
            "mc-crn-false", "sweep-lambda-negative", "sweep-alpha-negative", "sweep-alpha-nan",
            "model-alpha-inf", "model-lambda-nan", "model-name-comma", "model-name-newline",
            "instance-name-comma", "class-law-sum", "square-r-not-t", "square-energy-r-not-t",
            "logistic-two-tokens"])
    def test_malformed_config_is_validation_error(self, tmp_path, capsys, text, named):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        with pytest.raises(SpecValidationError):
            load_experiment(path)
        out = tmp_path / "o"
        assert main(["solve-se", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and named in err
        assert not out.exists()

    def test_warm_init_is_validation_error(self, tmp_path, capsys):
        # a warm start is set by passing the previous overlaps, not by init
        path = tmp_path / "warm.ini"
        path.write_text(RIDGE_EXPERIMENT.replace("max_iters = 500", "max_iters = 500\ninit = warm"))
        assert main(["solve-se", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "unknown init 'warm'" in capsys.readouterr().err


class TestTables:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ["a", "b"]
        rows = [[1, 2.5], [3, -0.125]]
        write_table(path, header, rows, {"tool": "seqmix test", "seed": 7})
        meta, hdr, got = read_table(path)
        assert meta["tool"] == "seqmix test" and meta["seed"] == "7"
        assert hdr == header
        assert [[float(x) for x in row] for row in got] == [[1.0, 2.5], [3.0, -0.125]]

    def test_float_cells_survive_exactly(self, tmp_path):
        path = tmp_path / "f.csv"
        value = 0.1234567890123456789
        write_table(path, ["x"], [[value]])
        _, _, rows = read_table(path)
        assert float(rows[0][0]) == value


class TestReportsAndDatasets:
    def test_report_round_trip(self, tmp_path):
        for spec, keys in ((ridge_instance(), ["0,0"]),
                           (two_token_instance(), ["0,0", "1,0"])):
            cfg = SolverConfig(damping=0.3, tol=1e-9, max_iters=300,
                               mc_plan=McPlan(gh_order=7))
            rep = solve_fixed_point(spec, spec.nu, cfg)
            path = tmp_path / f"{spec.name}.json"
            save_report(rep, path)
            doc = json.loads(path.read_text())
            assert doc == report_to_dict(rep)
            assert doc["converged"] is True
            assert list(doc) == [
                "converged", "iterations", "residual_history", "rejected_steps", "free_entropy",
                "free_entropy_stderr", "test_error", "test_error_stderr",
                "train_loss", "train_loss_stderr", "params", "conj",
            ]
            assert list(doc["params"]) == ["q", "V", "m", "theta", "v"]
            assert list(doc["conj"]) == ["q_hat", "V_hat", "m_hat", "theta_hat", "v_hat"]
            for state, section in ((rep.params, doc["params"]), (rep.conj, doc["conj"])):
                *keyed, glob = section
                for name in keyed:
                    assert list(section[name]) == keys
                    for key in keys:
                        got = section[name][key]
                        want = getattr(state, name)[tuple(map(int, key.split(",")))]
                        np.testing.assert_array_equal(
                            np.reshape(got["data"], got["shape"]), want)
                got = section[glob]
                np.testing.assert_array_equal(
                    np.reshape(got["data"], got["shape"]), getattr(state, glob))

    def test_trajectory_tables_read_back_block_by_block(self, tmp_path):
        # solver, GAMP and rBP tables of an L = 2 run, against the iterates
        # each run recorded, rebuilt in process from the same config
        path = tmp_path / "two_token.ini"
        path.write_text(
            "[model]\ninstance = two_token\nalpha = 1.0\nlambda = 0.1\n\n[mc]\ngh_order = 7\n\n"
            "[solver]\ndamping = 0.3\ntol = 1e-9\nmax_iters = 500\nrecord_trajectory = true\n\n"
            "[data]\nd = 40\nseeds = 0\n\n"
            "[gamp]\nmax_iters = 200\ntol = 1e-9\ndamping = 0.0\n"
        )
        out = tmp_path / "out"
        for command in ("solve-se", "run-gamp", "run-rbp"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
        cfg = load_experiment(path)
        spec, o = cfg.spec, cfg.gamp
        data = generate_dataset(spec, spec.nu, d=cfg.data.d, n=40, seed=0)
        records = {
            "se_trajectory_alpha1.0.csv": solve_fixed_point(spec, spec.nu, cfg.solver),
            "gamp_trajectory_seed0.csv": gamp_run(data, spec, max_iters=o.max_iters, tol=o.tol,
                                                  damping=o.damping),
            "rbp_trajectory_seed0.csv": rbp_run(data, spec, max_iters=o.max_iters, tol=o.tol)[1],
        }
        expected = ["iteration",
                    "q_0_0_00", "V_0_0_00", "m_0_0_0", "theta_0_0_00",
                    "q_1_0_00", "V_1_0_00", "m_1_0_0", "theta_1_0_00",
                    "v_00", "residual"]
        for table, record in records.items():
            _, header, rows = read_table(out / table)
            assert header == expected
            assert len(rows) == len(record.trajectory) > 1
            for t, (row, stats) in enumerate(zip(rows, record.trajectory), 1):
                cells = dict(zip(header, row))
                assert int(cells.pop("iteration")) == t
                assert float(cells.pop("residual")) == record.residual_history[t - 1]
                for name, block in stats.blocks().items():
                    for idx in np.ndindex(block.shape):
                        assert float(cells.pop(f"{name}_{''.join(map(str, idx))}")) == block[idx]
                assert cells == {}


class TestCli:
    def test_solve_se(self, ridge_config, tmp_path):
        out = tmp_path / "out"
        code = main(["solve-se", "--config", str(ridge_config), "--out", str(out)])
        assert code == 0
        meta, header, rows = read_table(out / "learning_curve.csv")
        assert len(rows) == 3
        assert all(row[header.index("converged")] == "True" for row in rows)
        assert (out / "report_alpha0.5.json").exists()

    def test_solve_se_trajectory_matches_simulator_layout(self, ridge_config, tmp_path):
        text = ridge_config.read_text().replace(
            "max_iters = 500", "max_iters = 500\nrecord_trajectory = true")
        ridge_config.write_text(text)
        out = tmp_path / "out"
        assert main(["solve-se", "--config", str(ridge_config), "--out", str(out)]) == 0
        assert main(["run-gamp", "--config", str(ridge_config), "--out", str(out)]) == 0
        report = json.loads((out / "report_alpha1.0.json").read_text())
        _, se_header, se_rows = read_table(out / "se_trajectory_alpha1.0.csv")
        _, gamp_header, _ = read_table(out / "gamp_trajectory_seed0.csv")
        assert se_header == gamp_header
        assert len(se_rows) == report["iterations"]
        assert [int(row[0]) for row in se_rows] == list(range(1, len(se_rows) + 1))
        residuals = [float(row[se_header.index("residual")]) for row in se_rows]
        assert residuals == report["residual_history"]

    def test_output_directory_that_cannot_be_created_is_validation_error(
            self, ridge_config, tmp_path, capsys):
        # an existing file, or a path through one, as --out or [output] dir
        # raised a bare FileExistsError or NotADirectoryError, exit 1
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        with_dir = tmp_path / "with_dir.ini"
        with_dir.write_text(ridge_config.read_text() + f"\n[output]\ndir = {blocker / 'sub'}\n")
        for command, config, out in (("solve-se", ridge_config, [str(blocker)]),
                                     ("run-erm", ridge_config, [str(blocker / "sub")]),
                                     ("sweep", with_dir, [])):
            assert main([command, "--config", str(config), *(["--out"] + out if out else [])]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and "cannot create output directory" in err
        assert blocker.read_text() == "a file\n"

    def test_zero_mc_samples_is_validation_error(self, ridge_config, tmp_path):
        # 0 is a value, not "no override": it must reach McPlan's check
        code = main(["solve-se", "--config", str(ridge_config),
                     "--out", str(tmp_path / "out"), "--mc-samples", "0"])
        assert code == 2

    def test_overrides_apply_before_validation(self, ridge_config, tmp_path, capsys):
        # the file's odd count is never run; an odd count that would run is
        # rejected
        ridge_config.write_text(ridge_config.read_text().replace(
            "gh_order = 7", "n_samples = 1001").replace("alphas = 0.5, 1.0, 2.0", "alphas = 1.0"))
        out = tmp_path / "out"
        base = ["solve-se", "--config", str(ridge_config), "--out", str(out), "--mc-samples"]
        assert main(base + ["1000"]) == 0
        assert len(read_table(out / "learning_curve.csv")[2]) == 1
        assert main(base + ["1001"]) == 2
        assert "even n_samples" in capsys.readouterr().err

    def test_warm_start_saves_iterations(self, ridge_config, tmp_path):
        # the chain pays off once neighboring grid points are close
        alphas = [round(0.4 + 0.2 * i, 2) for i in range(9)]
        text = ridge_config.read_text().replace(
            "alphas = 0.5, 1.0, 2.0", "alphas = " + ", ".join(map(str, alphas))
        )
        ridge_config.write_text(text)
        out = tmp_path / "out"
        main(["solve-se", "--config", str(ridge_config), "--out", str(out)])
        _, header, rows = read_table(out / "learning_curve.csv")
        iters_warm = [int(r[header.index("iterations")]) for r in rows]
        cold = []
        for alpha in alphas:
            spec = ridge_instance(alpha=alpha, lam=0.1)
            cfg = SolverConfig(damping=0.3, tol=1e-9, max_iters=500,
                               mc_plan=McPlan(gh_order=7, seed=1))
            cold.append(solve_fixed_point(spec, spec.nu, cfg).iterations)
        saved = sum(w <= c for w, c in zip(iters_warm, cold))
        assert saved >= 0.8 * len(cold)

    @staticmethod
    def _square_gmm_config(tmp_path, lam, max_iters):
        # undamped from the message-passing start, this solve grows
        # geometrically; at lam = 0.05 a block norm overflows
        path = tmp_path / "square.ini"
        path.write_text(
            f"[model]\ninstance = square_gmm\nlambda = {lam}\n\n[mc]\ngh_order = 31\n\n"
            f"[solver]\ndamping = 0.0\ninit = gamp\nmax_iters = {max_iters}\n\n"
            f"[sweep]\nalphas = 1.0\nlambdas = {lam}\n"
        )
        return path

    def test_diverging_solve_names_its_sweep(self, tmp_path, capsys):
        path = self._square_gmm_config(tmp_path, 0.05, 500)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve-se", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err and "Traceback" not in err
        _, header, rows = read_table(out / "learning_curve.csv")
        sweeps = int(rows[0][header.index("iterations")])
        assert 0 < sweeps < 500
        assert f"alpha=1.0 lam=0.05: fixed-point iteration diverged at iteration {sweeps} " in err

    def test_gamp_beyond_single_precision_stops_without_warnings(self, tmp_path, capsys):
        # gamma = 1e40 squares X's entries past float32's 3.4e38; four numpy
        # overflow warnings came before the divergence
        base = ridge_instance()
        huge = SpectralMeasure((make_atom(base.dims, 1.0, gamma=1e40, tau=0.0, pi=1.0),))
        path = tmp_path / "huge.ini"
        path.write_text(explicit_ini(replace(base, nu=huge))
                        + "\n[data]\nd = 20\nseeds = 19\n\n[gamp]\ndamping = 0.0\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run-gamp", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "RuntimeWarning" not in err and "Traceback" not in err
        assert "seed=19: GAMP diverged at iteration 1 (relative change nan)" in err
        _, header, rows = read_table(out / "gamp_final.csv")
        assert (rows[0][header.index("iterations")], rows[0][header.index("converged")]) == (
            "1", "False")

    def test_unconverged_solve_is_reported(self, tmp_path, capsys):
        path = self._square_gmm_config(tmp_path, 0.1, 40)
        assert main(["solve-se", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "alpha=1.0 lam=0.1: not converged after 40 sweeps (residual " in err

    def test_run_gamp(self, ridge_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run-gamp", "--config", str(ridge_config), "--out", str(out)])
        assert code == 0
        meta, header, rows = read_table(out / "gamp_trajectory_seed0.csv")
        assert header[0] == "iteration" and len(rows) >= 1
        fmeta, fh, frows = read_table(out / "gamp_final.csv")
        assert frows[0][fh.index("converged")] == "True"
        assert (fmeta["d"], fmeta["n"]) == ("80", "80")

    def test_run_rbp(self, ridge_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run-rbp", "--config", str(ridge_config), "--out", str(out)])
        assert code == 0
        _, header, rows = read_table(out / "rbp_trajectory_seed0.csv")
        assert all(np.isfinite(float(row[header.index("residual")])) for row in rows)
        fmeta, fh, frows = read_table(out / "rbp_final.csv")
        assert frows[0][fh.index("converged")] == "True"
        assert frows[0][fh.index("iterations")] == str(len(rows))
        assert (fmeta["d"], fmeta["n"]) == ("80", "80")

    def test_run_rbp_growth_is_numerical_failure(self, tmp_path, capsys):
        # ridge, alpha = 2: GAMP converges on this dataset while undamped
        # rBP's weights grow without bound; the run stops at max_iters
        path = tmp_path / "rbp.ini"
        path.write_text(
            "[model]\ninstance = ridge\nalpha = 2.0\nlambda = 0.1\n\n"
            "[data]\nd = 40\nseeds = 40000\n\n"
            "[gamp]\nmax_iters = 500\ntol = 1e-11\n"
        )
        out = tmp_path / "out"
        assert main(["run-rbp", "--config", str(path), "--out", str(out)]) == 3
        assert "Traceback" not in capsys.readouterr().err
        _, fh, frows = read_table(out / "rbp_final.csv")
        assert frows[0][fh.index("converged")] == "False"
        assert frows[0][fh.index("iterations")] == "500"
        _, header, rows = read_table(out / "rbp_trajectory_seed40000.csv")
        residuals = [float(row[header.index("residual")]) for row in rows]
        assert len(residuals) == 500 and all(np.isfinite(residuals))

    @pytest.mark.parametrize("command, final", [
        ("run-gamp", "gamp_final.csv"), ("run-rbp", "rbp_final.csv"), ("run-erm", "erm_curve.csv"),
    ])
    def test_dataset_of_no_samples_is_validation_error(self, tmp_path, capsys, command, final):
        # round(0.1 * 4) = 0 samples: rBP raised a bare ValueError, GAMP and
        # ERM wrote a fit on no data and exited 0
        path = tmp_path / "empty.ini"
        path.write_text("[model]\ninstance = logistic_gmm\nalpha = 0.1\n\n"
                        "[data]\nd = 4\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "no samples" in err
        assert not (out / final).exists()

    def test_run_erm(self, ridge_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run-erm", "--config", str(ridge_config), "--out", str(out)])
        assert code == 0
        meta, header, rows = read_table(out / "erm_curve.csv")
        assert len(rows) == 2 and (meta["d"], meta["n"]) == ("80", "80")
        eg = float(rows[0][header.index("eg")])
        assert 0.0 <= eg < 1.0
        assert all(r[header.index("converged")] == "True" for r in rows)

    def test_per_seed_commands_share_the_data_section(self, ridge_config, tmp_path):
        # [gamp] and [erm] each stated a dataset, with default sizes of 1000
        # and 500: the two tables described different datasets
        ridge_config.write_text(ridge_config.read_text().replace("d = 80\n", "").replace(
            "seeds = 0, 1", "seeds = 3"))
        out = tmp_path / "out"
        for command in ("run-gamp", "run-erm"):
            assert main([command, "--config", str(ridge_config), "--out", str(out)]) == 0
        for table in ("gamp_final.csv", "erm_curve.csv"):
            meta, header, rows = read_table(out / table)
            assert (meta["d"], meta["n"]) == ("1000", "1000")
            assert [row[header.index("seed")] for row in rows] == ["3"]

    def test_per_seed_commands_share_the_test_set(self, ridge_config, tmp_path):
        # run-gamp and run-erm reach the same ridge minimizer and score it on
        # one test population, the closed form at the weights' overlaps:
        # their eg agree as far as the fits do (ERM stops at a gradient of
        # 1e-6; they differ by about 5e-7 relative), and no test draw adds
        # a stderr
        out = tmp_path / "out"
        tables = {}
        for command, table in (("run-gamp", "gamp_final.csv"), ("run-erm", "erm_curve.csv")):
            assert main([command, "--config", str(ridge_config), "--out", str(out)]) == 0
            _, header, rows = read_table(out / table)
            tables[command] = [(float(row[header.index("eg")]), float(row[header.index("eg_stderr")]))
                               for row in rows]
        assert len(tables["run-gamp"]) == len(tables["run-erm"]) == 2
        for (eg_gamp, se_gamp), (eg_erm, se_erm) in zip(tables["run-gamp"], tables["run-erm"]):
            assert se_gamp == se_erm == 0.0 and eg_gamp == pytest.approx(eg_erm, rel=2e-6)

    def test_run_erm_max_epochs_is_numerical_failure(self, ridge_config, tmp_path):
        text = ridge_config.read_text().replace(
            "grad_tol = 1e-6", "grad_tol = 1e-6\nmax_epochs = 1"
        )
        ridge_config.write_text(text)
        out = tmp_path / "out"
        code = main(["run-erm", "--config", str(ridge_config), "--out", str(out)])
        assert code == 3
        _, header, rows = read_table(out / "erm_curve.csv")
        assert len(rows) == 2
        assert all(r[header.index("converged")] == "False" for r in rows)

    def test_run_erm_divergence_is_numerical_failure(self, tmp_path, capsys):
        # a negative energy coupling makes the risk unbounded below
        base = explicit_ini(ridge_instance(alpha=1.0, lam=0.05))
        path = tmp_path / "unbounded.ini"
        path.write_text(
            base.replace("name = square\n", "name = square_energy\ncoupling = -0.5\n")
            + "\n[data]\nd = 100\nseeds = 2\n\n"
            "[erm]\ngrad_tol = 1e-8\nmax_epochs = 3000\n"
        )
        out = tmp_path / "out"
        assert main(["run-erm", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "seed=2" in err
        assert "ERM diverged at epoch 11 (gradient sup-norm " in err
        # the failed fit still gets its row, with the epoch it diverged at
        _, header, rows = read_table(out / "erm_curve.csv")
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert (row["seed"], row["iterations"], row["converged"]) == ("2", "11", "False")
        assert all(row[k] == "nan" for k in ("eg", "eg_stderr", "et", "grad_norm"))

    def test_retired_flags_are_usage_errors(self, ridge_config):
        assert main(["verify", "--fast"]) == 2
        for cmd in ("solve-se", "run-gamp", "run-rbp", "run-erm"):
            assert main([cmd, "--config", str(ridge_config), "--workers", "2"]) == 2

    def test_missing_config_is_validation_error(self, tmp_path, capsys):
        # a directory passed an existence check and raised IsADirectoryError
        for path in (tmp_path / "nope.ini", tmp_path):
            assert main(["solve-se", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and f"cannot read {path}" in err

    def test_unknown_instance_is_validation_error(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[model]\ninstance = unobtainium\n")
        code = main(["solve-se", "--config", str(path)])
        assert code == 2

    def test_empty_grid_is_validation_error(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text(RIDGE_EXPERIMENT + "\n")
        text = path.read_text().replace("alphas = 0.5, 1.0, 2.0", "alphas =")
        path.write_text(text)
        code = main(["solve-se", "--config", str(path)])
        assert code == 2

    def test_quadrature_dimension_is_validation_error(self, tmp_path, capsys):
        # L = 2, r = t = 2 asks for an 8-dimensional tensor quadrature
        path = tmp_path / "wide.ini"
        path.write_text(
            "[dimensions]\nL = 2\nr = 2\nt = 2\nK = 1 1\nalpha = 1.0\nlambda = 0.1\n\n"
            "[class_law]\ntuple_0 = 0 0 : 1.0\n\n"
            "[spectral_measure]\natom_0 = 1.0 | 1.0 | 0.0 | 1.0\n\n"
            "[loss]\nname = square\n\n[mc]\ngh_order = 5\n"
        )
        code = main(["solve-se", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and "Gaussian quadrature" in err

    def test_label_free_loss_quadrature_counts_no_labels(self, tmp_path, monkeypatch):
        # a loss that reads no labels draws no label cores, so L = 4 tokens
        # with r = t = 1 need 4-dimensional nodes, not L (r + t) = 8
        path = tmp_path / "label_free.ini"
        path.write_text(
            "[dimensions]\nL = 4\nr = 1\nt = 1\nK = 1 1 1 1\nalpha = 1.0\nlambda = 0.1\n\n"
            "[class_law]\ntuple_0 = 0 0 0 0 : 1.0\n\n"
            "[spectral_measure]\natom_0 = 1.0 | 1.0 1.0 1.0 1.0 | 0.0 0.0 0.0 0.0 | 1.0\n\n"
            "[loss]\nname = zero\n\n[mc]\ngh_order = 5\n\n[sweep]\nalphas = 1.0\n"
        )
        dims = []
        nodes = gaussian.gauss_hermite_nodes

        def spy(dim, order):
            dims.append(dim)
            return nodes(dim, order)

        monkeypatch.setattr(gaussian, "gauss_hermite_nodes", spy)
        out = tmp_path / "o"
        assert main(["solve-se", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_table(out / "learning_curve.csv")
        assert rows[0][header.index("converged")] == "True"
        assert set(dims) == {4}

    def test_zero_mass_key_is_validation_error(self, tmp_path, capsys):
        # cluster 1 has eigenvalue 0 on the only atom, so V_{0,1} = 0
        path = tmp_path / "massless.ini"
        path.write_text(
            "[dimensions]\nL = 1\nr = 1\nt = 1\nK = 2\nalpha = 1.0\nlambda = 0.1\n\n"
            "[class_law]\ntuple_0 = 0 : 0.5\ntuple_1 = 1 : 0.5\n\n"
            "[spectral_measure]\natom_0 = 1.0 | 1.0 0.0 | 0.0 0.0 | 1.0\n\n"
            "[loss]\nname = square\n\n[mc]\ngh_order = 7\n"
        )
        code = main(["solve-se", "--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and "zero eigenvalue mass" in err

    @pytest.mark.parametrize("command", ["solve-se", "sweep"])
    def test_lambda_zero_without_strong_convexity_is_validation_error(
        self, tmp_path, capsys, command,
    ):
        # logistic_gmm is not strongly convex: lambda = 0 in the grid is
        # rejected at load time, before anything is solved or written
        path = tmp_path / "lam0.ini"
        path.write_text("[model]\ninstance = logistic_gmm\n\n[mc]\ngh_order = 21\n\n"
                        "[sweep]\nalphas = 1.0\nlambdas = 0.0\n")
        out = tmp_path / "o"
        code = main([command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err and "not strongly convex" in err
        assert not out.exists()

    def test_verify_unknown_instance(self):
        assert main(["verify", "--instance", "nope"]) == 2

    def test_nonconvergence_is_numerical_failure(self, ridge_config, tmp_path):
        text = ridge_config.read_text().replace("max_iters = 500", "max_iters = 2")
        ridge_config.write_text(text)
        out = tmp_path / "out"
        code = main(["solve-se", "--config", str(ridge_config), "--out", str(out)])
        assert code == 3
        # the run continued and recorded the failure in-table
        _, header, rows = read_table(out / "learning_curve.csv")
        assert all(r[header.index("converged")] == "False" for r in rows)

    def test_sweep_grid_order(self, ridge_config, tmp_path):
        out = tmp_path / "out"
        text = ridge_config.read_text().replace(
            "lambdas = 0.1", "lambdas = 0.1, 0.5"
        )
        ridge_config.write_text(text)
        code = main(["sweep", "--config", str(ridge_config), "--out", str(out)])
        assert code == 0
        _, header, rows = read_table(out / "sweep.csv")
        lams = [float(r[header.index("lam")]) for r in rows]
        alphas = [float(r[header.index("alpha")]) for r in rows]
        assert lams == [0.1] * 3 + [0.5] * 3
        assert alphas == [0.5, 1.0, 2.0] * 2

    def test_sweep_workers_match_serial(self, ridge_config, tmp_path):
        # Monte Carlo nodes whose sample count and seed come from the command
        # line: the pool's workers are handed the config the parent loaded,
        # both overrides set on it
        text = ridge_config.read_text().replace("gh_order = 7", "gh_order = 0")
        text = text.replace("alphas = 0.5, 1.0, 2.0", "alphas = 0.5, 1.0")
        ridge_config.write_text(text.replace("lambdas = 0.1", "lambdas = 0.1, 0.5"))
        tables = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            code = main(["sweep", "--config", str(ridge_config), "--out", str(out),
                         "--workers", workers, "--mc-samples", "2000", "--seed", "5"])
            assert code == 0
            tables.append(read_table(out / "sweep.csv"))
        assert len(tables[0][2]) == 4
        assert tables[0] == tables[1]

    def test_sweep_workers_solve_the_config_the_table_names(self, ridge_config, tmp_path,
                                                           monkeypatch):
        # the file is edited after the parent has read it: workers that
        # reread it solved two_token under the ridge bytes' hash
        text = ridge_config.read_text().replace("lambdas = 0.1", "lambdas = 0.1, 0.5")
        load = cli._load_and_validate

        def load_then_edit(args, solved=slice(0)):
            cfg = load(args, solved)
            Path(args.config).write_text(text.replace("instance = ridge", "instance = two_token"))
            return cfg

        monkeypatch.setattr(cli, "_load_and_validate", load_then_edit)
        tables = []
        for workers in ("1", "2"):
            ridge_config.write_text(text)
            out = tmp_path / f"workers{workers}"
            assert main(["sweep", "--config", str(ridge_config), "--out", str(out),
                         "--workers", workers]) == 0
            tables.append(read_table(out / "sweep.csv"))
        assert tables[0] == tables[1]
        meta, header, rows = tables[1]
        assert meta["config_hash"] == hashlib.sha256(text.encode()).hexdigest()[:12]
        assert len(rows) == 6 and {row[header.index("model")] for row in rows} == {"ridge"}

    def test_sweep_pool_is_no_larger_than_the_grid(self, ridge_config, tmp_path, monkeypatch):
        # a fork-started pool forks all max_workers processes at the first
        # submit; the stand-in records the size and runs each submission
        # here, so no process starts
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        ridge_config.write_text(ridge_config.read_text().replace("lambdas = 0.1",
                                                                 "lambdas = 0.1, 0.5"))
        code = main(["sweep", "--config", str(ridge_config), "--out", str(tmp_path / "out"),
                     "--workers", "64"])
        assert code == 0
        assert sizes == [2]
        _, _, rows = read_table(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 6

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_sweep_workers_below_one_is_validation_error(self, ridge_config, tmp_path,
                                                         capsys, workers):
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(ridge_config), "--out", str(out),
                     "--workers", workers])
        assert code == 2
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    @staticmethod
    def _check(name, passed):
        return lambda: verify.CheckResult(name, passed, "stand-in")

    def test_exit_code_and_report_follow_the_checks(self, tmp_path, monkeypatch, capsys):
        checks = {"first": self._check("first", True), "second": self._check("second", True)}
        monkeypatch.setattr(verify, "ALL_CHECKS", checks)
        out = tmp_path / "report"
        assert main(["verify", "--out", str(out)]) == 0
        lines = ["PASS first: stand-in [0.0s]", "PASS second: stand-in [0.0s]"]
        assert (out / "verify_report.txt").read_text().splitlines() == lines
        checks["second"] = self._check("second", False)
        assert main(["verify", "--out", str(out)]) == 3
        lines[1] = "FAIL second: stand-in [0.0s]"
        assert (out / "verify_report.txt").read_text().splitlines() == lines
        assert lines[1] in capsys.readouterr().out


    def test_output_directory_is_made_before_the_checks(self, tmp_path, monkeypatch, capsys):
        # a --out that cannot be a directory failed only after every check
        # had run, with a bare FileExistsError
        out = tmp_path / "report"
        ran = []

        def check():
            ran.append(out.is_dir())
            return verify.CheckResult("first", True, "stand-in")

        monkeypatch.setattr(verify, "ALL_CHECKS", {"first": check})
        assert main(["verify", "--out", str(out)]) == 0
        assert ran == [True]
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        for bad in (blocker, blocker / "sub"):
            assert main(["verify", "--out", str(bad)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err and "cannot create output directory" in err
        assert ran == [True]


def _pickle_cases() -> dict[str, str]:
    """An experiment of every zoo instance and, on ridge's data, of every
    loss by name."""
    cases = {name: f"[model]\ninstance = {name}\n" for name in INSTANCES}
    for name in LOSSES:
        spec = replace(ridge_instance(), loss=loss_by_name(name), name=name)
        cases[name + "-loss"] = explicit_ini(spec).replace(
            "[loss]\nname = square_energy\n", "[loss]\nname = square_energy\ncoupling = 0.7\n")
    return {name: ini + "\n[mc]\ngh_order = 7\n\n[solver]\nmax_iters = 30\n\n"
                        "[sweep]\nalphas = 0.5, 1.0\nlambdas = 0.1\n"
            for name, ini in cases.items()}


PICKLE_CASES = _pickle_cases()


@pytest.mark.parametrize("text", list(PICKLE_CASES.values()), ids=list(PICKLE_CASES))
def test_validated_config_pickles(tmp_path, text):
    # a sweep's pool is handed the parent's config whole; nested loss hooks
    # kept it from pickling, and the workers reread the file instead
    path = tmp_path / "run.ini"
    path.write_text(text)
    cfg = load_experiment(path)
    back = pickle.loads(pickle.dumps(cfg))
    with contextlib.redirect_stderr(io.StringIO()):
        assert repr(cli._alpha_line(back, 0.1)[0]) == repr(cli._alpha_line(cfg, 0.1)[0])


def _guard_config(model, alpha, d, lam, gh_order, damping) -> str:
    """A small run of a zoo instance, or of ridge's data with a loss
    spelled out by name."""
    if model in INSTANCES:
        head = f"[model]\ninstance = {model}\nalpha = {alpha}\nlambda = {lam}\n"
    else:
        spec = replace(ridge_instance(alpha=alpha, lam=lam), loss=loss_by_name(model), name=model)
        head = explicit_ini(spec)
    return head + (
        f"\n[mc]\nn_samples = 200\ngh_order = {gh_order}\n\n"
        f"[solver]\ndamping = {damping}\nmax_iters = 30\n\n"
        f"[data]\nd = {d}\n\n"
        f"[gamp]\nmax_iters = 30\ndamping = {damping}\n\n"
        f"[erm]\nmax_epochs = 30\n"
    )


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    model=st.sampled_from([*INSTANCES, "square_energy", "zero"]),
    command=st.sampled_from(["solve-se", "sweep", "run-gamp", "run-rbp", "run-erm"]),
    alpha=st.sampled_from([0.01, 0.3, 1.0, 3.0]),
    d=st.sampled_from([1, 3, 20]),
    lam=st.sampled_from([0.0, 0.05]),
    gh_order=st.sampled_from([0, 7]),
    damping=st.sampled_from([0.0, 0.5]),
)
def test_every_run_exits_with_a_documented_code(model, command, alpha, d, lam, gh_order, damping):
    # 0, 2 or 3, whatever the config; a failure never escapes as a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(_guard_config(model, alpha, d, lam, gh_order, damping))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


# A fresh interpreter: imports the seqmix this module imported, lists what
# the import pulled in, then runs one finite-d ridge fit.
COLD_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import seqmix, seqmix.cli, seqmix.verify, seqmix.oracles
loaded = sorted(m for m in sys.modules
                if m.startswith("scipy") or m == "concurrent.futures.process")
ridge = seqmix.oracles.finite_d_ridge(0.5, 0.1, 50, range(3))
after_fit = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"file": seqmix.__file__, "loaded": loaded, "after_fit": after_fit,
                  "ridge": [x.hex() for x in ridge]}))
"""


def test_cold_import_leaves_out_scipy_and_process_pool():
    # seqmix never imports scipy, not even for the finite-d ridge oracle's
    # tridiagonal solve; the process pool is imported only by a parallel sweep
    src = Path(seqmix.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", COLD_IMPORT, str(src)],
                          capture_output=True, text=True, check=True)
    out = json.loads(done.stdout)
    assert Path(out["file"]).resolve() == Path(seqmix.__file__).resolve()
    assert out["loaded"] == []
    assert out["after_fit"] == []
    # the values the oracle gave with scipy.linalg.solveh_banded
    assert out["ridge"] == ["0x1.cdc0f79b43efdp-3", "0x1.83851c049c4b1p-6",
                            "0x1.8f81b00a66e4bp-6", "0x1.3c74b56b86d78p-9"]
