"""Batch driver: commands, config handling, artifact files, exit codes."""

import ast
import csv
import inspect
import json
import re
import threading

import numpy as np
import pytest

from blockgp import cli


def write_config(path, **kv):
    with open(path, "w") as f:
        f.write("# test job\n")
        for k, v in kv.items():
            f.write(f"{k} = {v}\n")
    return str(path)


def write_data(path, coords, y=None):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y"] if y is not None else ["x"])
        for k, c in enumerate(coords):
            row = [repr(float(c))]
            if y is not None:
                row.append(repr(float(y[k])))
            w.writerow(row)
    return str(path)


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(3)
    coords = np.sort(rng.uniform(0, 10, 25))
    y = np.sin(coords) + 0.1 * rng.standard_normal(25)
    write_data(tmp_path / "data.csv", coords, y)
    write_data(tmp_path / "grid.csv", np.linspace(1, 9, 6))
    np.savetxt(tmp_path / "plane.csv",
               np.column_stack([rng.uniform(0, 10, (25, 2)), y]),
               delimiter=",", header="x1,x2,y", comments="")
    write_config(tmp_path / "job.cfg", workers=3, seed=1,
                 kernel="matern-nugget", theta0="1.0,2.0,0.1",
                 data=tmp_path / "data.csv", pred_grid=tmp_path / "grid.csv")
    return tmp_path


class TestLoglik:
    def test_trivial_single_point(self, tmp_path, capsys):
        write_data(tmp_path / "one.csv", [0.0], [0.0])
        cfg = write_config(tmp_path / "c.cfg", workers=1, kernel="white",
                           theta0="1.0", data=tmp_path / "one.csv")
        assert cli.main(["loglik", cfg]) == 0
        out = capsys.readouterr().out
        assert "-0.9189" in out

    def test_matches_library_value(self, workdir, capsys):
        assert cli.main(["loglik", str(workdir / "job.cfg")]) == 0
        printed = float(capsys.readouterr().out.split()[-1])
        assert np.isfinite(printed)


class TestFit:
    def test_recovers_closed_form_mle(self, tmp_path):
        rng = np.random.default_rng(5)
        y = 1.3 * rng.standard_normal(100)
        write_data(tmp_path / "d.csv", np.arange(100.0), y)
        cfg = write_config(tmp_path / "c.cfg", workers=3, kernel="white",
                           theta0="1.0", data=tmp_path / "d.csv",
                           out=tmp_path / "fit.json")
        assert cli.main(["fit", cfg]) == 0
        doc = json.loads((tmp_path / "fit.json").read_text())
        mle = float(y @ y / 100)
        assert abs(doc["theta"][0] - mle) / mle <= 1e-4
        assert doc["converged"]
        assert doc["n_evals"] == len(doc["trace"])
        assert doc["log_density"] == max(t["log_density"]
                                         for t in doc["trace"])

    def test_prints_theta_as_plain_floats(self, workdir, capsys):
        assert cli.main(["fit", str(workdir / "job.cfg"),
                         f"out={workdir / 'fit.json'}", "max_evals=0"]) == 0
        out = capsys.readouterr().out
        doc = json.loads((workdir / "fit.json").read_text())
        assert out.startswith(f"fit theta {doc['theta']!r} log_density ")
        assert "np." not in out

    def test_failed_evaluations_are_null_in_strict_json(self, tmp_path):
        # without a nugget the sqexp covariance of 30 points on [0, 1] is
        # not numerically PD once the range grows
        x = np.linspace(0.0, 1.0, 30)
        write_data(tmp_path / "d.csv", x, np.sin(6 * x))
        cfg = write_config(tmp_path / "c.cfg", workers=3, kernel="sqexp",
                           theta0="1.0,0.05", max_evals=60,
                           data=tmp_path / "d.csv", out=tmp_path / "fit.json")
        assert cli.main(["fit", cfg]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")
        doc = json.loads((tmp_path / "fit.json").read_text(),
                         parse_constant=reject)
        lls = [t["log_density"] for t in doc["trace"]]
        assert None in lls
        assert doc["log_density"] == max(ll for ll in lls if ll is not None)


class TestPredict:
    def test_csv_round_trip_exact(self, workdir):
        out = workdir / "pred.csv"
        assert cli.main(["predict", str(workdir / "job.cfg"),
                         f"out={out}", "se_fit=true"]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["mean", "se"]
        assert len(rows) == 7
        parsed = np.array([[float(v) for v in r] for r in rows[1:]])
        # the repr-precision writer makes the file re-parse bit exactly
        from blockgp import spawn
        from blockgp.gp import KrigeProblem, builtin_spec
        data = np.loadtxt(workdir / "data.csv", delimiter=",", skiprows=1)
        grid = np.loadtxt(workdir / "grid.csv", delimiter=",", skiprows=1)
        cl = spawn(3, seed=1)
        try:
            spec = builtin_spec("matern-nugget", data[:, 0], grid)
            prob = KrigeProblem(cl, "job", spec, data[:, 1],
                                np.array([1.0, 2.0, 0.1]), m=6)
            mean, se = prob.predict(se_fit=True)
        finally:
            cl.shutdown()
        np.testing.assert_array_equal(parsed[:, 0], mean)
        np.testing.assert_array_equal(parsed[:, 1], se)

    def test_mean_only_by_default(self, workdir):
        out = workdir / "pred.csv"
        assert cli.main(["predict", str(workdir / "job.cfg"),
                         f"out={out}"]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["mean"]


class TestSimulate:
    def test_conditional_shape(self, workdir):
        out = workdir / "sim.csv"
        assert cli.main(["simulate", str(workdir / "job.cfg"),
                         f"out={out}", "r=8"]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == [f"sim{k}" for k in range(1, 9)]
        assert len(rows) == 7  # 6 prediction points + header

    def test_unconditional_shape(self, workdir):
        out = workdir / "sim.csv"
        assert cli.main(["simulate", str(workdir / "job.cfg"),
                         f"out={out}", "r=3", "post=false"]) == 0
        with open(out, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 26  # 25 observations + header


class TestDeterminism:
    def test_identical_config_gives_identical_files(self, workdir):
        outs = []
        for k in range(2):
            fit = workdir / f"fit{k}.json"
            pred = workdir / f"pred{k}.csv"
            sim = workdir / f"sim{k}.csv"
            assert cli.main(["fit", str(workdir / "job.cfg"),
                             f"out={fit}", "max_evals=40"]) == 0
            assert cli.main(["predict", str(workdir / "job.cfg"),
                             f"out={pred}", "se_fit=true"]) == 0
            assert cli.main(["simulate", str(workdir / "job.cfg"),
                             f"out={sim}", "r=5"]) == 0
            outs.append((fit.read_bytes(), pred.read_bytes(),
                         sim.read_bytes()))
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert cli.main(["loglik", "/nonexistent.cfg"]) == 2

    def test_missing_required_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg", workers=3)
        assert cli.main(["loglik", cfg]) == 2

    def test_malformed_line(self, tmp_path, capsys):
        (tmp_path / "c.cfg").write_text("this is not a key value pair\n")
        assert cli.main(["loglik", str(tmp_path / "c.cfg")]) == 2

    def test_bad_theta_count(self, workdir, capsys):
        assert cli.main(["loglik", str(workdir / "job.cfg"),
                         "theta0=1.0"]) == 2

    def test_non_triangular_worker_count(self, workdir, capsys):
        assert cli.main(["loglik", str(workdir / "job.cfg"),
                         "workers=4"]) == 2

    def test_numerical_error_echoes_theta(self, tmp_path, capsys):
        # duplicated points without a nugget: singular covariance
        write_data(tmp_path / "d.csv", [1.0, 1.0, 2.0], [0.5, 0.7, 0.1])
        cfg = write_config(tmp_path / "c.cfg", workers=1, kernel="matern",
                           theta0="1.0,2.0", data=tmp_path / "d.csv")
        assert cli.main(["loglik", cfg]) == 3
        err = capsys.readouterr().err
        assert "1.0,2.0" in err

    def test_negative_seed(self, workdir, capsys):
        assert cli.main(["loglik", str(workdir / "job.cfg"), "seed=-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_backend_failure(self, workdir, capsys):
        assert cli.main(["loglik", str(workdir / "job.cfg"),
                         "backend=carrier-pigeon"]) == 4

    @pytest.mark.slow
    def test_worker_killed_mid_job(self, workdir, capsys, monkeypatch):
        spawn, killed = cli.spawn, threading.Event()

        def spawn_with_victim(*args, **kwargs):
            cl = spawn(*args, **kwargs)
            run = cl.run

            def run_killing_rank_two(fn_id, **kw):
                if fn_id == "distla.cholesky":
                    cl._procs[1].kill()
                    cl._procs[1].wait()
                    killed.set()
                return run(fn_id, **kw)
            cl.run = run_killing_rank_two
            return cl

        monkeypatch.setattr(cli, "spawn", spawn_with_victim)
        codes = []
        job = threading.Thread(target=lambda: codes.append(cli.main(
            ["loglik", str(workdir / "job.cfg"),
             "backend=multi-process-socket"])), daemon=True)
        job.start()
        assert killed.wait(timeout=60), "loglik never reached the Cholesky"
        job.join(timeout=10)
        assert not job.is_alive(), "loglik still running 10 s after the kill"
        assert codes == [4]
        assert "rank 2" in capsys.readouterr().err

    def test_pred_grid_with_response_column_rejected(self, workdir, capsys):
        assert cli.main(["predict", str(workdir / "job.cfg"),
                         f"pred_grid={workdir / 'data.csv'}",
                         f"out={workdir / 'p.csv'}"]) == 2

    @pytest.mark.parametrize("command, overrides, named", [
        ("predict", ["se_fti=true"], "'se_fti'"),
        ("loglik", ["worker=6"], "'worker'"),
        ("loglik", ["kernel=matern-product-nugget",
                    "theta0=1.0,2.0,2.0,0.1"], "2-column"),
        ("loglik", ["nu=0.7"], "nu=0.7"),
        ("predict", ["data={dir}/plane.csv"], "coordinate columns"),
        ("loglik", ["h=0"], "h=0"),
        ("simulate", ["r=0"], "r must be an integer >= 1, got 0"),
    ], ids=["misspelt-key", "misspelt-workers", "product-kernel-on-1-d",
            "unsupported-nu", "grid-dimension", "h-zero", "r-zero"])
    def test_input_mistake_exits_2(self, workdir, capsys, command, overrides,
                                   named):
        argv = [command, str(workdir / "job.cfg"), f"out={workdir / 'o'}"]
        assert cli.main(argv + [o.format(dir=workdir)
                                for o in overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_its_line(self, workdir, capsys, cell):
        write_data(workdir / "data.csv", [0.0, 1.0, 2.0],
                   [0.5, float(cell), 0.1])
        assert cli.main(["loglik", str(workdir / "job.cfg")]) == 2
        assert "data.csv:3: non-finite cell" in capsys.readouterr().err

    def test_short_row_is_ragged_with_its_line(self, workdir, capsys):
        with open(workdir / "data.csv", "a") as f:
            f.write("4.5\n")
        assert cli.main(["loglik", str(workdir / "job.cfg")]) == 2
        assert "data.csv:27: ragged row: 1 cells, header has 2" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("content, named", [
        (None, "cannot read data file"),
        ("x,y\n", "need a header row and at least one row"),
        ("x,y\n1.0,0.5\n2.0,abc\n", ":3: non-numeric cell"),
        ("x,z\n1.0,0.5\n", "last column must be 'y', got 'z'"),
    ], ids=["unreadable", "header-only", "non-numeric-cell", "no-y-column"])
    def test_bad_data_file_exits_2_naming_it(self, workdir, capsys, content,
                                             named):
        path = workdir / "bad.csv"
        if content is not None:
            path.write_text(content)
        assert cli.main(["loglik", str(workdir / "job.cfg"),
                         f"data={path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert str(path) in err and named in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_blas_threads_below_one_exits_2(self, workdir, capsys, value):
        assert cli.main(["loglik", str(workdir / "job.cfg"),
                         f"blas_threads={value}"]) == 2
        assert "blas_threads must be None or an integer >= 1" in \
            capsys.readouterr().err

    def test_unknown_key_in_file_names_its_line(self, workdir, capsys):
        with open(workdir / "job.cfg", "a") as f:
            f.write("maxevals = 10\n")
        assert cli.main(["loglik", str(workdir / "job.cfg")]) == 2
        assert "job.cfg:8: unknown config key 'maxevals'" in \
            capsys.readouterr().err

    def test_unparsable_value_names_its_key(self, workdir, capsys):
        assert cli.main(["loglik", str(workdir / "job.cfg"),
                         "post=maybe"]) == 2
        assert "bad value for 'post': 'maybe'" in capsys.readouterr().err


def test_help_documents_config_keys(capsys):
    """cli.py reads config keys only as cfg["literal"], and the keys it reads
    are the table's; --help lists every table key with its default, and
    every default parses."""
    tree = ast.parse(inspect.getsource(cli))
    assert not [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and ast.unparse(node.value) == "cfg"]
    read = {ast.literal_eval(node.slice) for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and ast.unparse(node.value) == "cfg"}
    assert {"workers", "seed", "theta0", "nu", "blas_threads"} <= read
    assert read == set(cli.KEYS)
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    epilog = capsys.readouterr().out.split("Config file format:")[1]
    entries = re.split(r"\n  (?=\S)", epilog)[1:]
    assert [entry.split()[0] for entry in entries] == list(cli.KEYS)
    for entry, (parse, default, _) in zip(entries, cli.KEYS.values()):
        if default is cli.REQUIRED:
            shown = "required"
        elif default is None:
            shown = "default unset"
        else:
            shown = f"default {default}"
            parse(default)
        assert " ".join(entry.split()).endswith(f"({shown})"), entry
