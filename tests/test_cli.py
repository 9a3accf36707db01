import csv
import json
import math

import numpy as np
import pytest

from dirw import solvers
from dirw.cli import (
    CLUSTER_RADIUS,
    MAX_NUM_INITS,
    ExperimentConfig,
    _classify_label,
    _tail_sample_points,
    main,
    parse_x0,
    run_escape,
)
from dirw.problems import BENCHMARK2D_STATIONARY, benchmark2d, load_problem
from dirw.solvers import TAIL_WINDOW, SolverConfig, ValidationReport, run


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def solver_cfg(tmp_path):
    return write_json(tmp_path / "solver.json", {"algorithm": "DIRL1"})


def experiment(tmp_path, **overrides):
    data = {
        "problem": "benchmark2d",
        "solver": {"algorithm": "DIRL1"},
        "num_inits": 8,
        "init_box": [[-3, -3], [3, 3]],
        "seed": 11,
        "saddle_radius": 1e-3,
    }
    data.update(overrides)
    return write_json(tmp_path / "experiment.json", data)


def test_solve_writes_artifacts_and_exits_zero(tmp_path, solver_cfg, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--config", solver_cfg, "--problem", "benchmark2d",
                 "--x0", "3,3", "--out", str(out)])
    assert code == 0
    summary = json.loads((tmp_path / "run.json").read_text())
    assert summary["converged"] is True
    assert summary["classification"]["classification"] == "StrictLocalMin"
    assert summary["limit_x"][0] == 0.0
    with open(tmp_path / "run.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "F_perturbed", "step_norm", "eps_inf", "support_bits"]
    assert int(rows[-1][0]) == summary["iterations"]


def test_solve_exit_2_on_budget(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"algorithm": "DIRL1", "max_iter": 5})
    code = main(["solve", "--config", cfg, "--x0", "3,3"])
    assert code == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["converged"] is False and summary["iterations"] == 5


def test_solve_exit_1_on_hard_error(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json",
                     {"algorithm": "DIRL1", "alpha": 0.99, "beta": 0.1})
    code = main(["solve", "--config", cfg, "--x0", "0,0"])
    assert code == 1
    err = capsys.readouterr().err
    assert "beta" in err


def test_solve_exit_1_on_bad_problem_file(tmp_path, capsys):
    bad = write_json(tmp_path / "p.json", {"smooth": {}})
    assert main(["solve", "--problem", bad, "--x0", "0,0"]) == 1


def test_solve_exit_1_on_mistyped_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "s.json", {"algorithm": "DIRL1", "beta": "4"})
    assert main(["solve", "--config", cfg, "--x0", "0,0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: solver config: beta ")
    assert "Traceback" not in err


def test_solve_fra_with_underflowing_curvature_bound(tmp_path, capsys):
    # r''(0+) = -2/p**2 with p**2 underflowed to 0 reads -inf, as for LPN.
    spec = benchmark2d().to_dict()
    spec["regularizer"] = {"family": "FRA", "p": 1e-200}
    problem = write_json(tmp_path / "fra.json", spec)
    assert main(["solve", "--problem", problem, "--x0", "3,3"]) in (0, 2)
    err = capsys.readouterr().err
    assert "warning:" in err and "Traceback" not in err


def test_solve_trace_full_writes_states(tmp_path, solver_cfg):
    out = tmp_path / "full"
    code = main(["solve", "--config", solver_cfg, "--x0", "1,1",
                 "--out", str(out), "--trace-full"])
    assert code == 0
    lines = (tmp_path / "full.states.jsonl").read_text().strip().split("\n")
    assert json.loads(lines[0])["x"] == [1.0, 1.0]


def test_classify_examples(capsys, saddle_x2):
    assert main(["classify", "--problem", "benchmark2d", "--x0", "0,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["saddle"]["classification"] == "StrictLocalMin"
    assert main(["classify", "--x0", f"0,{saddle_x2!r}"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["saddle"]["classification"] == "StrictSaddle"
    assert main(["classify", "--x0", "1,1"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["stationarity"]["is_stationary"] is False
    assert "saddle" not in out


@pytest.mark.parametrize("x0", ["[0, true]", "[0, null]", '[0, "1"]', "[0, [1]]", "0,nan",
                                "1,abc", "[1,"])
def test_classify_exits_one_on_non_numeric_x0(capsys, x0):
    assert main(["classify", "--x0", x0]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: x0 must hold finite numbers only")


@pytest.mark.parametrize("args, flag", [
    (["--x0", "uniform:-3"], "--x0"),
    (["--x0", "uniform:abc"], "--x0"),
    (["--x0", "uniform", "--seed", "-2"], "--seed"),
])
def test_solve_exits_one_on_bad_seed(capsys, args, flag):
    assert main(["solve", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and "Traceback" not in err


def test_escape_counts_partition(tmp_path, capsys):
    out = tmp_path / "esc.json"
    code = main(["escape", "--config", experiment(tmp_path), "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert sum(summary["basins"].values()) == summary["num_inits"] == 8
    assert summary["fraction_at_saddle"] == 0.0
    labels = {c["label"] for c in summary["clusters"]}
    assert "StrictSaddle" in labels  # injected analytic point


def test_escape_is_deterministic_and_refuses_workers(tmp_path):
    cfg = experiment(tmp_path, num_inits=6)
    out1, out2 = tmp_path / "esc1.json", tmp_path / "esc2.json"
    assert main(["escape", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["escape", "--config", cfg, "--out", str(out2), "--workers", "1"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with pytest.raises(SystemExit) as exc:
        main(["escape", "--config", cfg, "--workers", "3"])
    assert exc.value.code == 2


def _loop_aggregation(summary, saddle_radius):
    """Cluster and saddle assignment by the per-record loops that
    ``run_escape`` once used: the reference for its array version."""
    problem = benchmark2d()
    clusters = []
    for pt in BENCHMARK2D_STATIONARY:
        point = np.asarray(pt, dtype=float)
        clusters.append({"point": point, "label": _classify_label(problem, point), "count": 0})
    expected = []
    for rec in summary["records"]:
        limit = rec["limit_x"]
        best, best_dist = None, math.inf
        for j, cluster in enumerate(clusters):
            d = float(np.linalg.norm(limit - cluster["point"]))
            if d < best_dist:
                best, best_dist = j, d
        if best is None or best_dist > CLUSTER_RADIUS:
            clusters.append(
                {"point": limit.copy(), "label": _classify_label(problem, limit), "count": 0}
            )
            best, best_dist = len(clusters) - 1, 0.0
        clusters[best]["count"] += 1
        expected.append({"basin": f"cluster_{best}", "distance": best_dist,
                         "nearest_known_point": clusters[best]["point"]})
    saddle_points = [c["point"] for c in clusters if c["label"] == "StrictSaddle"]
    for rec, exp in zip(summary["records"], expected):
        exp["at_saddle"] = any(
            float(np.linalg.norm(rec["limit_x"] - p)) <= saddle_radius for p in saddle_points
        )
    basins = {f"cluster_{j}": c["count"] for j, c in enumerate(clusters)}
    fraction = sum(exp["at_saddle"] for exp in expected) / len(expected)
    return expected, basins, fraction


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
@pytest.mark.parametrize("saddle_radius", [1e-3, 0.95])
def test_run_escape_matches_loop_aggregation(algorithm, saddle_radius):
    # 40 iterations leave the limits unconverged, so they open new clusters;
    # they lie 0.82 to 1.02 from the saddle, so the wide radius splits them.
    exp = ExperimentConfig.from_dict({
        "problem": "benchmark2d",
        "solver": {"algorithm": algorithm, "max_iter": 40},
        "num_inits": 20,
        "init_box": [[-3, -3], [3, 3]],
        "seed": 7,
        "saddle_radius": saddle_radius,
    })
    summary = run_escape(exp)
    expected, basins, fraction = _loop_aggregation(summary, saddle_radius)
    assert summary["basins"] == basins and summary["fraction_at_saddle"] == fraction
    for rec, exp_rec in zip(summary["records"], expected):
        assert rec["basin"] == exp_rec["basin"]
        assert rec["distance"] == exp_rec["distance"]
        assert np.array_equal(rec["nearest_known_point"], exp_rec["nearest_known_point"])
        assert rec["at_saddle"] is exp_rec["at_saddle"]
    assert len(basins) > len(BENCHMARK2D_STATIONARY)
    assert any(rec["distance"] > 0.0 for rec in summary["records"])
    assert 0.0 < fraction < 1.0 if saddle_radius > 0.5 else fraction == 0.0


def test_escape_seed_changes_output(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["escape", "--config", experiment(tmp_path, num_inits=3, seed=1),
          "--out", str(out1)])
    main(["escape", "--config", experiment(tmp_path, num_inits=3, seed=2),
          "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_escape_with_random_perturbation(tmp_path):
    out = tmp_path / "pert.json"
    code = main(["escape", "--config",
                 experiment(tmp_path, num_inits=6, perturbation_scale=0.05),
                 "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["perturbation"] is not None
    for cluster in summary["clusters"]:
        if cluster["count"] > 0:
            assert cluster["label"] != "Degenerate"


def test_escape_explicit_perturbation_vector(tmp_path):
    out = tmp_path / "pv.json"
    code = main(["escape", "--config",
                 experiment(tmp_path, num_inits=4, perturbation=[0.01, -0.02]),
                 "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["perturbation"] == [0.01, -0.02]


def test_escape_rejects_bad_config(tmp_path, capsys):
    cfg = experiment(tmp_path, num_inits=0)
    assert main(["escape", "--config", cfg]) == 1
    cfg2 = experiment(tmp_path, init_box=[[3, 3], [-3, -3]])
    assert main(["escape", "--config", cfg2]) == 1


def test_parse_x0_forms():
    assert np.array_equal(parse_x0("zeros", 3, 0), np.zeros(3))
    assert np.allclose(parse_x0("1,2.5", 2, 0), [1.0, 2.5])
    assert np.allclose(parse_x0("[1, 2.5]", 2, 0), [1.0, 2.5])
    a = parse_x0("uniform:7", 2, 0)
    b = parse_x0("uniform:7", 2, 99)  # embedded seed wins
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 3.0)
    c = parse_x0("uniform", 2, 5)
    d = parse_x0("uniform:5", 2, 0)
    assert np.array_equal(c, d)
    with pytest.raises(ValueError):
        parse_x0("1,2,3", 2, 0)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="missing"):
        ExperimentConfig.from_dict({"problem": "benchmark2d"})
    with pytest.raises(ValueError, match="num_inits"):
        ExperimentConfig.from_dict({
            "problem": "benchmark2d", "solver": {"algorithm": "DIRL1"},
            "num_inits": 0, "init_box": [[-1], [1]], "seed": 0,
        })


def test_experiment_config_rejects_unknown_fields(tmp_path):
    with open(experiment(tmp_path, perturbaton=[0.1, 0.1])) as fh:
        data = json.load(fh)
    with pytest.raises(ValueError, match="perturbaton"):
        ExperimentConfig.from_dict(data)
    del data["perturbaton"]
    exp = ExperimentConfig.from_dict(dict(data, perturbation=None, perturbation_scale=0.0))
    assert exp.saddle_radius == 1e-3 and exp.perturbation_scale == 0.0


@pytest.mark.parametrize("scale", [-0.05, float("inf"), float("nan")])
def test_experiment_config_rejects_bad_perturbation_scale(tmp_path, scale):
    with open(experiment(tmp_path, perturbation_scale=scale)) as fh:
        data = json.load(fh)
    with pytest.raises(ValueError, match="perturbation_scale"):
        ExperimentConfig.from_dict(data)


@pytest.mark.parametrize("scale", [0.5, 0.0])
def test_experiment_config_refuses_perturbation_with_scale(tmp_path, capsys, scale):
    # Both set, one of them would go unused.
    data = _reloaded(tmp_path, perturbation=[0.1, 0.0], perturbation_scale=scale)
    both = "perturbation or perturbation_scale, not both"
    with pytest.raises(ValueError, match=both):
        ExperimentConfig.from_dict(data)
    with pytest.raises(ValueError, match=both):
        ExperimentConfig(**dict(data, solver=SolverConfig("DIRL1")))
    cfg = experiment(tmp_path, perturbation=[0.1, 0.0], perturbation_scale=scale)
    assert main(["escape", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == f"error: set {both}\n"


def _reloaded(tmp_path, **overrides):
    """An experiment config after a JSON round trip (inf/nan as Infinity/NaN)."""
    with open(experiment(tmp_path, **overrides)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -1e-3])
def test_experiment_config_rejects_bad_saddle_radius(tmp_path, radius):
    with pytest.raises(ValueError, match="saddle_radius"):
        ExperimentConfig.from_dict(_reloaded(tmp_path, saddle_radius=radius))


@pytest.mark.parametrize("field, value", [
    ("num_inits", float("inf")),
    ("num_inits", 3.9),
    ("num_inits", 3.0),
    ("num_inits", True),
    ("seed", 1.7),
    ("seed", False),
    ("seed", "11"),
])
def test_experiment_config_rejects_non_integer_counts(tmp_path, field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.from_dict(_reloaded(tmp_path, **{field: value}))


@pytest.mark.parametrize("box", [
    [[float("-inf"), -3], [3, 3]],
    [[-3, -3], [3, float("inf")]],
    [[-3, float("nan")], [3, 3]],
])
def test_experiment_config_rejects_non_finite_init_box(tmp_path, box):
    with pytest.raises(ValueError, match="init_box"):
        ExperimentConfig.from_dict(_reloaded(tmp_path, init_box=box))


@pytest.mark.parametrize("field, value", [
    ("saddle_radius", float("nan")),
    ("num_inits", float("inf")),
    ("seed", 1.7),
    ("init_box", [[-3, -3], [float("inf"), 3]]),
    ("init_box", [[-3, -3], [3, 3], [4, 4]]),  # three rows
    ("init_box", [[-3, -3, -3], [3, 3, 3]]),  # three wide on a 2-D problem
    ("perturbation", [float("nan"), 0.0]),
    ("saddle_radius", [1]),
    ("solver", 5),
    ("solver", {"algorithm": "DIRL1", "beta": "4"}),
    ("solver", {"algorithm": "DIRL1", "tol_step": None}),
    ("perturbation_scale", True),
    ("saddle_radius", True),
    ("saddle_radius", "0.1"),
    ("problem", 12345),  # open() takes an int as a file descriptor; no live one here
    ("init_box", [[True, -3], [3, 3]]),  # numpy casts the bool to 1
    ("seed", -5),
    ("num_inits", 10**400),
])
def test_escape_exits_one_on_invalid_config(tmp_path, capsys, field, value):
    cfg = experiment(tmp_path, **{field: value})
    assert main(["escape", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_escape_counts_non_finite_start_as_failed(tmp_path):
    exp = ExperimentConfig.from_dict({
        "problem": "benchmark2d",
        "solver": {"algorithm": "DIRL1"},
        "num_inits": 2,
        "init_box": [[1e200, 1e200], [2e200, 2e200]],
        "seed": 0,
    })
    with np.errstate(over="ignore"):
        summary = run_escape(exp)
    assert summary["basins"]["failed"] == 2
    assert all("not finite" in rec["error"] for rec in summary["records"])
    assert [rec["iteration"] for rec in summary["records"]] == [0, 0]


def _failed_iterations(summary):
    """Each failed record's iteration, checked against the one its message names."""
    out = []
    for rec in summary["records"]:
        assert rec["basin"] == "failed"
        assert rec["error"].split(" at iteration ")[1].startswith(f"{rec['iteration']}:")
        out.append(rec["iteration"])
    return out


@pytest.mark.parametrize("algorithm", ["DIRL1", "DIRL2"])
def test_escape_failed_start_keeps_its_iteration(tmp_path, algorithm):
    # f = -x1^2/2 + x2^2: the x1 = 1e154 start is finite, and F(x, eps) runs to
    # -inf after a few steps along the unbounded direction. A descent check
    # that let -inf through would fail the start one iteration later.
    spec = {"smooth": {"kind": "quadratic", "A": [[-1.0, 0.0], [0.0, 2.0]], "b": [0.0, 0.0]},
            "regularizer": {"family": "LOG", "p": 1.0}, "lambda": 1.0}
    exp = ExperimentConfig.from_dict({
        "problem": write_json(tmp_path / "unbounded.json", spec),
        "solver": {"algorithm": algorithm},
        "num_inits": 1,
        "init_box": [[1e154, 0], [1.2e154, 1]],
        "seed": 0,
    })
    with np.errstate(over="ignore"):
        summary = run_escape(exp)
    assert _failed_iterations(summary) == [11]
    assert "not finite" in summary["records"][0]["error"]


def test_escape_telescope_failure_keeps_its_iteration(monkeypatch):
    # an understated L raises the telescoped bound above the drop the run achieves
    monkeypatch.setattr(solvers, "validate_config",
                        lambda config, problem: ValidationReport(lipschitz_gradient=-50.0))
    exp = ExperimentConfig.from_dict({
        "problem": "benchmark2d",
        "solver": {"algorithm": "DIRL1"},
        "num_inits": 2,
        "init_box": [[-3, -3], [3, 3]],
        "seed": 0,
    })
    summary = run_escape(exp)
    assert summary["basins"]["failed"] == 2
    assert all(k > 0 for k in _failed_iterations(summary))
    assert all(rec["error"].startswith("telescoped descent bound violated at iteration ")
               for rec in summary["records"])


def test_run_escape_records_structure(tmp_path):
    exp = ExperimentConfig.from_dict({
        "problem": "benchmark2d",
        "solver": {"algorithm": "DIRL2"},
        "num_inits": 4,
        "init_box": [[-2, -2], [2, 2]],
        "seed": 3,
    })
    summary = run_escape(exp)
    assert len(summary["records"]) == 4
    for rec in summary["records"]:
        assert rec["converged"]
        assert rec["distance"] <= 1e-3
        assert rec["basin"].startswith("cluster_")


def test_solve_trace_full_needs_out(capsys):
    assert main(["solve", "--x0", "3,3", "--trace-full"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --trace-full needs --out\n" and captured.out == ""


@pytest.mark.parametrize("command", ["solve", "escape"])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "run")
    if command == "solve":
        argv = ["solve", "--x0", "3,3", "--out", out]
    else:
        argv = ["escape", "--config", experiment(tmp_path, num_inits=2), "--out", out + ".json"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if not line.startswith("warning: ")] == [
        f"error: [Errno 2] No such file or directory: '{out}.json'"
    ]


def test_solve_states_jsonl_is_json_dumps_of_the_trace(tmp_path):
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 5))
    spec = {"smooth": {"kind": "least_squares", "A": A.tolist(),
                       "b": (A @ [1.0, 0.0, -2.0, 0.0, 0.0]).tolist()},
            "regularizer": {"family": "LPN", "p": 0.5}, "lambda": 0.05}
    problem = write_json(tmp_path / "lsq.json", spec)
    x0 = "[0.0, -0.0, 1.5, -2.0, 1e-300]"
    out = tmp_path / "run"
    # a scalar eps0 keeps every eps row uniform; a tuple that mixes repeated
    # and distinct values keeps none uniform
    for fields in ({"algorithm": "DIRL2", "max_iter": 300},
                   {"algorithm": "DIRL1", "max_iter": 300, "eps0": [1.0, 1.0, 0.5, 1.0, 0.25]}):
        cfg = write_json(tmp_path / "s.json", fields)
        assert main(["solve", "--config", cfg, "--problem", problem, "--x0", x0,
                     "--out", str(out), "--trace-full"]) in (0, 2)
        trace = run(SolverConfig.from_dict(fields), load_problem(problem),
                    parse_x0(x0, 5, 0), trace_full=True)
        want = "".join(json.dumps({"k": k, "x": x.tolist(), "eps": eps.tolist()}) + "\n"
                       for k, (x, eps) in enumerate(trace.states))
        got = (tmp_path / "run.states.jsonl").read_bytes()
        assert got == want.encode()
        assert got.startswith(b'{"k": 0, "x": [0.0, -0.0, 1.5, -2.0, 1e-300], "eps": [')
        assert len(set(trace.states[-1][1].tolist())) == (1 if "eps0" not in fields else 3)


def test_experiment_config_bounds_num_inits(tmp_path):
    assert ExperimentConfig.from_dict(_reloaded(tmp_path, num_inits=MAX_NUM_INITS)).num_inits \
        == MAX_NUM_INITS
    with pytest.raises(ValueError, match=f"num_inits must be at most {MAX_NUM_INITS}"):
        ExperimentConfig.from_dict(_reloaded(tmp_path, num_inits=MAX_NUM_INITS + 1))


def test_tail_sample_points_are_iterates(bench):
    # the L_S points of `dirw solve` are states the solver reached, not a
    # replay of the eps schedule
    trace = run(SolverConfig("DIRL2"), bench, np.array([3.0, 3.0]), trace_full=True)
    assert trace.converged and trace.iterations >= TAIL_WINDOW
    first = trace.iterations - (TAIL_WINDOW - 1)
    want = [np.concatenate(trace.states[k])
            for k in (first, first + 15, first + 31, first + 47, first + 63)]
    assert [v.tobytes() for v in _tail_sample_points(trace)] == [v.tobytes() for v in want]
