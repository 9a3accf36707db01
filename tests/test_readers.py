"""Every JSON object the package reads goes through ``errors.json_object``.

A key that no reader knows is refused in every object, an
``ExperimentConfig`` built in Python is checked like one read from JSON,
and the JSON examples in README.md load through the readers they document.
"""

import copy
import json
import math
import pathlib
import re

import pytest

from dirw.cli import ExperimentConfig, _jsonable, main, run_escape
from dirw.problems import benchmark2d, problem_from_dict
from dirw.regularizers import Regularizer
from dirw.solvers import SolverConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PROBLEM = benchmark2d().to_dict()
SOLVER = {"algorithm": "DIRL1"}
EXPERIMENT = {"problem": "benchmark2d", "solver": SOLVER, "num_inits": 3,
              "init_box": [[-3, -3], [3, 3]], "seed": 5}


def _with_key(data, path, key):
    """A copy of ``data`` with ``key`` set to 1 in the object at ``path``."""
    data = copy.deepcopy(data)
    target = data
    for step in path:
        target = target[step]
    target[key] = 1
    return data


@pytest.mark.parametrize("reader, data, path, key, argv", [
    (problem_from_dict, PROBLEM, (), "lamda", ["solve", "--problem"]),
    (problem_from_dict, PROBLEM, ("smooth",), "cc", ["solve", "--problem"]),
    (problem_from_dict, PROBLEM, ("regularizer",), "lam", ["solve", "--problem"]),
    (SolverConfig.from_dict, SOLVER, (), "bogus", ["solve", "--config"]),
    (ExperimentConfig.from_dict, EXPERIMENT, (), "perturbaton", ["escape", "--config"]),
    (ExperimentConfig.from_dict, EXPERIMENT, ("solver",), "betta", ["escape", "--config"]),
    (Regularizer.from_dict, PROBLEM["regularizer"], (), "q", None),
])
def test_every_object_refuses_an_unknown_key(tmp_path, capsys, reader, data, path, key, argv):
    data = _with_key(data, path, key)
    with pytest.raises(ValueError, match=f"unknown fields \\['{key}'\\]"):
        reader(data)
    if argv is None:
        return
    file = tmp_path / "input.json"
    file.write_text(json.dumps(data))
    assert main(argv + [str(file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and repr(key) in captured.err


@pytest.mark.parametrize("data, field", [
    ({"family": "LPN"}, "missing field 'p'"),
    ({"p": 0.5}, "missing field 'family'"),
    ([{"family": "LPN", "p": 0.5}], "regularizer must be a JSON object"),
    ({"family": "MCP", "p": 0.5}, "family must be one of"),
    ({"family": "LPN", "p": "0.5"}, "p must be"),
])
def test_regularizer_from_dict_names_the_field(data, field):
    with pytest.raises(ValueError, match=field):
        Regularizer.from_dict(data)


def _direct(**overrides):
    fields = dict(problem="benchmark2d", solver=SolverConfig("DIRL1"), num_inits=3,
                  init_box=([-3, -3], [3, 3]), seed=5)
    return ExperimentConfig(**dict(fields, **overrides))


@pytest.mark.parametrize("field, value", [
    ("num_inits", -3),
    ("seed", -1),
    ("saddle_radius", math.nan),
    ("solver", {"algorithm": "DIRL1"}),
    ("solver", "DIRL1"),
    ("init_box", ([-3, -3],)),
    ("perturbation", [[0.1, 0.1]]),
    ("perturbation_scale", -0.5),
])
def test_experiment_config_built_directly_is_checked(field, value):
    with pytest.raises(ValueError, match=field):
        _direct(**{field: value})


def test_experiment_config_built_directly_equals_the_json_one():
    exp = _direct()
    assert exp == ExperimentConfig.from_dict(EXPERIMENT)
    assert exp.init_box == ((-3.0, -3.0), (3.0, 3.0)) and exp.saddle_radius == 1e-3
    assert _jsonable(run_escape(exp)) == _jsonable(run_escape(ExperimentConfig.from_dict(EXPERIMENT)))


def test_readme_json_examples_load_through_their_readers():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    solver, experiment, problem = (json.loads(block) for block in blocks)
    assert SolverConfig.from_dict(solver) == SolverConfig("DIRL1")  # the defaults it shows
    exp = ExperimentConfig.from_dict(experiment)
    assert exp.solver == SolverConfig("DIRL1") and exp.num_inits == 1000 and exp.seed == 12345
    assert problem_from_dict(problem).to_dict() == benchmark2d().to_dict()
