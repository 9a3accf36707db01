"""The public names and the defaulted parameters of ``dirw`` are pinned.

A new export or a new parameter default has to be added to the lists
below on purpose, so a knob that nothing sets cannot slip in unnoticed.
"""

import ast
import pathlib

import dirw

PUBLIC = [
    "BENCHMARK2D_SADDLE_X2",
    "BENCHMARK2D_STATIONARY",
    "ConfigValidationError",
    "CustomRegularizer",
    "FixedPointJacobian",
    "NonStationaryPointError",
    "NumericalFailure",
    "Problem",
    "Regularizer",
    "SaddleReport",
    "SmoothTerm",
    "SolveTrace",
    "SolverConfig",
    "StationarityReport",
    "benchmark2d",
    "check_assumption1",
    "check_assumption4",
    "classify_stationary_point",
    "dirl1_jacobian",
    "dirl2_jacobian",
    "finite_difference_jacobian",
    "load_problem",
    "run",
    "saddle_unstable_equivalence",
    "soft_threshold",
    "stationarity_residual",
    "support",
    "symmetric_eigen",
    "unstable_fixed_point_check",
    "validate_config",
]

#: Every parameter with a default in src/dirw, as module.function(parameter).
DEFAULTED = [
    "_rng.make_rng(index)",
    "analysis.classify_stationary_point(tol_residual)",
    "analysis.stationarity_residual(tol_residual)",
    "analysis.support(tol)",
    "cli.main(argv)",
    "errors.ConfigValidationError.__init__(report)",
    "errors.NumericalFailure.__init__(iteration)",
    "errors.real(high)",
    "errors.real(low)",
    "jacobians.dirl1_jacobian(eps_decay)",
    "jacobians.dirl2_jacobian(eps_decay)",
    "jacobians.finite_difference_jacobian(columns)",
    "jacobians.finite_difference_jacobian(h)",
    "problems.SmoothTerm.__init__(c)",
    "regularizers.CustomRegularizer.__init__(second_derivative_at_zero)",
    "selfcheck.check_concavity(regularizers)",
    "selfcheck.check_derivative_consistency(regularizers)",
    "solvers.run(record_every)",
    "solvers.run(trace_full)",
]

SOURCE = pathlib.Path(dirw.__file__).parent


def _defaulted(node, prefix):
    """module.qualname(parameter) for each defaulted parameter under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                args = child.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):] + [
                    arg for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                yield from (f"{name}({arg.arg})" for arg in with_default)
            yield from _defaulted(child, name + ".")
        else:
            yield from _defaulted(child, prefix)


def test_public_names_are_pinned_and_resolve():
    assert sorted(dirw.__all__) == PUBLIC
    for name in dirw.__all__:
        assert hasattr(dirw, name), name


def test_defaulted_parameters_are_pinned():
    found = sorted(
        name
        for path in SOURCE.glob("*.py")
        for name in _defaulted(ast.parse(path.read_text()), f"{path.stem}.")
    )
    assert found == DEFAULTED
