"""The public names, the defaulted parameters and the dataclass fields and
properties of ``dirw`` are pinned.

A new export, parameter default, field or property has to be added to the
lists below on purpose, so a knob that nothing sets, a result field that
copies another, or a derived fact that is dropped or stored again, cannot
slip in unnoticed.
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
    "problems.Problem.perturbed_value_l1(_parts)",
    "problems.Problem.perturbed_value_l2(_parts)",
    "problems.SmoothTerm.__init__(c)",
    "regularizers.CustomRegularizer.__init__(second_derivative_at_zero)",
    "solvers.dirl1_step(_carry)",
    "solvers.dirl1_subproblem(_checked)",
    "solvers.dirl1_weights(_radius)",
    "solvers.dirl2_step(_carry)",
    "solvers.dirl2_subproblem(_checked)",
    "solvers.dirl2_weights(_radius)",
    "solvers.make_initial_state(_carry)",
    "solvers.run(record_every)",
    "solvers.run(trace_full)",
]

#: Every dataclass field in src/dirw, as module.Class.field.
FIELDS = [
    "analysis.SaddleReport.eigenvalues",
    "analysis.SaddleReport.pattern",
    "analysis.SaddleReport.restricted",
    "analysis.StationarityReport.is_stationary",
    "analysis.StationarityReport.margin_inactive",
    "analysis.StationarityReport.pattern",
    "analysis.StationarityReport.residual_active",
    "analysis.SupportPattern.active",
    "analysis.SupportPattern.inactive",
    "analysis.SupportPattern.signs",
    "cli.ExperimentConfig.init_box",
    "cli.ExperimentConfig.num_inits",
    "cli.ExperimentConfig.perturbation",
    "cli.ExperimentConfig.perturbation_scale",
    "cli.ExperimentConfig.problem",
    "cli.ExperimentConfig.saddle_radius",
    "cli.ExperimentConfig.seed",
    "cli.ExperimentConfig.solver",
    "jacobians.FixedPointJacobian.block_II",
    "jacobians.FixedPointJacobian.block_eigenvalues",
    "jacobians.FixedPointJacobian.config",
    "jacobians.FixedPointJacobian.off_IJ",
    "jacobians.FixedPointJacobian.off_Ieps",
    "jacobians.FixedPointJacobian.saddle",
    "regularizers.Assumption1Report.derivative_at_zero_positive",
    "regularizers.Assumption1Report.derivative_nonincreasing",
    "regularizers.Assumption1Report.derivative_nonnegative",
    "regularizers.Assumption1Report.second_derivative_nonpositive",
    "regularizers.Assumption1Report.value_at_zero_ok",
    "regularizers.Assumption4Report.derivative_values",
    "regularizers.Assumption4Report.points",
    "regularizers.Assumption4Report.ratio_values",
    "regularizers.Assumption4Report.ratio_vanishes",
    "regularizers.Assumption4Report.weight_diverges",
    "solvers.IterateState.F_perturbed",
    "solvers.IterateState.center",
    "solvers.IterateState.eps",
    "solvers.IterateState.k",
    "solvers.IterateState.step",
    "solvers.IterateState.step_norm",
    "solvers.IterateState.x",
    "solvers.IterateState.y",
    "solvers.SolveTrace.config",
    "solvers.SolveTrace.converged",
    "solvers.SolveTrace.diagnostics",
    "solvers.SolveTrace.final_residual",
    "solvers.SolveTrace.limit_x",
    "solvers.SolveTrace.records",
    "solvers.SolveTrace.states",
    "solvers.SolverConfig.algorithm",
    "solvers.SolverConfig.alpha",
    "solvers.SolverConfig.beta",
    "solvers.SolverConfig.eps0",
    "solvers.SolverConfig.eps_decay",
    "solvers.SolverConfig.max_iter",
    "solvers.SolverConfig.mu",
    "solvers.SolverConfig.tol_eps",
    "solvers.SolverConfig.tol_step",
    "solvers.TraceRecord.F_perturbed",
    "solvers.TraceRecord.eps_inf",
    "solvers.TraceRecord.k",
    "solvers.TraceRecord.step_norm",
    "solvers.TraceRecord.support_bits",
    "solvers.ValidationReport.hard_errors",
    "solvers.ValidationReport.lipeomorphism_lhs",
    "solvers.ValidationReport.lipschitz_gradient",
    "solvers.ValidationReport.warnings",
]

#: Every property of a dataclass in src/dirw, as module.Class.name: the facts
#: that are read off the fields above instead of being stored beside them.
PROPERTIES = [
    "analysis.SaddleReport.classification",
    "analysis.SaddleReport.lambda_max",
    "analysis.SaddleReport.lambda_min",
    "analysis.SaddleReport.negative_definite",
    "analysis.SupportPattern.bits",
    "jacobians.FixedPointJacobian.active",
    "jacobians.FixedPointJacobian.alpha_below_beta_over_rho",
    "jacobians.FixedPointJacobian.consistent",
    "jacobians.FixedPointJacobian.detail",
    "jacobians.FixedPointJacobian.dimension",
    "jacobians.FixedPointJacobian.inactive",
    "jacobians.FixedPointJacobian.scalar_J",
    "jacobians.FixedPointJacobian.scalar_eps",
    "jacobians.FixedPointJacobian.spectrum",
    "regularizers.Assumption1Report.holds",
    "regularizers.Assumption4Report.holds",
    "solvers.IterateState.prox_center_inf",
    "solvers.SolveTrace.final_x",
    "solvers.SolveTrace.iterations",
    "solvers.SolverConfig.eps_factor",
    "solvers.ValidationReport.ok",
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


def _dataclasses(tree):
    """Each dataclass definition in ``tree``."""
    return (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and any(
        ast.unparse(d).startswith("dataclass") for d in node.decorator_list))


def _fields(tree, module):
    """module.Class.field for each annotated field of each dataclass in ``tree``."""
    for node in _dataclasses(tree):
        yield from (f"{module}.{node.name}.{stmt.target.id}"
                    for stmt in node.body if isinstance(stmt, ast.AnnAssign))


def _properties(tree, module):
    """module.Class.name for each property (or cached_property) of each
    dataclass in ``tree``."""
    for node in _dataclasses(tree):
        yield from (f"{module}.{node.name}.{stmt.name}" for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and any(
                        ast.unparse(d) in ("property", "cached_property")
                        for d in stmt.decorator_list))


def _found(walk):
    """Sorted names that ``walk(tree, module)`` yields over every module of dirw."""
    return sorted(name for path in SOURCE.glob("*.py")
                  for name in walk(ast.parse(path.read_text()), path.stem))


def test_public_names_are_pinned_and_resolve():
    assert sorted(dirw.__all__) == PUBLIC
    for name in dirw.__all__:
        assert hasattr(dirw, name), name


def test_defaulted_parameters_are_pinned():
    assert _found(lambda tree, module: _defaulted(tree, f"{module}.")) == DEFAULTED


def test_dataclass_fields_are_pinned():
    assert _found(_fields) == FIELDS


def test_dataclass_properties_are_pinned():
    assert _found(_properties) == PROPERTIES


#: The keywords that select the check-once path of the objective, weights,
#: subproblem and step, and the only functions that may pass them.
PRIVATE_KEYWORDS = {"_parts", "_radius", "_checked", "_carry"}
CHECK_ONCE_CALLERS = ["solvers._step", "solvers.make_initial_state", "solvers.run"]


def _private_callers(node, prefix):
    """module.qualname of each function under ``node`` that passes one of
    PRIVATE_KEYWORDS by name, once per call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _private_callers(child, prefix + child.name + ".")
            continue
        if isinstance(child, ast.Call) and any(
                kw.arg in PRIVATE_KEYWORDS for kw in child.keywords):
            yield prefix[:-1]
        yield from _private_callers(child, prefix)


def test_run_alone_feeds_the_check_once_path():
    """Only run, the first state it builds and its step pass the keywords
    that skip a check; any other caller takes the plain checks."""
    found = _found(lambda tree, module: _private_callers(tree, f"{module}."))
    assert sorted(set(found)) == CHECK_ONCE_CALLERS
