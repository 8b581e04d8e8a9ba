"""The public surface: `vnag.__all__` is exactly this list, each name binds
under `from vnag import *`, and each function and class says what it is.
A numpy deprecation met inside vnag fails the suite."""
import inspect
import warnings

import pytest

import vnag

SURFACE = [
    "BregmanParams", "Classification", "ConfigError", "ConjugateReport",
    "Constant", "DampingSchedule", "IdealScalingReport", "LagrangianSpec",
    "NumericalError", "Perturbation", "Polynomial1D", "Potential",
    "QuadraticDiagonal", "TimeFunction", "Trajectory", "Vanishing", "action",
    "bessel_j1", "bessel_y1", "check_ideal_scaling", "classify",
    "conjugate_points_along", "conjugate_points_bessel",
    "conjugate_points_shooting", "constant_damping_solution", "el_residual",
    "epsilon_star", "first_conjugate_time", "first_variation", "fourier_sine",
    "integrate_flow", "integrate_gradient_flow", "jacobi_closed_vanishing",
    "jacobi_solution", "nesterov_recovering_params", "perturb_curve",
    "saddle_witness", "scale", "second_variation", "sinusoid",
    "sinusoid_d2j_closed", "triangle", "triangle_d2j_closed",
]


def test_all_is_the_surface():
    assert sorted(vnag.__all__) == SURFACE


def test_star_import_binds_every_name():
    namespace = {}
    exec("from vnag import *", namespace)
    missing = [name for name in SURFACE if name not in namespace]
    assert not missing


def _written_doc(obj) -> str:
    """The docstring obj defines itself; a dataclass without one gets its
    signature, which does not count."""
    doc = (obj.__dict__.get("__doc__") if inspect.isclass(obj) else obj.__doc__) or ""
    if inspect.isclass(obj) and doc.startswith(obj.__name__ + "("):
        return ""
    return doc.strip()


def test_functions_and_classes_have_docstrings():
    objs = {name: getattr(vnag, name) for name in SURFACE}
    bare = [name for name, obj in objs.items()
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and not _written_doc(obj)]
    assert not bare


def test_deprecations_in_vnag_are_errors():
    # pyproject's filterwarnings turn a deprecation or future warning that
    # a vnag module meets into an error, and leave other modules' alone
    for category in (DeprecationWarning, FutureWarning):
        with pytest.raises(category):
            warnings.warn_explicit("deliberate", category, "dynamics.py", 1, module="vnag.dynamics")
        with pytest.warns(category):
            warnings.warn_explicit("deliberate", category, "other.py", 1, module="other")
