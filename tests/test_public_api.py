"""The package's public surface.

Each module's ``__all__`` is the one declaration of what it makes public,
and ``recinacc`` re-exports exactly those names, the same objects.
"""

import ast
from pathlib import Path

import pytest

import recinacc
from recinacc import distributions, errors, measures, numerics, oracle, record_measures, records

MODULES = (distributions, errors, measures, numerics, oracle, record_measures, records)

PUBLIC = {
    "ConsistencyError", "ContaminationError", "DEFAULT_QUADRATURE", "DivergenceError",
    "DomainError", "Distribution", "GENERATOR_NAME", "IntegrandError", "IntegrationResult",
    "McConfig", "MeasureResult", "NonConvergenceError", "ParameterError", "QuadratureConfig",
    "QuadratureError", "RecinaccError", "RecordDistribution", "RecordMeasureRequest",
    "RecordSpec", "StreamCapError", "SupportError", "UnsupportedMethodError",
    "affine_transform", "compute_record_measure", "cumulative_past_extropy",
    "cumulative_past_extropy_inaccuracy", "cumulative_past_inaccuracy",
    "cumulative_residual_extropy", "cumulative_residual_extropy_inaccuracy",
    "cumulative_residual_inaccuracy", "digamma", "extropy_inaccuracy", "gamma_expectation",
    "gamma_transform_point", "integrate", "kerridge", "kerridge_record", "kl_divergence",
    "log_gamma", "make_custom", "make_exponential", "make_pareto", "make_power_decreasing",
    "make_power_increasing", "make_uniform01", "make_weibull", "mc_measure",
    "past_inaccuracy_cdf_difference_form", "past_record_inaccuracy", "record_cdf",
    "record_distribution", "record_log_pdf", "record_pdf", "record_survival",
    "relative_information", "residual_inaccuracy_hazard_forms",
    "residual_inaccuracy_mean_difference_form", "residual_record_inaccuracy", "sample_record",
    "scale_shift_check", "shannon_entropy", "stream_extract_records", "stream_record_sample",
}


def test_surface_is_pinned():
    assert len(PUBLIC) == 63
    assert set(recinacc.__all__) == PUBLIC
    assert len(recinacc.__all__) == len(PUBLIC)  # no name declared by two modules


def test_init_star_imports_exactly_these_modules():
    tree = ast.parse(Path(recinacc.__file__).read_text())
    starred = [
        node.module for node in tree.body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]
    assert starred == [m.__name__.removeprefix("recinacc.") for m in MODULES]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_is_reexported(module):
    for name in module.__all__:
        assert name in vars(module), f"{module.__name__}.__all__ names unbound {name}"
        assert name in recinacc.__all__, f"{module.__name__}.{name} is not re-exported"
        assert getattr(recinacc, name) is getattr(module, name)


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from recinacc import *", ns)
    del ns["__builtins__"]
    # so no submodule, np or math leaks into a caller's namespace
    assert set(ns) == set(recinacc.__all__)
