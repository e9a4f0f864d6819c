"""pwlkit: piecewise-linear models, transforms, fitting, and network analysis.

Every public name is imported from its submodule when it is first read
(PEP 562), so ``import pwlkit`` loads no submodule and a caller compiles
only the submodules whose names it uses.
"""

import importlib as _importlib

__version__ = "0.1.0"

# submodule -> the public names the package takes from it
_EXPORTS = {
    "affine": ("AffineFunction", "affine_zero"),
    "conventional": ("ConventionalPWL", "ContinuityReport", "Halfspace", "Region",
                     "box_region", "check_consistent_variation", "check_continuity"),
    "errors": ("BudgetExceededError", "ConstructionError", "CoverageGapError",
               "DcSizeError", "DegenerateSplitError", "DimensionMismatchError",
               "DiscontinuousModelError", "NonFiniteLossError",
               "NotCplrRepresentableError", "ParseError", "PwlError",
               "SingularSystemError"),
    "models": ("AhhBasis", "AhhModel", "CplrExpr", "CplrModel", "GhhModel",
               "HingeModel", "HlCplrBasis", "LatticeModel", "NestedCplrModel",
               "SbfModel"),
    "transforms": ("DCForm", "EquivalenceReport", "check_equivalence",
                   "cplr_from_consistent", "dc_abs", "dc_from_affine", "dc_from_model",
                   "dc_max", "dc_min", "dc_negate", "dc_prune", "dc_scale", "dc_sum",
                   "ghh_from_dc", "lattice_from_conventional"),
    "learning": ("Dataset", "FitConfig", "FitTrace", "find_hinge", "fit_ahh", "fit_hh",
                 "fit_sbf", "least_squares"),
    "network": ("ActivationPattern", "Layer", "PwlNetwork", "TrainConfig",
                "activation_pattern", "backward", "count_regions", "gradient_check",
                "init_params", "local_affine_map", "make_activation", "masked_forward",
                "network_from_sizes", "train_sgd", "zaslavsky_bound"),
    "formats": ("deserialize", "load_model", "save_model", "serialize"),
}

# public name -> its submodule; a submodule's own name maps to itself
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
