"""Two-probability semantic information and degree-of-confirmation calculus.

The public names are loaded on first use (PEP 562): ``import semcal`` runs
only this file, and ``semcal.<name>`` imports the one submodule that defines
``name``, as does ``semcal.<submodule>``.  Without compiled bytecode each
import recompiles its module, and ``semcal doc`` needs about half of the
package and none of its search code, so a command pays only for the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

#: Submodule -> the public names it defines.
_EXPORTS = {
    "confirmation": ("ContingencyTable", "DocCase", "DocResult", "RateSpec", "doc_from_rates",
                     "doc_from_test", "doc_h1_from_table", "doc_h2_from_table", "gps_cep_doc",
                     "predicted_probability", "raven_increments"),
    "distributions": ("Alphabet", "Distribution", "bayes_invert", "kl_divergence",
                      "pointwise_info"),
    "estimation": ("channel_from_samples", "empirical_conditional", "gps_fit", "gps_objective",
                   "lag_distribution", "optimal_truth_function", "optimize_belief"),
    "estimation_types": ("GpsModel", "SampleSet"),
    "semantic_info": ("Channel", "average_semantic_info", "gkl_decomposition",
                      "pointwise_semantic_info", "semantic_mutual_info"),
    "truth_functions": ("BeliefAdjusted", "Crisp", "Gaussian", "Tabular", "TruthFunction",
                        "belief_adjust", "contradiction", "logical_probability", "negate",
                        "semantic_bayes", "tautology"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "reproduce"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
