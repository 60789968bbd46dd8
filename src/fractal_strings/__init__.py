"""Numerics for one-dimensional fractal strings with regularly varying
gauge functions: gauge calculus, Karamata-type estimates, tube volumes and
generalized contents, Dirichlet spectra, and a joint verification harness.
"""

from .errors import ConstructionError, DomainError, EvaluationError, NumericError
from .gauge import (DerivedFunctions, GaugeFunction, check_H1, check_H2,
                    check_H3, gauge_from_json, gauge_to_json,
                    make_derived, power_log)
from .geometry import (ContentEstimate, ScaleGrid, cantor_grid,
                       content_estimates, dimension_estimate, tube_volume)
from .harness import (ExperimentConfig, VerificationReport, bundled_examples,
                      run_verify)
from .karamata import (RatioVerdict, RepresentationDecomposition,
                       classify_ratio, extract_representation,
                       karamata_direct, rv_defect, tail_sum_rv)
from .spectral import (SpectralRecord, ZetaContext, eigen_count, eta,
                       packing_defect, records_to_csv,
                       remainder_identity_check, second_term_probe,
                       spectral_point, w_k, weyl_term, zeta, zeta_from_wk)
from .strings import (AnalyticString, ExplicitString, FractalString,
                      RunLengthString, make_a_string, make_cantor,
                      make_interval, make_profile, string_from_json)

__version__ = "0.1.0"

__all__ = [
    "AnalyticString", "ConstructionError", "ContentEstimate",
    "DerivedFunctions", "DomainError", "EvaluationError", "ExperimentConfig",
    "ExplicitString", "FractalString", "GaugeFunction", "NumericError",
    "RatioVerdict", "RepresentationDecomposition", "RunLengthString",
    "ScaleGrid", "SpectralRecord", "VerificationReport", "ZetaContext",
    "bundled_examples", "cantor_grid", "check_H1", "check_H2", "check_H3",
    "classify_ratio", "content_estimates", "dimension_estimate", "eigen_count", "eta", "extract_representation",
    "gauge_from_json", "gauge_to_json", "karamata_direct", "make_a_string",
    "make_cantor", "make_derived", "make_interval", "make_profile",
    "packing_defect", "power_log", "records_to_csv",
    "remainder_identity_check", "rv_defect", "run_verify",
    "second_term_probe", "spectral_point", "string_from_json", "tail_sum_rv",
    "tube_volume", "w_k", "weyl_term", "zeta", "zeta_from_wk",
]
