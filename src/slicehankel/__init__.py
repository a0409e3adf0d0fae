"""Quaternionic slice functions, Hankel operators and best bounded-regular
approximation."""

from .quat import (
    REFERENCE_UNIT,
    BoundaryPoint,
    ImaginaryUnit,
    Quaternion,
    exp_unit,
    sample_sphere,
)
from .series import (
    SliceLaurentSeries,
    bmo_norm,
    conj_c,
    dumps_series,
    evaluate,
    extend_from_slice,
    l2_inner,
    l2_norm,
    linf_norm,
    load_series,
    loads_series,
    project_minus,
    project_plus,
    recip_star_at,
    save_series,
    sphere_sup,
    star_eval,
    star_mul,
    symmetrize,
)
from .hankel import (
    HankelMatrix,
    QuaternionMatrix,
    apply_H,
    apply_gamma,
    bilinear_form,
    build_hankel_matrix,
    commutation_residual,
    complex_embed,
    deembed_vector,
    dump_matrix,
    embed_vector,
    hankel_from_symbol,
    load_matrix,
    operator_norm,
    shift_S,
    shift_S_adj,
    shift_T,
    shift_T_adj,
    top_singular_pair,
)
from .nehari import (
    ApproximationReport,
    ConstructiveResult,
    NehariReport,
    OptimizeResult,
    approximation_report,
    constructive_best_approx,
    hankel_norm,
    maximizing_vector,
    optimize_distance,
    verify_nehari_bounds,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += ["ExperimentConfig", "main"]


def __getattr__(name):
    # cli is imported on first use, so `python -m slicehankel.cli` does not
    # find it already in sys.modules after the package import
    if name in ("ExperimentConfig", "main"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
