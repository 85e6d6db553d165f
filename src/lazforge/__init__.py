"""lazforge: construction and exhaustive certification of low-ambiguity-zone
sequence sets built from locally perfect nonlinear functions."""

from .ambiguity import (
    AFWitness,
    ThetaReport,
    af_grid,
    direct_af,
    structural_af,
    theta_max,
)
from .bounds import (
    BoundReport,
    aperiodic_lower_bound,
    asymptotic_rho,
    classify_regime,
    optimality_factor,
    periodic_lower_bound,
)
from .construct import (
    LazParams,
    build_laz_set,
    factor_interleaved,
    power_map_params,
    predicted_params,
)
from .errors import PreconditionError
from .hgen import (
    HReport,
    bjorck_shifts,
    dft_submatrix,
    legendre_shifts,
    make_hmatrix,
    msequence_shifts,
    supported_orders,
    verify_h_constraints,
)
from .lpnf import (
    ZFunc,
    diff_table,
    is_lpnf,
    is_pnf,
    lpnf_zone_for,
    nonlinearity_measure,
    nonlinearity_witness,
    power_lpnf,
    quad_lpnf,
)
from .seqcore import (
    SequenceSet,
    Zone,
    load_sequence_set,
    save_sequence_set,
)
from .verify import (
    DistinctReport,
    LazCertificate,
    TableCheck,
    certify_laz,
    cyclic_distinct,
    empirical_zone,
    reproduce_table,
)

__version__ = "0.1.0"
