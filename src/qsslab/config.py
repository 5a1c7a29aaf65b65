"""Numerical tolerances and thresholds, in one place.

Every tolerance that decides a verdict or a success flag lives here so
reports can embed the exact configuration they ran under.
"""

TOLERANCES = {
    # structural checks
    "hermitian": 1e-10,
    "symmetric": 1e-10,
    "unitary": 1e-10,
    "trace_one": 1e-10,
    "positivity": -1e-10,
    # spectral bookkeeping
    "rank_cutoff_rel": 1e-10,  # eigenvalues below cutoff*max count as zero
    "reconstruction": 1e-9,
    # verdicts
    "ppt_min_eig": -1e-10,
    "concurrence_zero": 1e-9,
    # protocol simulation
    "probability_floor": 1e-12,  # outcomes below this get no post state
    # search success predicate; success also needs a post state of rank 1
    "success_probability": 1e-6,
    "success_purity": 1e-6,  # score only: margin is 1 at purity >= 1 - this
    "success_entanglement": 1e-3,
    # certificate weights never drop a member entirely
    "min_certificate_weight": 1e-6,
}
