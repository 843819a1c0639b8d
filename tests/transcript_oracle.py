"""Frozen 10-step single-tap RVSS-FLMS recurrence transcript.

Computed independently at 50-digit precision (mpmath), spreadsheet style,
before the package implementation was written.  The recurrence per step:

    e      = d - w*x
    w     <- w + nu*e*x*(1 + sign(w)*|w|**0.5)
    p     <- 0.5*p + 0.5*e*e_prev
    nu    <- clamp(0.5*nu + 20*p**2, 0.05, 0.09)
    e_prev <- e

Both clamp branches are exercised (upper five times, lower three times).
ROWS holds (error, weight, p, nu) after each step, to 17 significant
digits (more than double precision carries).
"""

CONFIG = dict(
    frac_order=0.5,
    nu_init=0.08,
    nu_f_init=0.0,
    nu_min=0.05,
    nu_max=0.09,
    alpha=0.5,
    beta=0.5,
    gamma=20.0,
    weight_init=0.1,
)

INPUTS = [1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0]

DESIRED = [0.81, -0.78, 0.805, 0.8, -0.815, 0.79, -0.8, -0.82, 0.795, 0.81]

ROWS = [
    (0.71000000000000005, 0.17476173710975641, 0.0, 0.050000000000000003),
    (-0.60523826289024362, 0.2176744959002081, -0.2148595833260365, 0.089999999999999997),
    (0.58732550409979195, 0.2951956123827606, -0.28516572558926562, 0.089999999999999997),
    (0.50480438761723944, 0.36531229382869497, 0.005659382919908156, 0.050000000000000003),
    (-0.44968770617130498, 0.40138648219238796, -0.11067247210644928, 0.089999999999999997),
    (0.38861351780761208, 0.4585202715554617, -0.14271359675825797, 0.089999999999999997),
    (-0.34147972844453834, 0.51006414801030821, -0.13770861764453905, 0.089999999999999997),
    (-0.30993585198969174, 0.5578800897917868, -0.015935903535936244, 0.050079060430133304),
    (0.23711991020821324, 0.57862423993708531, -0.044713932465019008, 0.065026245344792269),
    (0.23137576006291474, 0.60511444835091155, 0.0050749334927282129, 0.050000000000000003),
]

SIG_DIGITS_TOL = 1e-12


def check_transcript(step_fn, make_state, make_regressor, config_cls):
    """Replay the transcript through an implementation and compare per step.

    Values must agree to 12 significant digits (exact match for zeros).
    Returns the number of compared values.
    """
    cfg = config_cls(**CONFIG)
    state = make_state(cfg)
    compared = 0
    for n, (x, d, refs) in enumerate(zip(INPUTS, DESIRED, ROWS)):
        state, err = step_fn(state, make_regressor(x), d, cfg)
        got = (err, float(state.weights[0]), state.p, state.nu)
        for name, g, r in zip(("error", "weight", "p", "nu"), got, refs):
            if r == 0.0:
                assert g == 0.0, f"step {n} {name}: expected exact 0, got {g!r}"
            else:
                rel = abs(g - r) / abs(r)
                assert rel <= SIG_DIGITS_TOL, f"step {n} {name}: {g!r} vs {r!r} (rel {rel:.2e})"
            compared += 1
    return compared
