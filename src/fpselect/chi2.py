"""Chi-square upper-tail probabilities (`scipy.special.chdtrc`)."""

import math

from scipy.special import chdtrc

from .errors import DomainError


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability P(X > x), in [0, 1], of a chi-square variable
    with df degrees of freedom; x must be nonnegative or +inf and df a
    positive integer."""
    if not math.isfinite(x):
        if x == math.inf:
            return 0.0
        raise DomainError(f"statistic must be finite or +inf, got {x}")
    if x < 0.0:
        raise DomainError(f"statistic must be nonnegative, got {x}")
    df_int = int(df)
    if df_int != df or df_int < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {df}")
    return min(1.0, max(0.0, float(chdtrc(df_int, x))))
