"""Reference states for the tests: reduced density matrices of explicit
states, which no command needs.

`partial_trace` gives a marginal, and `oracle_moment_matrix` the feasible
point of the moment SDP that a ring state defines.
"""

import numpy as np


def partial_trace(rho: np.ndarray, keep, d: int = 2) -> np.ndarray:
    """Marginal of a k-site operator on the listed sites, in the listed order.

    The output's j-th tensor factor is site keep[j]; trace and positivity are
    preserved.
    """
    rho = np.asarray(rho)
    dim = rho.shape[0]
    n = int(round(np.log(dim) / np.log(d)))
    if d ** n != dim or rho.shape != (dim, dim):
        raise ValueError("operator dimension is not a power of the local dimension")
    keep = list(keep)
    if len(set(keep)) != len(keep) or any(s < 0 or s >= n for s in keep):
        raise ValueError("keep sites must be distinct and in range")
    drop = [s for s in range(n) if s not in keep]
    t = rho.reshape([d] * (2 * n))
    # trace out dropped sites, highest axis first to keep indices stable
    for s in sorted(drop, reverse=True):
        t = np.trace(t, axis1=s, axis2=s + t.ndim // 2)
    # axes now correspond to sorted(keep); reorder to the requested order
    remaining = sorted(keep)
    perm = [remaining.index(s) for s in keep]
    k = len(keep)
    t = np.transpose(t, perm + [k + p for p in perm])
    return t.reshape(d ** k, d ** k)


def oracle_moment_matrix(state: np.ndarray, n_sites: int, window: int) -> np.ndarray:
    """Translation average of a ring state's `window`-site reduced states.

    `state` is a pure state vector on `n_sites` ring sites. The average is a
    feasible rho of `ti_moment_bound`: PSD with unit trace, and both of its
    (l-1)-site marginals are the ring's averaged (l-1)-site state.
    """
    state = np.asarray(state, dtype=complex).ravel()
    if state.size != 1 << n_sites:
        raise ValueError("state dimension does not match the site count")
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise ValueError("state vector is not normalized")
    if not 1 <= window <= n_sites:
        raise ValueError("window must fit on the ring")
    omega = np.outer(state, state.conj())
    return sum(partial_trace(omega, [(j + k) % n_sites for k in range(window)])
               for j in range(n_sites)) / n_sites
