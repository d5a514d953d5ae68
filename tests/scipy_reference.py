"""The one bridge from the package's numpy CSR arrays to scipy, for tests
that check them against scipy (dense form, stored entries, csgraph, ARPACK)."""
import scipy.sparse as sp


def scipy_csr(a):
    """scipy's `csr_array` over the three arrays of a `Csr` (a square matrix)."""
    n = len(a.indptr) - 1
    return sp.csr_array((a.data, a.indices, a.indptr), shape=(n, n))
