"""Build a SparseTensor from a nested n x n table of n-vectors, for tests
that write a tensor out entry by entry."""

from cpslie.linalg import SparseTensor
from examples import from_cols


def tensor_from_table(table) -> SparseTensor:
    """The tensor with T[i][j] = table[i][j]: column i*n + j of its side layout."""
    return SparseTensor(from_cols([v for row in table for v in row]))
