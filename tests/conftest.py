from fractions import Fraction

import pytest

from cayleycubic import enumerate_solutions


@pytest.fixture(scope="session")
def s1_solutions_2000():
    """All canonical s=1 solutions with max component <= 2000.

    Shared between the closure tests and the search tests; the scan takes a
    couple of seconds, so compute it once per session.
    """
    return enumerate_solutions(1, 2000)


def chunk_sizes(*counts):
    """Sizes to patch into `triples._CHUNK_LINES` for writers of `counts` items: for
    each count n, n - 1, n and n + 1, and when n >= 3 the least k >= 2 that divides
    n and the least that leaves one item over."""
    sizes = set()
    for n in counts:
        sizes |= {n - 1, n, n + 1}
        if n >= 3:
            sizes.add(next(k for k in range(2, n + 1) if n % k == 0))
            sizes.add(next(k for k in range(2, n) if n % k == 1))
    return sorted(k for k in sizes if k >= 1)


def chunk_pieces(n, k, sep):
    """The pieces `triples._chunked` yields for n items in chunks of k: ceil(n / k)
    chunks, and with a separator one more piece between each two."""
    chunks = -(-n // k)
    return chunks + (max(chunks - 1, 0) if sep else 0)


def fraction_conjugate(s, comps, index):
    """Test-side oracle for the integer conjugation kernel: 2yz/s - x built
    as a Fraction, reduced to an int when integral and None otherwise."""
    y, z = (comps[j] for j in range(3) if j != index)
    conj = Fraction(2 * y * z, s) - comps[index]
    return int(conj) if conj.denominator == 1 else None
