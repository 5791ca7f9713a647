"""Hand-built task data: the padded block a task takes, from per-client rows."""

import numpy as np


def padded(rows):
    """``(block, sizes)`` of the per-client ``(m_i, d)`` arrays ``rows``: the
    zero-padded ``(n, m_max, d)`` block, client i's rows first in
    ``block[i]``, and the data sizes ``m_i``."""
    sizes = [len(r) for r in rows]
    block = np.zeros((len(rows), max(sizes), np.shape(rows[0])[1]))
    for i, r in enumerate(rows):
        block[i, : sizes[i]] = r
    return block, sizes
