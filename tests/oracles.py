"""Reference forms that the package's fast paths are tested against.

These are slow on purpose: each one computes its quantity the direct
way, so a test can compare the optimized form in `src/` against it.
"""

import numpy as np

from pacedseg.contrastive import NEG_PAD


def gather_contrast_loss_node(tape, zsn_node, batch, z1_node=None, z2_node=None):
    """The gather form of `contrast_loss_node`.

    Every anchor's K negatives are gathered into a (P*K, F) block,
    normalized and dotted with their anchor one row at a time; entries
    past an anchor's count are masked with -inf before the log-sum-exp.
    """
    p_count = batch.n_positives
    if p_count == 0:
        return tape.input(0.0)
    k = batch.neg_idx.shape[1]
    f = batch.z1.shape[1]
    tau = batch.tau

    flat = tape.reshape(zsn_node, (-1, f))
    gather_idx = np.where(batch.neg_idx == NEG_PAD, 0, batch.neg_idx).ravel()
    negs = tape.row_normalize(tape.take_rows(flat, gather_idx))        # (P*K, F)
    pad = np.where(batch.neg_idx == NEG_PAD, -np.inf, 0.0)
    owner = np.repeat(np.arange(p_count), k)                            # anchor of each row

    z1n = tape.row_normalize(z1_node if z1_node is not None else tape.input(batch.z1))
    z2n = tape.row_normalize(z2_node if z2_node is not None else tape.input(batch.z2))
    s12 = tape.scale(tape.rows_dot(z1n, z2n), 1.0 / tau)               # (P,)
    s12_col = tape.reshape(s12, (p_count, 1))

    def direction(anchor_n):
        dots = tape.rows_dot(tape.take_rows(anchor_n, owner), negs)     # (P*K,)
        sims = tape.add_const(tape.scale(tape.reshape(dots, (p_count, k)), 1.0 / tau), pad)
        logits = tape.concat([s12_col, sims], axis=1)
        return tape.sum(tape.sub(tape.logsumexp(logits), s12))

    total = tape.add(direction(z1n), direction(z2n))
    return tape.reshape(tape.scale(total, 1.0 / p_count), ())
