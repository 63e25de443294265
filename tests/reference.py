"""The paper's designs for one channel draw, user by user, as an independent test reference.

Each step follows the paper as written, in per-user loops over public
``numpy`` calls, and imports nothing from ``pcia``: it shares no kernel,
cache, padding or batching with the code it checks, so the suite can
tell a right answer from a wrong one even where the package's output
bits move on purpose. A grid is a list of lists, ``blocks[k][l]``
carrying transmitter ``l`` into receiver ``k``, and filters are per-user
lists. Messages run at unit power split evenly over their streams, and a
silent user (zero streams) sends and receives nothing.

* :func:`paired_grid`: the ring rule. User ``k`` is served by stations
  ``k - 1`` and ``k`` (mod ``K``), their columns gathered in ascending
  station order.
* :func:`one_shot`: receive filters from the direct block's SVD, the
  reciprocal interference covariance, its ``eigh`` null space and the
  geometric ``|det|`` pick over :func:`itertools.combinations`.
* :func:`zero_forcing`: block diagonalization, one user at a time.
* :func:`leakage_loop`: alternating leakage minimization, one ``eigh``
  per user and half-iteration.
* :func:`closed_form`: Cadambe and Jafar's K=3 alignment.
* The scorers :func:`rates`, :func:`residual`, :func:`leakage` and
  :func:`signal_power`.
"""

import itertools

import numpy as np


def paired_grid(blocks, tx_antennas):
    """The paired-transmitter grid of a physical one: ``[i][k]`` is user ``i`` from ``k``'s pair."""
    users = len(tx_antennas)
    starts = np.cumsum((0, *tx_antennas))
    pairs = [sorted({(k - 1) % users, k}) for k in range(users)]
    columns = [[c for s in pair for c in range(starts[s], starts[s + 1])] for pair in pairs]
    return [[np.hstack(row)[:, cols] for cols in columns] for row in blocks]


def interference_covariance(blocks, transmit, dof, k):
    """What receiver ``k`` hears of every other message: ``sum (1/d_l) H_kl V_l V_l^H H_kl^H``."""
    size = blocks[k][k].shape[0]
    q = np.zeros((size, size), dtype=np.complex128)
    for l, v in enumerate(transmit):
        if l != k and dof[l]:
            g = blocks[k][l] @ v
            q += g @ g.conj().T / dof[l]
    return q


def reciprocal_covariance(blocks, receive, dof, k):
    """The same on the reciprocal network, at transmitter ``k``: ``sum (1/d_l) H_lk^H U_l U_l^H H_lk``."""
    size = blocks[k][k].shape[1]
    q = np.zeros((size, size), dtype=np.complex128)
    for l, u in enumerate(receive):
        if l != k and dof[l]:
            g = blocks[l][k].conj().T @ u
            q += g @ g.conj().T / dof[l]
    return q


def null_space(q, rank_tol=1e-9):
    """Eigenvectors of a Hermitian PSD ``q`` whose eigenvalues are at most ``rank_tol`` times the largest."""
    vals, vecs = np.linalg.eigh(q)
    return vecs[:, vals <= rank_tol * max(float(vals[-1]), 0.0)]


def geometric_pick(receive, direct, basis, d):
    """The ``d`` columns of ``basis`` that maximize ``|det(U^H H N_S)|``, scored as the
    product of eigenvalue moduli; a later subset wins only on a strictly larger score."""
    projected = receive.conj().T @ direct @ basis
    best, best_score = None, -np.inf
    for cols in itertools.combinations(range(basis.shape[1]), d):
        score = float(np.prod(np.abs(np.linalg.eigvals(projected[:, cols]))))
        if score > best_score:
            best, best_score = cols, score
    return basis[:, list(best)]


def one_shot(blocks, tx_antennas, dof, rank_tol=1e-9):
    """The one-shot design on a physical grid.

    Returns ``(paired, receive, bases, transmit)``: the paired grid, each
    user's ``d_k`` dominant left singular vectors of its direct block,
    the null space of its reciprocal covariance, and its precoder picked
    from that null space, ``None`` where it has fewer directions than
    streams.
    """
    paired = paired_grid(blocks, tx_antennas)
    receive = [np.linalg.svd(paired[k][k])[0][:, :d] for k, d in enumerate(dof)]
    bases = [null_space(reciprocal_covariance(paired, receive, dof, k), rank_tol)
             for k in range(len(dof))]
    transmit = [basis[:, :0] if d == 0 else None if basis.shape[1] < d
                else geometric_pick(receive[k], paired[k][k], basis, d)
                for k, (d, basis) in enumerate(zip(dof, bases))]
    return paired, receive, bases, transmit


def zero_forcing(blocks, rank_tol=1e-9):
    """Block diagonalization with every stream each null space allows.

    User ``k``'s precoder spans the null space of every other user's
    rows, singular values at most ``rank_tol`` times the largest counting
    as zero, and takes the dominant right singular directions of its own
    rows there. Returns ``(receive, transmit)``, or None when some user's
    null space is empty.
    """
    rows = [np.hstack(row) for row in blocks]
    receive, transmit = [], []
    for k, own in enumerate(rows):
        _, svals, vh = np.linalg.svd(np.vstack(rows[:k] + rows[k + 1:]))
        null = vh.conj().T[:, int(np.sum(svals > rank_tol * svals[0])):]
        if null.shape[1] == 0:
            return None
        d = min(own.shape[0], null.shape[1])
        u, _, wh = np.linalg.svd(own @ null)
        receive.append(u[:, :d])
        transmit.append(null @ wh.conj().T[:, :d])
    return receive, transmit


def leakage_loop(blocks, dof, max_iters, seed, leakage_tol=1e-8):
    """Alternating leakage minimization from a seeded random start.

    The start draws each user's ``n_k x d_k`` complex Gaussian in user
    order from ``np.random.default_rng(seed)`` and orthonormalizes it by
    QR. Each iteration gives every receiver the ``d_k`` least-interfered
    directions of its interference covariance, records the sum of those
    eigenvalues, stops once it is at most ``leakage_tol`` times the
    start's signal power, and otherwise gives every transmitter the
    ``d_k`` least-leaking directions of its reciprocal covariance.
    Returns ``(history, converged, receive, transmit)``.
    """
    rng = np.random.default_rng(seed)
    transmit = []
    for k, d in enumerate(dof):
        n = blocks[k][k].shape[1]
        raw = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        transmit.append(np.linalg.qr(raw)[0] if d else raw)
    threshold = leakage_tol * sum(float(np.linalg.norm(blocks[k][k] @ transmit[k]) ** 2) / d
                                  for k, d in enumerate(dof) if d)
    history = []
    for _ in range(max_iters):
        receive, total = [], 0.0
        for k, d in enumerate(dof):
            vals, vecs = np.linalg.eigh(interference_covariance(blocks, transmit, dof, k))
            receive.append(vecs[:, :d])
            total += float(np.sum(vals[:d]))
        history.append(total)
        if total <= threshold:
            return history, True, receive, transmit
        transmit = [np.linalg.eigh(reciprocal_covariance(blocks, receive, dof, k))[1][:, :d]
                    for k, d in enumerate(dof)]
    return history, False, receive, transmit


def closed_form(blocks, d):
    """Cadambe and Jafar's design for three ``M x M`` links at ``d = M / 2`` streams each.

    IEEE Trans. IT 54(8), 2008, with ``H_kl = blocks[k - 1][l - 1]``:
    ``V1`` spans ``d`` eigenvectors of ``E = H21^-1 H23 H13^-1 H12 H32^-1
    H31``, ``V2 = H32^-1 H31 V1`` and ``V3 = H23^-1 H21 V1``. Both
    interferers then reach each receiver in one ``d``-dimensional span,
    and its filter is the orthogonal complement. Returns ``E``'s
    eigenvectors, then the receive filters and precoders built on the
    first ``d`` of them.
    """
    def h(k, l):
        return blocks[k - 1][l - 1]

    inv = np.linalg.inv
    eigvecs = np.linalg.eig(inv(h(2, 1)) @ h(2, 3) @ inv(h(1, 3)) @ h(1, 2)
                            @ inv(h(3, 2)) @ h(3, 1))[1]
    v1 = eigvecs[:, :d]
    transmit = [np.linalg.qr(v)[0]
                for v in (v1, inv(h(3, 2)) @ h(3, 1) @ v1, inv(h(2, 3)) @ h(2, 1) @ v1)]
    receive = []
    for k in range(3):
        interference = np.hstack([blocks[k][l] @ transmit[l] for l in range(3) if l != k])
        receive.append(np.linalg.svd(interference)[0][:, d:])
    return eigvecs, receive, transmit


def rates(blocks, receive, transmit, powers, dof, noise_power):
    """Each user's rate with interference treated as noise, in bits per channel use.

    ``log2 det(Phi_k + S_k) - log2 det(Phi_k)``, where ``S_k`` is the
    filtered signal covariance at ``powers[k] / d_k`` per stream and
    ``Phi_k`` the filtered noise plus every other message's interference;
    a silent user's rate is 0.
    """
    out = []
    for k, u in enumerate(receive):
        if dof[k] == 0:
            out.append(0.0)
            continue
        phi = noise_power * (u.conj().T @ u)
        for l, v in enumerate(transmit):
            if l != k and dof[l]:
                e = u.conj().T @ blocks[k][l] @ v
                phi = phi + powers[l] / dof[l] * e @ e.conj().T
        e = u.conj().T @ blocks[k][k] @ transmit[k]
        signal = powers[k] / dof[k] * e @ e.conj().T
        out.append((np.linalg.slogdet(phi + signal)[1] - np.linalg.slogdet(phi)[1])
                   / np.log(2.0))
    return out


def residual(blocks, receive, transmit):
    """The worst cross link left after filtering, ``|U_k^H H_kl V_l| / (|U_k| |H_kl| |V_l|)``
    in Frobenius norms; silent users and zero-norm factors are skipped."""
    worst = 0.0
    for k in range(len(blocks)):
        for l in range(len(blocks)):
            if l == k or receive[k].shape[1] == 0 or transmit[l].shape[1] == 0:
                continue
            num = np.linalg.norm(receive[k].conj().T @ blocks[k][l] @ transmit[l], "fro")
            den = (np.linalg.norm(receive[k], "fro") * np.linalg.norm(blocks[k][l], "fro")
                   * np.linalg.norm(transmit[l], "fro"))
            if den > 0:
                worst = max(worst, float(num / den))
    return worst


def leakage(blocks, receive, transmit, dof):
    """Interference power at the filter outputs: ``sum (1/d_l) |U_k^H H_kl V_l|^2`` over ``l != k``."""
    return sum(float(np.linalg.norm(receive[k].conj().T @ blocks[k][l] @ transmit[l]) ** 2)
               / dof[l] for k in range(len(blocks)) for l in range(len(blocks))
               if l != k and dof[l])


def signal_power(receive_k, direct_block, transmit_k, power_k, dof_k):
    """Desired-signal power at the filter output, ``power_k`` split evenly over ``dof_k`` streams."""
    if dof_k == 0:
        return 0.0
    eff = receive_k.conj().T @ direct_block @ transmit_k
    return power_k / dof_k * float(np.real(np.trace(eff @ eff.conj().T)))
