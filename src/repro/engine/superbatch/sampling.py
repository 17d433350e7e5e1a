"""Count-level scheduler sampling for the super-batch engine.

A block sampler that *materializes* agent indices pays for
``Theta(sqrt(n))`` picks per block, an argsort to find the first
repeated agent and a shuffle to assign sampled states to pick slots, so
its per-interaction cost bottoms out at a constant.  This module samples
the same distributions without any agent arrays, following the
count-level ("unordered") formulation of Berenbrink et al.,
*Simulating Population Protocols in Sub-Constant Time per Interaction*:

* :func:`sample_run_length` draws the exact length of the
  collision-free prefix — the number of interactions before the first
  repeated agent — by inverting the birthday-process survival function
  with ``lgamma`` arithmetic.  O(log n) time, no arrays at all.
* :func:`sample_run_pairs` draws the multiset of ordered (initiator,
  responder) *state pairs* realized by a collision-free run of ``L``
  interactions straight from the count vector: a chain of scalar
  hypergeometric and multivariate-hypergeometric splits keyed on the
  modal ("dominant") state, with only the rare minority-minority
  residual matched through a short materialized permutation.  The
  result is a COO triple ``(pre0, pre1, weight)`` with at most
  ``min(S^2, L)`` entries — per-run work scales with the number of
  distinct states present, not with ``n``.
* :func:`split_pair_multiset` splits a pair multiset into the multiset
  realized by a uniformly random prefix — the primitive behind the
  engine's exact in-run monotone-leader truncation.

All three are pure functions of the generator passed in, so the engine
stays deterministic per seed.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GRID_WIDTH_BOUND",
    "sample_run_length",
    "sample_run_pairs",
    "split_pair_multiset",
]

#: Widest present-state support assembled through the dense pair grid
#: (zeroing a ``width^2`` int64 grid per block stays under ~1 MiB);
#: wider configurations fall back to unaggregated COO assembly.
GRID_WIDTH_BOUND = 362


def sample_run_length(
    rng: np.random.Generator, n: int, limit: int, stats=None
) -> tuple[int, bool]:
    """Length of the collision-free interaction run, capped at ``limit``.

    The uniform scheduler picks one ordered pair of distinct agents per
    interaction.  With every agent initially untouched, the probability
    that the first ``k`` interactions involve ``2k`` *distinct* agents
    is the birthday-process survival function

    ``S(k) = prod_{j<k} (n-2j)(n-2j-1) / (n(n-1))
           = [ (n)! / (n-2k)! ] / (n(n-1))^k``

    Returns ``(length, collided)`` where ``length`` is the exact number
    of leading collision-free interactions (inverse-CDF sampled via the
    ``lgamma`` form of ``S``, monotone bisection) and ``collided``
    reports whether interaction ``length + 1`` involves an
    already-touched agent (``False`` when the cap bit first: the prefix
    of a longer run is itself a collision-free run, so conditioning on
    ``length >= limit`` and keeping ``limit`` interactions is exact).

    A run longer than ``n // 2`` interactions is impossible (every agent
    is in play by then), so ``limit`` is clamped there.

    ``stats``, when given, is any object with ``bisection_calls`` and
    ``bisection_iters`` int attributes (duck-typed to avoid importing
    the engine's stats class); each survival-function evaluation counts
    as one iteration.
    """
    limit = min(limit, n // 2)
    if limit <= 0:
        return 0, False
    lgamma = math.lgamma
    log_nn = math.log(n) + math.log(n - 1)
    base = lgamma(n + 1)
    iters = 0

    def log_survival(k: int) -> float:
        nonlocal iters
        iters += 1
        return base - lgamma(n - 2 * k + 1) - k * log_nn

    try:
        ticket = rng.random()
        if ticket <= 0.0:
            return limit, False
        log_ticket = math.log(ticket)
        # S is strictly decreasing; find the largest k with S(k) > ticket.
        # Run lengths concentrate around sqrt(n), so bracket the answer by
        # doubling from 32 instead of bisecting the full (budget-sized) cap;
        # S(high // 2) > ticket always holds when the loop doubled.
        high = 32
        while high < limit and log_survival(high) > log_ticket:
            high *= 2
        if high >= limit:
            if log_survival(limit) > log_ticket:
                return limit, False
            high = limit
        low = high // 2 if high > 32 else 0
        while high - low > 1:
            mid = (low + high) // 2
            if log_survival(mid) > log_ticket:
                low = mid
            else:
                high = mid
        return low, True
    finally:
        if stats is not None:
            stats.bisection_calls += 1
            stats.bisection_iters += iters


def sample_run_pairs(
    rng: np.random.Generator,
    support: np.ndarray,
    pool: np.ndarray,
    pairs: int,
    stats=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordered state-pair multiset of a collision-free run, from counts.

    ``support`` holds the interned ids of the states present and
    ``pool`` their counts (aligned, all positive); ``pairs`` is the run
    length ``L``.  Conditioned on the run being collision-free, its
    ``2L`` agents are a uniform without-replacement sample of the
    population assigned uniformly to pick slots, so the ordered pair
    multiset factorizes into exchangeable splits:

    1. how many sampled agents carry the modal state (one scalar
       hypergeometric over the counts), how many of those landed in
       initiator slots, and how many modal initiators drew modal
       responders (two more scalar hypergeometrics);
    2. which minority states fill the remaining sample slots, split by
       role — responders under a modal initiator, initiators over a
       modal responder, and the two sides of minority-minority pairs —
       via a chain of multivariate-hypergeometric draws over the
       minority counts;
    3. the minority-minority matching, the only part with no count-level
       factorization: both sides are materialized (``O(L * minority
       fraction^2)`` entries, zero in the concentrated configurations
       that dominate large-``n`` runs) and matched with one random
       permutation.

    Returns ``(pre0, pre1, weight)`` — COO arrays of ordered pre-state
    ids with positive multiplicities summing to ``pairs``.  Up to
    :data:`GRID_WIDTH_BOUND` present states the entries are aggregated
    per distinct pair, so every array is bounded by ``min(S^2, L)``;
    wider supports fall back to per-residual-pair entries (never bounded
    by ``n`` either way).

    ``stats``, when given, is any object with ``residual_runs`` and
    ``residual_pairs`` int attributes; runs that needed the materialized
    minority-minority matching bump both.
    """
    width = support.shape[0]
    if width == 1:
        sid = np.asarray(support[:1], dtype=np.int64)
        return sid, sid, np.array([pairs], dtype=np.int64)
    slots = 2 * pairs
    modal = int(np.argmax(pool))
    modal_id = int(support[modal])
    total = int(pool.sum())
    modal_count = int(pool[modal])
    # Modal-state block structure: three scalar hypergeometrics.
    modal_sampled = int(
        rng.hypergeometric(modal_count, total - modal_count, slots)
    )
    if modal_sampled == slots:
        sid = np.array([modal_id], dtype=np.int64)
        return sid, sid, np.array([pairs], dtype=np.int64)
    modal_initiators = (
        int(rng.hypergeometric(modal_sampled, slots - modal_sampled, pairs))
        if modal_sampled
        else 0
    )
    modal_responders = modal_sampled - modal_initiators
    modal_modal = (
        int(
            rng.hypergeometric(
                modal_responders, pairs - modal_responders, modal_initiators
            )
        )
        if modal_initiators and modal_responders
        else 0
    )
    # Role sizes for the minority sample.
    under_modal = modal_initiators - modal_modal  # minority responders
    over_modal = modal_responders - modal_modal  # minority initiators
    residual = pairs - modal_initiators - over_modal  # minority-minority
    if stats is not None and residual:
        stats.residual_runs += 1
        stats.residual_pairs += residual
    if width > GRID_WIDTH_BOUND:
        return _sample_run_pairs_wide(
            rng,
            support,
            pool,
            pairs,
            modal,
            modal_modal,
            under_modal,
            over_modal,
            residual,
        )
    keep = np.ones(width, dtype=bool)
    keep[modal] = False
    remaining = pool[keep]
    # Minority positions mapped back into support-local indices (every
    # local index at or past the modal slot shifts up by one).
    minority_local = np.arange(width - 1, dtype=np.int64)
    minority_local += minority_local >= modal
    # Accumulate the whole pair multiset in one width x width grid
    # (width is the number of *present* states, so the grid stays tiny),
    # then compress to COO with a single nonzero scan at the end.
    grid = np.zeros(width * width, dtype=np.int64)
    grid[modal * width + modal] = modal_modal
    if under_modal:
        under_types = rng.multivariate_hypergeometric(remaining, under_modal)
        remaining = remaining - under_types
        grid[modal * width + minority_local] += under_types
    if over_modal:
        over_types = rng.multivariate_hypergeometric(remaining, over_modal)
        remaining = remaining - over_types
        grid[minority_local * width + modal] += over_types
    if residual:
        left_types = rng.multivariate_hypergeometric(remaining, residual)
        remaining = remaining - left_types
        right_types = rng.multivariate_hypergeometric(remaining, residual)
        # The only non-factorizing piece: match the two minority sides
        # with one permutation over O(residual) entries.
        left = np.repeat(minority_local, left_types)
        right = np.repeat(minority_local, right_types)
        grid += np.bincount(
            left * width + rng.permuted(right), minlength=width * width
        )
    cells = np.nonzero(grid)[0]
    pre0 = support[cells // width].astype(np.int64)
    pre1 = support[cells % width].astype(np.int64)
    return pre0, pre1, grid[cells]


def _sample_run_pairs_wide(
    rng: np.random.Generator,
    support: np.ndarray,
    pool: np.ndarray,
    pairs: int,
    modal: int,
    modal_modal: int,
    under_modal: int,
    over_modal: int,
    residual: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assembly fallback for supports too wide for the dense pair grid.

    Same draws as the grid path, but the residual matching is emitted
    as unaggregated unit-weight COO entries (aggregating would need a
    ``width^2`` table or a sort).  Downstream consumers only require a
    weighted pair multiset, not distinct entries.
    """
    width = support.shape[0]
    modal_id = int(support[modal])
    keep = np.ones(width, dtype=bool)
    keep[modal] = False
    remaining = pool[keep]
    minority_ids = support[keep]
    pre0_parts = []
    pre1_parts = []
    weight_parts = []
    if modal_modal:
        sid = np.array([modal_id], dtype=np.int64)
        pre0_parts.append(sid)
        pre1_parts.append(sid)
        weight_parts.append(np.array([modal_modal], dtype=np.int64))
    if under_modal:
        under_types = rng.multivariate_hypergeometric(remaining, under_modal)
        remaining = remaining - under_types
        present = np.nonzero(under_types)[0]
        pre0_parts.append(np.full(present.shape[0], modal_id, dtype=np.int64))
        pre1_parts.append(minority_ids[present])
        weight_parts.append(under_types[present])
    if over_modal:
        over_types = rng.multivariate_hypergeometric(remaining, over_modal)
        remaining = remaining - over_types
        present = np.nonzero(over_types)[0]
        pre0_parts.append(minority_ids[present])
        pre1_parts.append(np.full(present.shape[0], modal_id, dtype=np.int64))
        weight_parts.append(over_types[present])
    if residual:
        left_types = rng.multivariate_hypergeometric(remaining, residual)
        remaining = remaining - left_types
        right_types = rng.multivariate_hypergeometric(remaining, residual)
        pre0_parts.append(np.repeat(minority_ids, left_types))
        pre1_parts.append(rng.permuted(np.repeat(minority_ids, right_types)))
        weight_parts.append(np.ones(residual, dtype=np.int64))
    return (
        np.concatenate(pre0_parts),
        np.concatenate(pre1_parts),
        np.concatenate(weight_parts),
    )


def split_pair_multiset(
    rng: np.random.Generator, weights: np.ndarray, take: int
) -> np.ndarray:
    """Pair counts realized by a uniform ``take``-interaction prefix.

    The interactions of a collision-free run occur in uniformly random
    order, so the multiset of pair types among the first ``take`` of
    them is a multivariate-hypergeometric split of the run's pair
    counts.  Exchangeability makes repeated splitting consistent, which
    is what lets the engine bisect a run to the exact interaction where
    the leader count first hits a target.
    """
    return rng.multivariate_hypergeometric(weights, take)
