"""The per-object evidence cache behind cross-query reuse.

Every detection query proves count facts about every object: the filter
proves *lower bounds* (Lemma 1 — Greedy-Counting never overstates), the
verifier proves lower bounds that are *exact* whenever early termination
did not fire, and MRPG's stored exact-K'NN lists (§5.5, Property 3)
yield exact counts at any radius.  All of these are monotone in ``r``:

* a lower bound proved at radius ``r`` holds at every ``r' >= r``
  (the neighbor ball only grows), and
* an exact count at radius ``r`` upper-bounds the count at every
  ``r' <= r`` (the ball only shrinks).

:class:`EvidenceCache` stores each side as one ``(radii x ids)`` int64
matrix over its ascending radii, the layout snapshots write.  Deciding
a whole dataset against a new ``(r, k)`` query is then one max over the
lower-bound rows at radii ``<= r``, one min over the upper-bound rows at
radii ``>= r`` and a compare: no graph traversal, no distance
computation.  Objects whose interval ``[lb, ub]`` still straddles ``k``
are the only ones the engine has to touch.

The monotonicity laws extend to *mutations* of the underlying
collection, which is what makes the cache repairable instead of
disposable (see ``docs/incremental.md``).  Both laws act on blocks:

* inserting objects can only **raise** neighbor counts, and only for
  objects within their radius — so every lower bound stays valid as-is,
  and the bounds of a touched object move up by the number of
  newcomers within ``r`` (:meth:`EvidenceCache.apply_insert_batch`);
* deleting objects can only **lower** counts — so every upper bound
  stays valid as-is, and the touched bounds move down by the number of
  victims within ``r`` (:meth:`EvidenceCache.apply_delete_batch`).

A repair computes its batch's distance block once
(:func:`distance_chunks`), places every distance among the sorted radii
with one ``searchsorted``, and takes cumulative counts over those
positions (:func:`radius_counts`): every radius's increment at once,
applied as one matrix add per side.

A budgeted eviction policy (``max_radii``) folds the most-dominated
radius of a side into its neighbor when a serving process accumulates
more distinct radii than its memory cap allows: lower bounds fold
upward (a bound at ``r`` is a bound at every larger radius), upper
bounds fold downward.  Eviction loses tightness, never soundness.
"""

from __future__ import annotations

import numpy as np

from ..core.result import ObjectEvidence
from ..data import pairs_per_kernel
from ..exceptions import ParameterError

#: sentinel upper bound: "nothing known" (any count fits below it).
NO_BOUND = np.iinfo(np.int64).max

#: the entry of a side that holds no evidence.
_VACUOUS = {"lb": 0, "ub": NO_BOUND}


def distance_chunks(dataset, sources, targets, bound):
    """Yield ``(lo, D)``: the ``sources x targets`` distances, in row blocks.

    Each block starts at source row ``lo`` and is one ``pair_dist``
    kernel of at most :func:`~repro.data.pairs_per_kernel` pairs.
    ``bound`` passes through: verdicts ``D <= r`` are exact at every
    ``r <= bound``.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    step = max(1, pairs_per_kernel(dataset) // max(1, targets.size))
    for lo in range(0, sources.size, step):
        rows = sources[lo:lo + step]
        yield lo, dataset.pair_dist(
            np.repeat(rows, targets.size),
            np.tile(targets, rows.size),
            bound=bound,
        ).reshape(rows.size, targets.size)


def radius_positions(radii, D, sources, targets) -> np.ndarray:
    """Where each distance of the block ``D`` falls among ``radii``.

    ``pos = np.searchsorted(radii, D)``, so ``D[x, c] <= radii[j]``
    exactly when ``pos[x, c] <= j``.  An object's pair with itself gets
    ``len(radii)`` and so counts at no radius: self is excluded by
    position, never by a distance value (``+inf`` is a legal radius).
    """
    pos = np.searchsorted(radii, D)
    pos[np.asarray(sources)[:, None] == np.asarray(targets)[None, :]] = len(radii)
    return pos


def radius_counts(pos: np.ndarray, m: int, cols=None, width=None) -> np.ndarray:
    """Per column of ``pos``, how many of its entries lie within each radius.

    ``pos`` comes from :func:`radius_positions` over ``m`` radii.
    Returns the ``(m, width)`` counts, column ``c`` of ``pos`` landing
    in column ``cols[c]`` (default: the identity over ``pos``'s
    columns): one histogram of the positions, cumulated over the radii.
    """
    if cols is None:
        cols = np.arange(pos.shape[1])
        width = pos.shape[1]
    flat = (pos * width + cols).ravel()
    hist = np.bincount(flat, minlength=(m + 1) * width)
    return hist.reshape(m + 1, width)[:m].cumsum(axis=0)


def _index_in(radii: np.ndarray, wanted: np.ndarray):
    """Positions of ``wanted`` in the ascending ``radii``, and which are there."""
    at = np.searchsorted(radii, wanted)
    found = at < radii.size
    found[found] = radii[at[found]] == wanted[found]
    return at, found


def build_delete_evidence(
    dataset,
    victims,
    survivors: np.ndarray,
    radii,
    known: "dict | None",
    n_total: int,
) -> tuple:
    """Reduce a delete batch to :meth:`EvidenceCache.apply_delete_batch` form.

    The one copy of the batched delete-repair law, run by every shard
    worker: victims without supplied bookkeeping are ranged against
    ``survivors`` in one distance block, victims with ``known``
    per-radius neighbor lists contribute those instead.  Returns
    ``(covered, dec)``: the radii of the ascending ``radii`` at which
    every victim has evidence, and ``dec[j, p]``, how many victims lie
    within ``covered[j]`` of object ``p``.  A radius some victim lacks
    evidence for is left out (the cache drops its lower-bound row).
    """
    known = known or {}
    radii = np.asarray(radii, dtype=np.float64)
    m = radii.size
    dec = np.zeros((m, n_total), dtype=np.int64)
    covered = np.ones(m, dtype=bool)
    scan = np.asarray(
        [v for v in victims if known.get(int(v)) is None], dtype=np.int64
    )
    if scan.size and survivors.size and m:
        # Only verdicts are consumed, and values within the largest
        # radius are exact, so one bound serves every radius.
        for lo, D in distance_chunks(dataset, scan, survivors, radii[-1]):
            pos = radius_positions(
                radii, D, scan[lo:lo + D.shape[0]], survivors
            )
            dec += radius_counts(pos, m, survivors, n_total)
    for v in victims:
        listed = known.get(int(v))
        if listed is None:
            continue
        listed = {float(r): np.asarray(w, dtype=np.int64) for r, w in listed.items()}
        hit = np.isin(radii, list(listed))
        covered &= hit
        for j in np.flatnonzero(hit):
            np.add.at(dec[j], listed[float(radii[j])], 1)
    return radii[covered], dec[covered]


class EvidenceCache:
    """Accumulated per-object neighbor-count bounds, indexed by radius.

    ``_lb[j]`` holds the lower bounds proved at ``_lb_radii[j]`` and
    ``_ub[j]`` the upper bounds at ``_ub_radii[j]``; each side's radii
    are ascending and unique, and an entry without evidence is 0 (lb)
    or :data:`NO_BOUND` (ub).  ``lower_bounds(r)`` / ``upper_bounds(r)``
    fold every relevant row through the monotonicity rules above,
    returning the tightest bounds provable at ``r`` from everything any
    past query learned.

    Parameters
    ----------
    n:
        Number of objects covered (columns per bound matrix).
    max_radii:
        Optional per-side budget on distinct stored radii.  When a new
        radius would exceed it, the closest pair of adjacent radii is
        merged (lb folds into the larger, ub into the smaller).
    """

    def __init__(self, n: int, max_radii: "int | None" = None):
        if n < 1:
            raise ParameterError(f"cache needs at least one object, got n={n}")
        if max_radii is not None and max_radii < 1:
            raise ParameterError(f"max_radii must be >= 1, got {max_radii}")
        self.n = int(n)
        self.max_radii = max_radii
        self.clear()

    def clear(self) -> None:
        """Forget every bound."""
        for side in _VACUOUS:
            self._set(side, [], [], 0)

    def _set(self, side: str, radii, cols, values) -> None:
        """Replace ``side`` by rows at ``radii``: ``values`` in ``cols``,
        vacuous elsewhere."""
        rows = np.full((len(radii), self.n), _VACUOUS[side], dtype=np.int64)
        rows[:, cols] = values
        setattr(self, f"_{side}_radii", np.asarray(radii, dtype=np.float64))
        setattr(self, f"_{side}", rows)

    def _rows(self, side: str, radii) -> np.ndarray:
        """Row indices of ``radii`` on ``side``; missing radii get vacuous rows."""
        radii = np.asarray(radii, dtype=np.float64)
        have = getattr(self, f"_{side}_radii")
        at, found = _index_in(have, radii)
        if found.all():
            return at
        merged = np.union1d(have, radii)
        rows = np.full((merged.size, self.n), _VACUOUS[side], dtype=np.int64)
        rows[np.searchsorted(merged, have)] = getattr(self, f"_{side}")
        setattr(self, f"_{side}_radii", merged)
        setattr(self, f"_{side}", rows)
        return np.searchsorted(merged, radii)

    # -- queries -----------------------------------------------------------

    @property
    def radii(self) -> list[float]:
        """Every radius with recorded evidence, ascending."""
        return np.union1d(self._lb_radii, self._ub_radii).tolist()

    def lower_bounds(self, r: float) -> np.ndarray:
        """Tightest provable lower bound per object at radius ``r``.

        The max over the rows at radii ``<= r``; always a fresh array.
        """
        i = int(np.searchsorted(self._lb_radii, float(r), side="right"))
        if i == 0:
            return np.zeros(self.n, dtype=np.int64)
        return self._lb[:i].max(axis=0)

    def upper_bounds(self, r: float) -> np.ndarray:
        """Tightest provable upper bound per object at radius ``r``.

        The min over the rows at radii ``>= r``; always a fresh array.
        Entries without evidence are :data:`NO_BOUND`.
        """
        i = int(np.searchsorted(self._ub_radii, float(r), side="left"))
        if i == self._ub_radii.size:
            return np.full(self.n, NO_BOUND, dtype=np.int64)
        return self._ub[i:].min(axis=0)

    def _lb_at(self, radii, cols=slice(None)) -> np.ndarray:
        """:meth:`lower_bounds` at each of ``radii`` (rows), over ``cols``."""
        folds = np.maximum.accumulate(self._lb[:, cols], axis=0)
        zero = np.zeros((1, folds.shape[1]), dtype=np.int64)
        i = np.searchsorted(self._lb_radii, radii, side="right")
        return np.concatenate([zero, folds])[i]

    def _ub_at(self, radii, cols=slice(None)) -> np.ndarray:
        """:meth:`upper_bounds` at each of ``radii`` (rows), over ``cols``."""
        folds = np.minimum.accumulate(self._ub[::-1, cols], axis=0)[::-1]
        none = np.full((1, folds.shape[1]), NO_BOUND, dtype=np.int64)
        i = np.searchsorted(self._ub_radii, radii, side="left")
        return np.concatenate([folds, none])[i]

    # -- updates -----------------------------------------------------------

    def record(
        self,
        r: float,
        ids: np.ndarray,
        counts: np.ndarray,
        exact_mask: np.ndarray | None = None,
    ) -> None:
        """Record proven counts for ``ids`` at radius ``r``.

        ``counts`` are lower bounds; where ``exact_mask`` is set they are
        true counts and double as upper bounds.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        counts = np.asarray(counts, dtype=np.int64)
        (j,) = self._rows("lb", [float(r)])
        np.maximum.at(self._lb[j], ids, counts)
        if exact_mask is not None:
            exact_mask = np.asarray(exact_mask, dtype=bool)
            if exact_mask.any():
                (j,) = self._rows("ub", [float(r)])
                np.minimum.at(self._ub[j], ids[exact_mask], counts[exact_mask])
        self._enforce_budget()

    def ingest(self, evidence: ObjectEvidence) -> None:
        """Absorb the per-object evidence of a finished detection run."""
        if evidence.n != self.n:
            raise ParameterError(
                f"evidence covers {evidence.n} objects, cache holds {self.n}"
            )
        self.record(
            evidence.r,
            np.arange(self.n, dtype=np.int64),
            evidence.lower_bounds,
            evidence.exact_mask,
        )

    # -- mutation repair ---------------------------------------------------

    def grow(self, n_new: int) -> None:
        """Extend every bound row for objects appended to the collection.

        New columns carry the vacuous bounds (lb 0, ub :data:`NO_BOUND`).
        """
        if n_new < self.n:
            raise ParameterError(
                f"cannot shrink cache from {self.n} to {n_new} objects"
            )
        pad = int(n_new) - self.n
        if pad == 0:
            return
        for side, fill in _VACUOUS.items():
            rows = getattr(self, f"_{side}")
            blank = np.full((rows.shape[0], pad), fill, dtype=np.int64)
            setattr(self, f"_{side}", np.concatenate([rows, blank], axis=1))
        self.n = int(n_new)

    def _check_ids(self, ids, verb: str) -> np.ndarray:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n):
            raise ParameterError(
                f"{verb} ids out of range (n={self.n}): {ids.tolist()}"
            )
        return ids

    def apply_insert_batch(self, new_ids: np.ndarray, evidence: tuple) -> None:
        """Repair the cache after a *block* of objects joined.

        The newcomers' columns must exist (:meth:`grow` first).
        ``evidence`` is ``(radii, inc, own)`` over ascending ``radii``
        that cover every stored radius:

        * ``inc[j, p]`` — how many newcomers lie within ``radii[j]`` of
          object ``p`` (the complete count delta);
        * ``own[j, i]`` — the exact count of ``new_ids[i]`` at
          ``radii[j]``.

        An insert only raises counts, so every lower bound and every
        known upper bound moves up by ``inc``, and the newcomers get
        exact bounds at every radius of ``radii``.
        """
        new_ids = self._check_ids(new_ids, "insert")
        if new_ids.size == 0:
            return
        radii, inc, own = evidence
        radii = np.asarray(radii, dtype=np.float64)
        at_lb, found_lb = _index_in(radii, self._lb_radii)
        at_ub, found_ub = _index_in(radii, self._ub_radii)
        if not (found_lb.all() and found_ub.all()):
            raise ParameterError(
                "insert evidence must cover every stored radius"
            )
        self._lb += inc[at_lb]
        np.add(self._ub, inc[at_ub], out=self._ub, where=self._ub != NO_BOUND)
        # Locate (or add) the rows first: adding one replaces the matrix.
        rows = self._rows("lb", radii)
        self._lb[np.ix_(rows, new_ids)] = own
        rows = self._rows("ub", radii)
        self._ub[np.ix_(rows, new_ids)] = own
        self._enforce_budget()

    def apply_delete_batch(
        self, ids: np.ndarray, evidence: "tuple | None" = None
    ) -> None:
        """Repair the cache after a *block* of objects left.

        ``evidence`` is ``(radii, dec)`` as :func:`build_delete_evidence`
        returns it: ``dec[j, p]`` victims lay within ``radii[j]`` of
        object ``p`` (the complete delta).  Lower bounds come down by
        ``dec`` (they could overstate), known upper bounds tighten by the
        same amount.  A stored radius the evidence does not cover loses
        its lower-bound row (any entry might overstate); upper bounds
        stay sound untouched.  With ``evidence=None`` the repair is
        conservative: every lower bound drops by the batch size.

        The victims' own columns are reset to the vacuous bounds.
        """
        ids = self._check_ids(ids, "delete")
        if ids.size == 0:
            return
        if evidence is None:
            np.maximum(self._lb - ids.size, 0, out=self._lb)
        else:
            radii, dec = evidence
            radii = np.asarray(radii, dtype=np.float64)
            at, found = _index_in(radii, self._lb_radii)
            if not found.all():
                self._lb_radii, self._lb = self._lb_radii[found], self._lb[found]
            self._lb -= dec[at[found]]
            np.maximum(self._lb, 0, out=self._lb)
            at, found = _index_in(radii, self._ub_radii)
            rows = self._ub[found]
            np.subtract(rows, dec[at[found]], out=rows, where=rows != NO_BOUND)
            self._ub[found] = np.maximum(rows, 0)
        self.reset_rows(ids)

    def reset_rows(self, ids: np.ndarray) -> None:
        """Reset the columns of ``ids`` to the vacuous bounds.

        Used by shard caches for objects retired by *other* shards:
        their within-shard counts did not change, but the bounds must
        not outlive the objects they describe.
        """
        ids = np.asarray(ids, dtype=np.int64)
        self._lb[:, ids] = 0
        self._ub[:, ids] = NO_BOUND

    def nonvacuous_rows(self) -> np.ndarray:
        """Ids holding *any* evidence (some lb > 0, or some ub known)."""
        return np.flatnonzero(
            (self._lb > 0).any(axis=0) | (self._ub != NO_BOUND).any(axis=0)
        )

    def entry_count(self) -> int:
        """Non-vacuous bound entries across all stored rows.

        The unit of the rebalance transfer accounting: each positive
        lower bound and each known upper bound counts once.
        """
        return int(
            np.count_nonzero(self._lb > 0)
            + np.count_nonzero(self._ub != NO_BOUND)
        )

    # -- rebalance decomposition -------------------------------------------
    #
    # Within-shard counts decompose over any partition of the shard's
    # members: for a split ``members = stay ∪ moved`` every object
    # satisfies ``c_members(p) = c_stay(p) + c_moved(p)``, and for a
    # merge of disjoint shards A and B, ``c_A∪B(p) = c_A(p) + c_B(p)``.
    # These two methods apply the law to whole caches so split/merge
    # rebalancing can *transfer* evidence instead of resetting it.

    def split_by_counts(
        self, rows: np.ndarray, moved_counts: np.ndarray
    ) -> "tuple[EvidenceCache, EvidenceCache]":
        """Decompose into ``(stay, moved)`` caches for a shard split.

        ``moved_counts[j, i]`` is the **exact** number of moved members
        within ``self.radii[j]`` of object ``rows[i]`` (self-excluded);
        ``rows`` must cover every non-vacuous id.  Subtracting the exact
        moved contribution from a bound on ``c_members`` leaves a valid
        bound on ``c_stay`` — lower bounds clamp at 0, known upper
        bounds come down by the same exact amount — and the moved cache
        gets ``moved_counts`` itself as exact rows.  Tightness may be
        lost (a lower bound can under-shoot the stay half it came from);
        soundness cannot.
        """
        rows = np.asarray(rows, dtype=np.int64)
        stay = EvidenceCache(self.n, max_radii=self.max_radii)
        moved = EvidenceCache(self.n, max_radii=self.max_radii)
        if rows.size == 0:
            return stay, moved
        radii = np.asarray(self.radii)
        c = np.asarray(moved_counts, dtype=np.int64)
        if c.shape != (radii.size, rows.size):
            raise ParameterError(
                f"split_by_counts: counts of shape {c.shape} for "
                f"{radii.size} radii x {rows.size} rows"
            )
        lb = np.maximum(self._lb_at(radii, rows) - c, 0)
        keep = lb.any(axis=1)
        stay._set("lb", radii[keep], rows, lb[keep])
        ub = self._ub_at(radii, rows)
        known = ub != NO_BOUND
        ub = np.where(known, np.maximum(ub - c, 0), NO_BOUND)
        keep = known.any(axis=1)
        stay._set("ub", radii[keep], rows, ub[keep])
        for side in _VACUOUS:
            moved._set(side, radii, rows, c)
        stay._enforce_budget()
        moved._enforce_budget()
        return stay, moved

    def merged_with(self, other: "EvidenceCache") -> "EvidenceCache":
        """The cache of the union shard: per-radius bound *sums*.

        Lower bounds add unconditionally (both halves understate their
        disjoint contributions); upper bounds add only where **both**
        sides know one — a single-sided upper bound says nothing about
        the union.  Folded bounds are used at every stored radius of
        either side, so one side's evidence at ``r`` still combines
        with the other side's evidence proven at different radii.
        """
        if other.n != self.n:
            raise ParameterError(
                f"merged_with: caches cover {self.n} vs {other.n} objects"
            )
        budget = self.max_radii if self.max_radii is not None else other.max_radii
        merged = EvidenceCache(self.n, max_radii=budget)
        radii = np.union1d(self._lb_radii, other._lb_radii)
        lb = self._lb_at(radii) + other._lb_at(radii)
        keep = lb.any(axis=1)
        merged._lb_radii, merged._lb = radii[keep], lb[keep]
        radii = np.union1d(self._ub_radii, other._ub_radii)
        a, b = self._ub_at(radii), other._ub_at(radii)
        known = (a != NO_BOUND) & (b != NO_BOUND)
        ub = np.full(a.shape, NO_BOUND, dtype=np.int64)
        ub[known] = a[known] + b[known]
        keep = known.any(axis=1)
        merged._ub_radii, merged._ub = radii[keep], ub[keep]
        merged._enforce_budget()
        return merged

    def take(self, ids: np.ndarray) -> "EvidenceCache":
        """A new cache holding only the columns of ``ids`` (re-numbered).

        Evidence is about the data, not about any index built over it,
        so a compacted view of the collection can keep every bound.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            raise ParameterError("take: empty id set")
        sliced = EvidenceCache(ids.size, max_radii=self.max_radii)
        sliced._lb_radii, sliced._lb = self._lb_radii.copy(), self._lb[:, ids]
        sliced._ub_radii, sliced._ub = self._ub_radii.copy(), self._ub[:, ids]
        return sliced

    # -- eviction ----------------------------------------------------------

    def _enforce_budget(self) -> None:
        if self.max_radii is None:
            return
        while self._lb_radii.size > self.max_radii:
            i = int(np.argmin(np.diff(self._lb_radii)))
            # A bound proved at radii[i] holds at radii[i+1]: fold up.
            np.maximum(self._lb[i + 1], self._lb[i], out=self._lb[i + 1])
            self._lb_radii = np.delete(self._lb_radii, i)
            self._lb = np.delete(self._lb, i, axis=0)
        while self._ub_radii.size > self.max_radii:
            i = int(np.argmin(np.diff(self._ub_radii)))
            # An exact count at radii[i+1] bounds radii[i]: fold down.
            np.minimum(self._ub[i], self._ub[i + 1], out=self._ub[i])
            self._ub_radii = np.delete(self._ub_radii, i + 1)
            self._ub = np.delete(self._ub, i + 1, axis=0)

    def evict(self, max_radii: int) -> None:
        """One-shot budget enforcement down to ``max_radii`` per side."""
        if max_radii < 1:
            raise ParameterError(f"max_radii must be >= 1, got {max_radii}")
        previous = self.max_radii
        self.max_radii = max_radii
        self._enforce_budget()
        self.max_radii = previous

    # -- (de)serialisation --------------------------------------------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Dense snapshot of the cache (for :func:`repro.io.write_snapshot`)."""
        return {
            "cache_lb_radii": self._lb_radii.copy(),
            "cache_lb": self._lb.copy(),
            "cache_ub_radii": self._ub_radii.copy(),
            "cache_ub": self._ub.copy(),
        }

    @classmethod
    def from_state_arrays(
        cls, n: int, arrays: dict[str, np.ndarray]
    ) -> "EvidenceCache":
        """Rebuild a cache from :meth:`state_arrays` output.

        Each kind's radii must be strictly ascending (the snapshot
        reader checks), and its radius list and bound matrix must pair
        up exactly — a silent zip would attribute bounds to radii they
        were never proven at, which breaks exactness.
        """
        cache = cls(n)
        for side in _VACUOUS:
            radii = np.asarray(arrays[f"cache_{side}_radii"], dtype=np.float64)
            rows = np.asarray(arrays[f"cache_{side}"], dtype=np.int64)
            if rows.shape != (radii.size, cache.n):
                raise ParameterError(
                    f"cache_{side}_radii lists {radii.size} radii over "
                    f"{cache.n} objects but cache_{side} has shape {rows.shape}"
                )
            cache._set(side, radii, slice(None), rows)
        return cache

    @property
    def nbytes(self) -> int:
        """Memory held by the two bound matrices."""
        return int(self._lb.nbytes + self._ub.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvidenceCache(n={self.n}, lb_radii={self._lb_radii.size}, "
            f"ub_radii={self._ub_radii.size})"
        )
