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

:class:`EvidenceCache` stores these facts as dense per-radius bound
arrays, so deciding a whole dataset against a new ``(r, k)`` query is a
handful of vectorised max/min/compare passes — no graph traversal, no
distance computation.  Objects whose interval ``[lb, ub]`` still
straddles ``k`` are the only ones the engine has to touch.

Bound folding is *cumulative*: radii are kept sorted and the running
max (lb) / min (ub) folds are materialised lazily, so a query touches
only the stored radii its own radius actually depends on — radii
``<= r`` for lower bounds, radii ``>= r`` for upper bounds — instead
of re-scanning every stored radius per call.

The monotonicity laws extend to *mutations* of the underlying
collection, which is what makes the cache repairable instead of
disposable (see ``docs/incremental.md``):

* inserting an object can only **raise** neighbor counts, and only for
  objects within its radius — so every lower bound stays valid as-is,
  and both bounds of the touched objects move up by exactly one
  (:meth:`apply_insert`);
* deleting an object can only **lower** counts, again only within its
  radius — so every upper bound stays valid as-is, and the touched
  bounds move down by exactly one (:meth:`apply_delete`).

A budgeted eviction policy (``max_radii``) folds the most-dominated
radius of a side into its neighbor when a serving process accumulates
more distinct radii than its memory cap allows: lower bounds fold
upward (a bound at ``r`` is a bound at every larger radius), upper
bounds fold downward.  Eviction loses tightness, never soundness.
"""

from __future__ import annotations

import numpy as np

from ..core.result import ObjectEvidence
from ..exceptions import ParameterError

#: sentinel upper bound: "nothing known" (any count fits below it).
NO_BOUND = np.iinfo(np.int64).max


def build_delete_evidence(
    dataset,
    victims,
    survivors: np.ndarray,
    radii,
    known: "dict | None",
    n_total: int,
) -> dict:
    """Reduce a delete batch to :meth:`EvidenceCache.apply_delete_batch` form.

    The one copy of the batched delete-repair law, shared by the
    single-process engine and every shard worker: victims without
    supplied bookkeeping are ranged against ``survivors`` in one
    ``pair_dist`` sweep, victims with ``known`` per-radius neighbor
    lists contribute those instead, and a radius any victim lacks
    evidence for is omitted (the caller's lower-bound row there must
    be dropped).  Returns ``{r: (touched_ids, dec)}``.
    """
    known = known or {}
    radii = list(radii)
    victims = [int(v) for v in victims]
    scan = np.asarray(
        [v for v in victims if known.get(v) is None], dtype=np.int64
    )
    dec = {r: np.zeros(n_total, dtype=np.int64) for r in radii}
    covered = dict.fromkeys(radii, True)
    if scan.size and survivors.size and radii:
        # Only per-radius verdicts are consumed, and values within the
        # largest radius are exact, so one bound serves every radius.
        D = dataset.pair_dist(
            np.repeat(scan, survivors.size),
            np.tile(survivors, scan.size),
            bound=max(radii),
        ).reshape(scan.size, survivors.size)
        for r in radii:
            dec[r][survivors] += (D <= r).sum(axis=0)
    for v in victims:
        listed = known.get(v)
        if listed is None:
            continue
        listed = {
            float(r): np.asarray(w, dtype=np.int64) for r, w in listed.items()
        }
        for r in radii:
            within = listed.get(r)
            if within is None:
                covered[r] = False
            elif within.size:
                np.add.at(dec[r], within, 1)
    evidence = {}
    for r in radii:
        if covered[r]:
            touched = np.flatnonzero(dec[r])
            evidence[r] = (touched, dec[r][touched])
    return evidence


class EvidenceCache:
    """Accumulated per-object neighbor-count bounds, indexed by radius.

    ``lower_bounds(r)`` / ``upper_bounds(r)`` fold every relevant stored
    radius through the monotonicity rules above, returning the tightest
    bounds provable at ``r`` from everything any past query learned.

    Parameters
    ----------
    n:
        Number of objects covered (rows per bound array).
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
        self._lb: dict[float, np.ndarray] = {}
        self._ub: dict[float, np.ndarray] = {}
        # Lazily-materialised cumulative folds over the sorted radii:
        # _lb_cum[i] = elementwise max of the lb rows at radii[0..i],
        # valid for i < _lb_valid; _ub_cum[i] = elementwise min of the
        # ub rows at radii[i..m-1], valid for i >= _ub_valid_from.
        self._lb_radii: np.ndarray = np.empty(0, dtype=np.float64)
        self._lb_cum: list[np.ndarray] = []
        self._lb_valid = 0
        self._ub_radii: np.ndarray = np.empty(0, dtype=np.float64)
        self._ub_cum: list[np.ndarray] = []
        self._ub_valid_from = 0

    # -- fold bookkeeping --------------------------------------------------

    def _touch_lb(self, r: float, new: bool) -> None:
        """Invalidate lb folds affected by a write at radius ``r``."""
        if new:
            self._lb_radii = np.asarray(sorted(self._lb), dtype=np.float64)
            self._lb_valid = 0
        else:
            idx = int(np.searchsorted(self._lb_radii, r))
            self._lb_valid = min(self._lb_valid, idx)

    def _touch_ub(self, r: float, new: bool) -> None:
        """Invalidate ub folds affected by a write at radius ``r``."""
        if new:
            self._ub_radii = np.asarray(sorted(self._ub), dtype=np.float64)
            self._ub_cum = [None] * self._ub_radii.size  # type: ignore[list-item]
            self._ub_valid_from = self._ub_radii.size
        else:
            idx = int(np.searchsorted(self._ub_radii, r))
            self._ub_valid_from = max(self._ub_valid_from, idx + 1)

    def _invalidate_folds(self) -> None:
        """Drop all fold state (bulk mutation: repair, grow, evict)."""
        self._lb_radii = np.asarray(sorted(self._lb), dtype=np.float64)
        self._lb_cum = []
        self._lb_valid = 0
        self._ub_radii = np.asarray(sorted(self._ub), dtype=np.float64)
        self._ub_cum = [None] * self._ub_radii.size  # type: ignore[list-item]
        self._ub_valid_from = self._ub_radii.size

    # -- queries -----------------------------------------------------------

    @property
    def radii(self) -> list[float]:
        """Every radius with recorded evidence, ascending."""
        return sorted(set(self._lb) | set(self._ub))

    def lower_bounds(self, r: float) -> np.ndarray:
        """Tightest provable lower bound per object at radius ``r``.

        Cost is proportional to the *new* stored radii ``<= r`` since
        the last call (the cumulative fold is extended, not rebuilt).
        """
        radii = self._lb_radii
        idx = int(np.searchsorted(radii, float(r), side="right")) - 1
        if idx < 0:
            return np.zeros(self.n, dtype=np.int64)
        del self._lb_cum[self._lb_valid:]
        while self._lb_valid <= idx:
            i = self._lb_valid
            row = self._lb[float(radii[i])]
            self._lb_cum.append(
                row.copy() if i == 0 else np.maximum(self._lb_cum[i - 1], row)
            )
            self._lb_valid += 1
        return self._lb_cum[idx].copy()

    def upper_bounds(self, r: float) -> np.ndarray:
        """Tightest provable upper bound per object at radius ``r``.

        Entries without evidence are :data:`NO_BOUND`.  Cost is
        proportional to the new stored radii ``>= r`` since the last
        call.
        """
        radii = self._ub_radii
        m = radii.size
        idx = int(np.searchsorted(radii, float(r), side="left"))
        if idx >= m:
            return np.full(self.n, NO_BOUND, dtype=np.int64)
        while self._ub_valid_from > idx:
            i = self._ub_valid_from - 1
            row = self._ub[float(radii[i])]
            self._ub_cum[i] = (
                row.copy() if i == m - 1 else np.minimum(self._ub_cum[i + 1], row)
            )
            self._ub_valid_from -= 1
        return self._ub_cum[idx].copy()

    # -- updates -----------------------------------------------------------

    def _lb_row(self, r: float) -> np.ndarray:
        row = self._lb.get(r)
        if row is None:
            row = self._lb[r] = np.zeros(self.n, dtype=np.int64)
            self._touch_lb(r, new=True)
        else:
            self._touch_lb(r, new=False)
        return row

    def _ub_row(self, r: float) -> np.ndarray:
        row = self._ub.get(r)
        if row is None:
            row = self._ub[r] = np.full(self.n, NO_BOUND, dtype=np.int64)
            self._touch_ub(r, new=True)
        else:
            self._touch_ub(r, new=False)
        return row

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
        r = float(r)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        counts = np.asarray(counts, dtype=np.int64)
        np.maximum.at(self._lb_row(r), ids, counts)
        if exact_mask is not None:
            exact_mask = np.asarray(exact_mask, dtype=bool)
            if exact_mask.any():
                np.minimum.at(self._ub_row(r), ids[exact_mask], counts[exact_mask])
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

    def clear(self) -> None:
        self._lb.clear()
        self._ub.clear()
        self._invalidate_folds()

    # -- mutation repair ---------------------------------------------------

    def grow(self, n_new: int) -> None:
        """Extend every bound row for objects appended to the collection.

        New rows carry the vacuous bounds (lb 0, ub :data:`NO_BOUND`).
        """
        if n_new < self.n:
            raise ParameterError(
                f"cannot shrink cache from {self.n} to {n_new} objects"
            )
        if n_new == self.n:
            return
        pad = n_new - self.n
        for r, row in self._lb.items():
            self._lb[r] = np.concatenate([row, np.zeros(pad, dtype=np.int64)])
        for r, row in self._ub.items():
            self._ub[r] = np.concatenate(
                [row, np.full(pad, NO_BOUND, dtype=np.int64)]
            )
        self.n = int(n_new)
        self._invalidate_folds()

    def apply_insert(
        self,
        obj_id: int,
        neighbors: "dict[float, np.ndarray] | None",
    ) -> None:
        """Repair the cache after object ``obj_id`` joined the collection.

        ``neighbors`` maps each stored radius to the **complete** set of
        pre-existing live object ids within that radius of the new
        object (the mutation's distance evaluations).  An insert only
        raises counts, so every lower bound stays valid untouched; the
        upper bounds of the listed neighbors are patched up by one, and
        their lower bounds tightened by one.  The new object itself
        receives the *exact* count ``len(neighbors[r])`` at every
        covered radius.

        With ``neighbors=None`` (no distance evaluations were made) the
        lower bounds are kept — still sound — and every upper-bound row
        is dropped, since any of its entries might now understate.
        """
        obj_id = int(obj_id)
        if obj_id >= self.n:
            if obj_id != self.n:
                raise ParameterError(
                    f"insert id {obj_id} skips rows (cache holds {self.n})"
                )
            self.grow(obj_id + 1)
        if neighbors is None:
            if self._ub:
                self._ub.clear()
            self._invalidate_folds()
            return
        neighbors = {
            float(r): np.asarray(v, dtype=np.int64) for r, v in neighbors.items()
        }
        for r in list(self._lb):
            within = neighbors.get(r)
            if within is not None and within.size:
                self._lb[r][within] += 1
        for r in list(self._ub):
            within = neighbors.get(r)
            if within is None:
                # No distance evidence at this radius: entries of
                # touched-but-unknown objects would understate.
                del self._ub[r]
            elif within.size:
                row = self._ub[r]
                known = row[within] != NO_BOUND
                row[within[known]] += 1
        for r, within in neighbors.items():
            exact = np.int64(within.size)
            self._lb_row(r)[obj_id] = exact
            self._ub_row(r)[obj_id] = exact
        self._invalidate_folds()
        self._enforce_budget()

    def apply_delete(
        self,
        obj_id: int,
        neighbors: "dict[float, np.ndarray] | None" = None,
    ) -> None:
        """Repair the cache after object ``obj_id`` left the collection.

        ``neighbors`` maps each stored radius to the complete set of
        *remaining* live object ids within that radius of the deleted
        object.  A delete only lowers counts, so every upper bound stays
        valid untouched; the listed neighbors' lower bounds are patched
        down by one, and their upper bounds tightened by one.

        With ``neighbors=None`` the repair is conservative: every
        lower-bound entry is decremented (any object might have lost a
        neighbor), and upper bounds are kept.  Sound, but looser.

        The deleted object's own rows are reset to the vacuous bounds;
        callers exclude it from answers by compaction.
        """
        obj_id = int(obj_id)
        if not 0 <= obj_id < self.n:
            raise ParameterError(f"delete id {obj_id} out of range (n={self.n})")
        if neighbors is None:
            for row in self._lb.values():
                np.subtract(row, 1, out=row)
                np.maximum(row, 0, out=row)
        else:
            neighbors = {
                float(r): np.asarray(v, dtype=np.int64)
                for r, v in neighbors.items()
            }
            for r in list(self._lb):
                within = neighbors.get(r)
                if within is None:
                    # No distance evidence at this radius: any entry
                    # might overstate now.
                    del self._lb[r]
                elif within.size:
                    row = self._lb[r]
                    row[within] -= 1
                    np.maximum(row, 0, out=row)
            for r in list(self._ub):
                within = neighbors.get(r)
                if within is not None and within.size:
                    row = self._ub[r]
                    known = row[within] != NO_BOUND
                    hit = within[known]
                    row[hit] -= 1
                    np.maximum(row, 0, out=row)
        for row in self._lb.values():
            row[obj_id] = 0
        for row in self._ub.values():
            row[obj_id] = NO_BOUND
        self._invalidate_folds()

    # -- batched mutation repair --------------------------------------------
    #
    # The block forms of :meth:`apply_insert` / :meth:`apply_delete`:
    # one call repairs the cache for a whole mutation batch.  Callers
    # compute the batch-vs-live distance matrix in O(1) ``pair_dist``
    # sweeps and reduce it to per-radius *increment vectors* (how many
    # batch members landed within ``r`` of each touched live object);
    # the repair is then one fancy-indexed add per stored radius
    # instead of one broadcast per object.

    def apply_insert_batch(
        self,
        new_ids: np.ndarray,
        evidence: "dict[float, tuple[np.ndarray, np.ndarray, np.ndarray | None]] | None",
    ) -> None:
        """Repair the cache after a *block* of objects joined.

        ``evidence`` maps each covered radius ``r`` to a triple
        ``(touched_ids, inc, own_counts)``:

        * ``touched_ids`` / ``inc`` — pre-existing live objects within
          ``r`` of at least one newcomer, and *how many* newcomers each
          gained (the complete count delta at ``r``, reduced from the
          batch-vs-live distance matrix);
        * ``own_counts`` — the newcomers' exact counts at ``r`` (aligned
          with ``new_ids``), or ``None`` to leave their rows vacuous
          (sound lower bound 0).

        Radii the evidence does not cover follow the single-object
        rules: lower bounds stay (inserts only raise counts), upper
        bounds are dropped (any entry might now understate).  With
        ``evidence=None`` no distances were evaluated at all: every
        upper-bound row is dropped, lower bounds survive.
        """
        new_ids = np.asarray(new_ids, dtype=np.int64)
        if new_ids.size == 0:
            return
        top = int(new_ids.max())
        if top >= self.n:
            self.grow(top + 1)
        if evidence is None:
            if self._ub:
                self._ub.clear()
            self._invalidate_folds()
            return
        evidence = {
            float(r): (
                np.asarray(touched, dtype=np.int64),
                np.asarray(inc, dtype=np.int64),
                None if own is None else np.asarray(own, dtype=np.int64),
            )
            for r, (touched, inc, own) in evidence.items()
        }
        for r in list(self._lb):
            hit = evidence.get(r)
            if hit is not None and hit[0].size:
                self._lb[r][hit[0]] += hit[1]
        for r in list(self._ub):
            hit = evidence.get(r)
            if hit is None:
                del self._ub[r]
            elif hit[0].size:
                row = self._ub[r]
                touched, inc, _ = hit
                known = row[touched] != NO_BOUND
                row[touched[known]] += inc[known]
        for r, (_, _, own) in evidence.items():
            if own is not None:
                self._lb_row(r)[new_ids] = own
                self._ub_row(r)[new_ids] = own
        self._invalidate_folds()
        self._enforce_budget()

    def apply_delete_batch(
        self,
        ids: np.ndarray,
        evidence: "dict[float, tuple[np.ndarray, np.ndarray]] | None",
    ) -> None:
        """Repair the cache after a *block* of objects left.

        ``evidence`` maps each covered radius ``r`` to
        ``(touched_ids, dec)``: the remaining live objects within ``r``
        of at least one victim and how many neighbors each lost (the
        complete delta at ``r``).  Touched lower bounds come down by
        ``dec`` (they could overstate), touched upper bounds tighten by
        the same amount.  Radii the evidence does not cover lose their
        lower-bound row (any entry might overstate); upper bounds stay
        sound untouched.  With ``evidence=None`` the repair is the
        conservative single-object rule applied ``len(ids)`` times:
        every lower bound drops by the batch size.

        The victims' own rows are reset to the vacuous bounds.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        if ids.min() < 0 or ids.max() >= self.n:
            raise ParameterError(
                f"delete ids out of range (n={self.n}): {ids.tolist()}"
            )
        if evidence is None:
            for row in self._lb.values():
                np.subtract(row, np.int64(ids.size), out=row)
                np.maximum(row, 0, out=row)
        else:
            evidence = {
                float(r): (
                    np.asarray(touched, dtype=np.int64),
                    np.asarray(dec, dtype=np.int64),
                )
                for r, (touched, dec) in evidence.items()
            }
            for r in list(self._lb):
                hit = evidence.get(r)
                if hit is None:
                    del self._lb[r]
                elif hit[0].size:
                    row = self._lb[r]
                    row[hit[0]] -= hit[1]
                    np.maximum(row, 0, out=row)
            for r in list(self._ub):
                hit = evidence.get(r)
                if hit is not None and hit[0].size:
                    row = self._ub[r]
                    touched, dec = hit
                    known = row[touched] != NO_BOUND
                    row[touched[known]] -= dec[known]
                    np.maximum(row, 0, out=row)
        for row in self._lb.values():
            row[ids] = 0
        for row in self._ub.values():
            row[ids] = NO_BOUND
        self._invalidate_folds()

    def reset_rows(self, ids: np.ndarray) -> None:
        """Reset the rows of ``ids`` to the vacuous bounds.

        Used by shard caches for objects retired by *other* shards:
        their within-shard counts did not change, but the rows must not
        outlive the objects they describe.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            return
        for row in self._lb.values():
            row[ids] = 0
        for row in self._ub.values():
            row[ids] = NO_BOUND
        self._invalidate_folds()

    def nonvacuous_rows(self) -> np.ndarray:
        """Ids holding *any* evidence (some lb > 0, or some ub known)."""
        mask = np.zeros(self.n, dtype=bool)
        for row in self._lb.values():
            mask |= row > 0
        for row in self._ub.values():
            mask |= row != NO_BOUND
        return np.flatnonzero(mask)

    def entry_count(self) -> int:
        """Non-vacuous bound entries across all stored rows.

        The unit of the rebalance transfer accounting: each positive
        lower bound and each known upper bound counts once.
        """
        total = 0
        for row in self._lb.values():
            total += int(np.count_nonzero(row > 0))
        for row in self._ub.values():
            total += int(np.count_nonzero(row != NO_BOUND))
        return total

    # -- rebalance decomposition -------------------------------------------
    #
    # Within-shard counts decompose over any partition of the shard's
    # members: for a split ``members = stay ∪ moved`` every object
    # satisfies ``c_members(p) = c_stay(p) + c_moved(p)``, and for a
    # merge of disjoint shards A and B, ``c_A∪B(p) = c_A(p) + c_B(p)``.
    # These two methods apply the law to whole caches so split/merge
    # rebalancing can *transfer* evidence instead of resetting it.

    def split_by_counts(
        self,
        rows: np.ndarray,
        moved_counts: "dict[float, np.ndarray]",
    ) -> "tuple[EvidenceCache, EvidenceCache]":
        """Decompose into ``(stay, moved)`` caches for a shard split.

        ``moved_counts[r]`` (aligned with ``rows``) is the **exact**
        number of moved members within ``r`` of each row object
        (self-excluded), for every stored radius; ``rows`` must cover
        every non-vacuous row.  Subtracting the exact moved
        contribution from a bound on ``c_members`` leaves a valid bound
        on ``c_stay`` — lower bounds clamp at 0, known upper bounds
        come down by the same exact amount — and the moved cache gets
        ``moved_counts`` itself as exact rows.  Tightness may be lost
        (a lower bound can under-shoot the stay half it came from);
        soundness cannot.
        """
        rows = np.asarray(rows, dtype=np.int64)
        stay = EvidenceCache(self.n, max_radii=self.max_radii)
        moved = EvidenceCache(self.n, max_radii=self.max_radii)
        if rows.size == 0:
            return stay, moved
        for r in self.radii:
            c = np.asarray(moved_counts[float(r)], dtype=np.int64)
            if c.shape != rows.shape:
                raise ParameterError(
                    f"split_by_counts: counts at r={r} cover {c.size} "
                    f"objects for {rows.size} rows"
                )
            lb = self.lower_bounds(r)[rows]
            ub = self.upper_bounds(r)[rows]
            stay_lb = np.maximum(lb - c, 0)
            if stay_lb.any():
                row = np.zeros(self.n, dtype=np.int64)
                row[rows] = stay_lb
                stay._lb[float(r)] = row
            known = ub != NO_BOUND
            if known.any():
                row = np.full(self.n, NO_BOUND, dtype=np.int64)
                row[rows[known]] = np.maximum(ub[known] - c[known], 0)
                stay._ub[float(r)] = row
            lb_row = np.zeros(self.n, dtype=np.int64)
            lb_row[rows] = c
            ub_row = np.full(self.n, NO_BOUND, dtype=np.int64)
            ub_row[rows] = c
            moved._lb[float(r)] = lb_row
            moved._ub[float(r)] = ub_row
        stay._invalidate_folds()
        stay._enforce_budget()
        moved._invalidate_folds()
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
        for r in sorted(set(self._lb) | set(other._lb)):
            row = self.lower_bounds(r) + other.lower_bounds(r)
            if row.any():
                merged._lb[float(r)] = row
        for r in sorted(set(self._ub) | set(other._ub)):
            a = self.upper_bounds(r)
            b = other.upper_bounds(r)
            known = (a != NO_BOUND) & (b != NO_BOUND)
            if known.any():
                row = np.full(self.n, NO_BOUND, dtype=np.int64)
                row[known] = a[known] + b[known]
                merged._ub[float(r)] = row
        merged._invalidate_folds()
        merged._enforce_budget()
        return merged

    def take(self, ids: np.ndarray) -> "EvidenceCache":
        """A new cache holding only the rows of ``ids`` (re-numbered).

        Evidence is about the data, not about any index built over it,
        so a compacted view of the collection can keep every bound.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size == 0:
            raise ParameterError("take: empty id set")
        sliced = EvidenceCache(ids.size, max_radii=self.max_radii)
        for r, row in self._lb.items():
            sliced._lb[r] = row[ids].copy()
        for r, row in self._ub.items():
            sliced._ub[r] = row[ids].copy()
        sliced._invalidate_folds()
        return sliced

    # -- eviction ----------------------------------------------------------

    def _enforce_budget(self) -> None:
        if self.max_radii is None:
            return
        changed = False
        while len(self._lb) > self.max_radii:
            radii = sorted(self._lb)
            gaps = np.diff(np.asarray(radii))
            i = int(np.argmin(gaps))
            # A bound proved at radii[i] holds at radii[i+1]: fold up.
            np.maximum(
                self._lb[radii[i + 1]], self._lb[radii[i]],
                out=self._lb[radii[i + 1]],
            )
            del self._lb[radii[i]]
            changed = True
        while len(self._ub) > self.max_radii:
            radii = sorted(self._ub)
            gaps = np.diff(np.asarray(radii))
            i = int(np.argmin(gaps))
            # An exact count at radii[i+1] bounds radii[i]: fold down.
            np.minimum(
                self._ub[radii[i]], self._ub[radii[i + 1]],
                out=self._ub[radii[i]],
            )
            del self._ub[radii[i + 1]]
            changed = True
        if changed:
            self._invalidate_folds()

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
        lb_radii = sorted(self._lb)
        ub_radii = sorted(self._ub)
        return {
            "cache_lb_radii": np.asarray(lb_radii, dtype=np.float64),
            "cache_lb": (
                np.stack([self._lb[r] for r in lb_radii])
                if lb_radii
                else np.empty((0, self.n), dtype=np.int64)
            ),
            "cache_ub_radii": np.asarray(ub_radii, dtype=np.float64),
            "cache_ub": (
                np.stack([self._ub[r] for r in ub_radii])
                if ub_radii
                else np.empty((0, self.n), dtype=np.int64)
            ),
        }

    @classmethod
    def from_state_arrays(
        cls, n: int, arrays: dict[str, np.ndarray]
    ) -> "EvidenceCache":
        """Rebuild a cache from :meth:`state_arrays` output.

        The radius list and bound matrix of each kind must pair up
        exactly — a silent zip would attribute bounds to radii they were
        never proven at, which breaks exactness.
        """
        cache = cls(n)
        for kind, store in (("lb", cache._lb), ("ub", cache._ub)):
            radii = arrays[f"cache_{kind}_radii"]
            rows = arrays[f"cache_{kind}"]
            if len(radii) != len(rows):
                raise ParameterError(
                    f"cache_{kind}_radii lists {len(radii)} radii but "
                    f"cache_{kind} has {len(rows)} bound rows"
                )
            for r, row in zip(radii, rows):
                store[float(r)] = np.asarray(row, dtype=np.int64).copy()
        cache._invalidate_folds()
        return cache

    @property
    def nbytes(self) -> int:
        """Memory held by the stored bound arrays (folds excluded)."""
        total = 0
        for arr in (*self._lb.values(), *self._ub.values()):
            total += arr.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvidenceCache(n={self.n}, lb_radii={len(self._lb)}, "
            f"ub_radii={len(self._ub)})"
        )
