//! Batch assembly of per-target [`CoinView`]s.
//!
//! [`CoinView::build`] is the right API for one `sky(O)` query, but the
//! all-objects driver calls it n times, and each call re-hashes every
//! `(dim, value)` pair through a fresh interner and re-runs the O(n·d)
//! duplicate scan — an O(n²·d) preprocessing bill for the whole batch.
//!
//! [`BatchCoinContext`] hoists everything target-independent out of that
//! loop in **one pass** over the [`Table`]:
//!
//! - per-dimension *dense value codes* (`value → 0..v_j` in first-appearance
//!   order), so per-target coin interning becomes array indexing against an
//!   epoch-stamped table instead of hashing;
//! - per-`(dim, code)` posting lists (which rows carry the code) and the
//!   first two occurrence rows of every code, feeding the sparse assembly
//!   path below;
//! - the duplicate-row check, run once instead of once per target;
//! - a dense memo of `pr_strict(j, ·, target_j)` for every code of a
//!   dimension, refreshed only when consecutive targets change their value
//!   on that dimension (the common case for block workloads and chunked
//!   dispatch is no refresh at all).
//!
//! [`BatchCoinContext::view_into`] then assembles the view of any target
//! into a caller-owned [`CoinView`] without allocating after warm-up, by
//! one of two strategies chosen per target:
//!
//! - **dense**: the straightforward row-major scan, producing a view
//!   *literally identical* to `CoinView::build` (same coins, ids, order);
//! - **sparse**: when the per-dimension zero/nonzero classification proves
//!   that only few rows can survive [`CoinView::prune_impossible`]
//!   (every other row carries a zero-probability coin), the surviving
//!   attackers are enumerated straight from the posting lists of the most
//!   selective dimension — O(survivors · d) instead of O(n · d) — and the
//!   view is built *already pruned*.
//!
//! The sparse view is not byte-equal to `CoinView::build` (pruned rows and
//! their never-referenced coins are absent, so coin ids shift), but it is
//! **order-isomorphic**: surviving attackers appear in the same order, and
//! their coins are relabelled by first-occurrence rank — exactly the
//! relative order `CoinView::build` would have assigned. Every downstream
//! consumer (absorption, coin-compacting restriction, partition, the exact
//! engine and the sampler) is invariant under that relabelling, so query
//! results stay **bit-identical** to the per-target path (see
//! `crates/query/tests/properties.rs`).

use crate::coins::{Attacker, CoinKey, CoinView};
use crate::error::{check_probability, CoreError, Result};
use crate::preference::PreferenceModel;
use crate::table::Table;
use crate::types::{DimId, ObjectId, ValueId};

/// A sparse assembly is attempted when the candidate rows of the most
/// selective dimension number at most `n / SPARSE_FRACTION`.
const SPARSE_FRACTION: usize = 4;

/// Target-independent indexes for assembling many [`CoinView`]s over one
/// table. Build once per batch query with [`BatchCoinContext::build`], or
/// derive the next dataset epoch's context from the previous one with
/// [`BatchCoinContext::with_row_appended`] /
/// [`BatchCoinContext::with_row_removed`] without re-hashing the table.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchCoinContext {
    d: usize,
    n: usize,
    /// Dense value code of each cell, dimension-major: `dense[j * n + row]`.
    dense: Vec<u32>,
    /// Flattened per-dimension code → original value tables.
    code_values: Vec<ValueId>,
    /// `code_values`/stamp-table offsets per dimension (`d + 1` entries).
    offsets: Vec<u32>,
    /// First and second row carrying each `(dim, code)` slot (`u32::MAX`
    /// when absent). Excluding one target row, the slot's earliest
    /// occurrence — the rank `CoinView::build` orders coins by — is O(1).
    first_row: Vec<u32>,
    second_row: Vec<u32>,
    /// CSR posting lists: rows carrying each slot, ascending.
    post_off: Vec<u32>,
    post_rows: Vec<u32>,
    /// Identity tag so a [`BatchScratch`] can detect being moved across
    /// contexts and reset itself instead of serving stale memo entries.
    fingerprint: u64,
}

impl BatchCoinContext {
    /// One pass over `table`: dense-code every column, record posting
    /// lists and first occurrences, and validate the no-duplicates
    /// assumption (once, instead of once per target).
    pub fn build(table: &Table) -> Result<Self> {
        if let Some((first, second)) = table.find_duplicate() {
            return Err(CoreError::DuplicateObject { first, second });
        }
        let d = table.dimensionality();
        let n = table.len();
        let mut dense = Vec::with_capacity(d * n);
        let mut code_values = Vec::new();
        let mut offsets = Vec::with_capacity(d + 1);
        offsets.push(0u32);
        let mut codes: std::collections::HashMap<ValueId, u32> = std::collections::HashMap::new();
        for j in (0..d).map(DimId::from) {
            codes.clear();
            let base = code_values.len() as u32;
            for &v in table.column(j) {
                let next = (code_values.len() as u32) - base;
                let code = *codes.entry(v).or_insert(next);
                if code == next {
                    code_values.push(v);
                }
                dense.push(code);
            }
            offsets.push(code_values.len() as u32);
        }
        let total = code_values.len();
        let mut first_row = vec![u32::MAX; total];
        let mut second_row = vec![u32::MAX; total];
        let mut post_off = vec![0u32; total + 1];
        for j in 0..d {
            for row in 0..n {
                let flat = (offsets[j] + dense[j * n + row]) as usize;
                post_off[flat + 1] += 1;
                if first_row[flat] == u32::MAX {
                    first_row[flat] = row as u32;
                } else if second_row[flat] == u32::MAX {
                    second_row[flat] = row as u32;
                }
            }
        }
        for i in 0..total {
            post_off[i + 1] += post_off[i];
        }
        let mut cursor: Vec<u32> = post_off[..total].to_vec();
        let mut post_rows = vec![0u32; d * n];
        for j in 0..d {
            for row in 0..n {
                let flat = (offsets[j] + dense[j * n + row]) as usize;
                post_rows[cursor[flat] as usize] = row as u32;
                cursor[flat] += 1;
            }
        }
        let fingerprint = fingerprint(d, n, &dense);
        Ok(Self {
            d,
            n,
            dense,
            code_values,
            offsets,
            first_row,
            second_row,
            post_off,
            post_rows,
            fingerprint,
        })
    }

    /// Derive the context of `table`, which must be `self`'s table plus one
    /// appended row, without re-coding the untouched cells.
    ///
    /// Existing codes, occurrence indexes, and posting segments are copied
    /// (row `n` sorts after every existing posting entry, so each segment
    /// is a copy + optional push); only the appended row's values are
    /// looked up. The result is **identical** to `build(table)` — appending
    /// preserves first-appearance code order — so views, fingerprints, and
    /// scratch-reset behaviour are exactly the fresh build's.
    ///
    /// The duplicate check intersects posting lists instead of re-hashing
    /// all rows: if any dimension's value is new to that dimension the row
    /// cannot be a duplicate; otherwise only the rows sharing the new
    /// row's code on its most selective dimension are compared.
    pub fn with_row_appended(&self, table: &Table) -> Result<Self> {
        let (d, n) = (self.d, self.n);
        debug_assert_eq!(table.dimensionality(), d);
        debug_assert_eq!(table.len(), n + 1);
        let new_row = n;
        let mut new_code = vec![0u32; d];
        let mut is_new_value = vec![false; d];
        for j in 0..d {
            let v = table.column(DimId::from(j))[new_row];
            let lo = self.offsets[j] as usize;
            let hi = self.offsets[j + 1] as usize;
            match self.code_values[lo..hi].iter().position(|&w| w == v) {
                Some(c) => new_code[j] = c as u32,
                None => {
                    new_code[j] = (hi - lo) as u32;
                    is_new_value[j] = true;
                }
            }
        }
        if d == 0 || !is_new_value.contains(&true) {
            self.check_append_duplicate(&new_code, new_row)?;
        }
        let mut code_values = Vec::with_capacity(self.code_values.len() + d);
        let mut offsets = Vec::with_capacity(d + 1);
        offsets.push(0u32);
        for (j, &is_new) in is_new_value.iter().enumerate() {
            let lo = self.offsets[j] as usize;
            let hi = self.offsets[j + 1] as usize;
            code_values.extend_from_slice(&self.code_values[lo..hi]);
            if is_new {
                code_values.push(table.column(DimId::from(j))[new_row]);
            }
            offsets.push(code_values.len() as u32);
        }
        let nn = n + 1;
        let mut dense = Vec::with_capacity(d * nn);
        for (j, &code) in new_code.iter().enumerate() {
            dense.extend_from_slice(&self.dense[j * n..(j + 1) * n]);
            dense.push(code);
        }
        let total = code_values.len();
        let mut first_row = Vec::with_capacity(total);
        let mut second_row = Vec::with_capacity(total);
        let mut post_off = Vec::with_capacity(total + 1);
        post_off.push(0u32);
        let mut post_rows = Vec::with_capacity(d * nn);
        for j in 0..d {
            let lo = self.offsets[j] as usize;
            let hi = self.offsets[j + 1] as usize;
            for flat in lo..hi {
                let (s, e) = (self.post_off[flat] as usize, self.post_off[flat + 1] as usize);
                post_rows.extend_from_slice(&self.post_rows[s..e]);
                let mut first = self.first_row[flat];
                let mut second = self.second_row[flat];
                // A fresh code never enters this loop (its code equals
                // hi - lo, past the last old flat), so this branch only
                // extends an existing slot.
                if (flat - lo) as u32 == new_code[j] {
                    post_rows.push(new_row as u32);
                    if first == u32::MAX {
                        first = new_row as u32;
                    } else if second == u32::MAX {
                        second = new_row as u32;
                    }
                }
                post_off.push(post_rows.len() as u32);
                first_row.push(first);
                second_row.push(second);
            }
            if is_new_value[j] {
                post_rows.push(new_row as u32);
                post_off.push(post_rows.len() as u32);
                first_row.push(new_row as u32);
                second_row.push(u32::MAX);
            }
        }
        let fingerprint = fingerprint(d, nn, &dense);
        Ok(Self {
            d,
            n: nn,
            dense,
            code_values,
            offsets,
            first_row,
            second_row,
            post_off,
            post_rows,
            fingerprint,
        })
    }

    /// Duplicate check for an appended row whose every value already has a
    /// code: scan the posting list of the row's code on its most selective
    /// dimension and compare candidates across the remaining dimensions.
    fn check_append_duplicate(&self, new_code: &[u32], new_row: usize) -> Result<()> {
        let (d, n) = (self.d, self.n);
        if d == 0 {
            // Zero dimensions: every row is the empty row.
            if n >= 1 {
                return Err(CoreError::DuplicateObject {
                    first: ObjectId(0),
                    second: ObjectId(new_row as u32),
                });
            }
            return Ok(());
        }
        let posting_len = |j: usize| {
            let flat = (self.offsets[j] + new_code[j]) as usize;
            (self.post_off[flat + 1] - self.post_off[flat]) as usize
        };
        let jmin = (0..d).min_by_key(|&j| posting_len(j)).expect("d > 0");
        let flat = (self.offsets[jmin] + new_code[jmin]) as usize;
        let (s, e) = (self.post_off[flat] as usize, self.post_off[flat + 1] as usize);
        'cand: for &r in &self.post_rows[s..e] {
            for (j, &code) in new_code.iter().enumerate() {
                if self.dense[j * n + r as usize] != code {
                    continue 'cand;
                }
            }
            return Err(CoreError::DuplicateObject {
                first: ObjectId(r),
                second: ObjectId(new_row as u32),
            });
        }
        Ok(())
    }

    /// Derive the context of `table`, which must be `self`'s table with row
    /// `removed` deleted (later rows shifted down by one).
    ///
    /// Codes whose last occurrence was the removed row are **retained** as
    /// orphans: their postings become empty and their candidate counts
    /// zero, so they can never surface in a view — but the per-dimension
    /// code *numbering* may then differ from a fresh `build` of the
    /// mutated table (which re-ranks by first appearance). View assembly
    /// orders coins by occurrence row, not code number, so every assembled
    /// view — and therefore every query answer — is still bit-identical to
    /// the fresh build's. Only [`BatchCoinContext::fingerprint`], an
    /// *identity* tag for scratch invalidation, is allowed to differ.
    pub fn with_row_removed(&self, table: &Table, removed: ObjectId) -> Result<Self> {
        let (d, n) = (self.d, self.n);
        let r = removed.index();
        if r >= n {
            return Err(CoreError::TargetOutOfRange { target: removed, rows: n });
        }
        debug_assert_eq!(table.dimensionality(), d);
        debug_assert_eq!(table.len(), n - 1);
        let nn = n - 1;
        let mut dense = Vec::with_capacity(d * nn);
        for j in 0..d {
            let stripe = &self.dense[j * n..(j + 1) * n];
            dense.extend_from_slice(&stripe[..r]);
            dense.extend_from_slice(&stripe[r + 1..]);
        }
        // Postings drop the removed row and renumber later rows; the first
        // two occurrences are re-read straight off the spliced segments
        // (they stay ascending).
        let total = self.code_values.len();
        let mut first_row = Vec::with_capacity(total);
        let mut second_row = Vec::with_capacity(total);
        let mut post_off = Vec::with_capacity(total + 1);
        post_off.push(0u32);
        let mut post_rows = Vec::with_capacity(d * nn);
        for flat in 0..total {
            let (s, e) = (self.post_off[flat] as usize, self.post_off[flat + 1] as usize);
            let start = post_rows.len();
            for &row in &self.post_rows[s..e] {
                match (row as usize).cmp(&r) {
                    std::cmp::Ordering::Less => post_rows.push(row),
                    std::cmp::Ordering::Equal => {}
                    std::cmp::Ordering::Greater => post_rows.push(row - 1),
                }
            }
            post_off.push(post_rows.len() as u32);
            first_row.push(post_rows.get(start).copied().unwrap_or(u32::MAX));
            second_row.push(post_rows.get(start + 1).copied().unwrap_or(u32::MAX));
        }
        let fingerprint = fingerprint(d, nn, &dense);
        Ok(Self {
            d,
            n: nn,
            dense,
            code_values: self.code_values.clone(),
            offsets: self.offsets.clone(),
            first_row,
            second_row,
            post_off,
            post_rows,
            fingerprint,
        })
    }

    /// The rows carrying `value` on `dim`, ascending — empty when the value
    /// never occurs there (or `dim` is out of range). These are the targets
    /// the write path dirties when an edited preference pair changes the
    /// coin that `value` faces.
    pub fn value_rows(&self, dim: DimId, value: ValueId) -> &[u32] {
        let j = dim.index();
        if j >= self.d {
            return &[];
        }
        let lo = self.offsets[j] as usize;
        let hi = self.offsets[j + 1] as usize;
        let Some(c) = self.code_values[lo..hi].iter().position(|&w| w == value) else {
            return &[];
        };
        let flat = lo + c;
        &self.post_rows[self.post_off[flat] as usize..self.post_off[flat + 1] as usize]
    }

    /// The targets row `attacker` can possibly attack under `prefs`: every
    /// row `t ≠ attacker` such that on each dimension where their values
    /// differ, `pr_strict(attacker_j, t_j) > 0`. These are exactly the
    /// targets whose coin view gains (insert) or loses (remove) an
    /// attacker when `attacker` enters or leaves the dataset — the write
    /// path's dirty set.
    ///
    /// Enumerated from the posting lists of the attacker's most selective
    /// dimension (candidates = rows sharing its value there, plus rows
    /// whose value it beats with positive probability), then verified
    /// across the remaining dimensions — O(candidates · d), not O(n · d),
    /// on selective datasets.
    pub fn attackable_targets<M: PreferenceModel>(
        &self,
        prefs: &M,
        attacker: ObjectId,
    ) -> Result<Vec<ObjectId>> {
        let (d, n) = (self.d, self.n);
        let a = attacker.index();
        if a >= n {
            return Err(CoreError::TargetOutOfRange { target: attacker, rows: n });
        }
        if d == 0 || n <= 1 {
            return Ok(Vec::new());
        }
        // Per dimension: which codes the attacker's value beats with
        // positive probability (the target-side classification — note the
        // argument order is pr_strict(attacker value, target value)).
        let total = self.code_values.len();
        let mut positive = vec![false; total];
        let mut acode = vec![0u32; d];
        let mut cand_count = vec![0usize; d];
        for j in 0..d {
            let lo = self.offsets[j] as usize;
            let hi = self.offsets[j + 1] as usize;
            let ac = self.dense[j * n + a];
            acode[j] = ac;
            let av = self.code_values[lo + ac as usize];
            // Rows sharing the attacker's value contribute no coin on this
            // dimension; minus one for the attacker itself.
            let tslot = lo + ac as usize;
            let mut cand = (self.post_off[tslot + 1] - self.post_off[tslot]) as usize - 1;
            for (off, slot) in positive[lo..hi].iter_mut().enumerate() {
                let flat = lo + off;
                if flat == tslot {
                    continue;
                }
                let p = prefs.pr_strict(DimId::from(j), av, self.code_values[flat]);
                if p > 0.0 {
                    *slot = true;
                    cand += (self.post_off[flat + 1] - self.post_off[flat]) as usize;
                }
            }
            cand_count[j] = cand;
        }
        let jmin = (0..d).min_by_key(|&j| cand_count[j]).expect("d > 0");
        let lo = self.offsets[jmin] as usize;
        let hi = self.offsets[jmin + 1] as usize;
        let mut out = Vec::new();
        'rows: for flat in lo..hi {
            let on_value = (flat - lo) as u32 == acode[jmin];
            if !on_value && !positive[flat] {
                continue;
            }
            let (s, e) = (self.post_off[flat] as usize, self.post_off[flat + 1] as usize);
            't: for &t in &self.post_rows[s..e] {
                let t = t as usize;
                if t == a {
                    continue;
                }
                for j in 0..d {
                    let tcode = self.dense[j * n + t];
                    if tcode != acode[j] && !positive[(self.offsets[j] + tcode) as usize] {
                        continue 't;
                    }
                }
                out.push(ObjectId(t as u32));
                if out.len() == n - 1 {
                    break 'rows;
                }
            }
        }
        out.sort_unstable_by_key(|o| o.index());
        Ok(out)
    }

    /// Number of objects in the underlying table.
    pub fn n_objects(&self) -> usize {
        self.n
    }

    /// Dimensionality of the underlying table.
    pub fn dimensionality(&self) -> usize {
        self.d
    }

    /// The distinct values of dimension `j`, in dense-code order (code `c`
    /// maps to the `c`-th entry). This is the value universe a preference
    /// model is consulted over, which is exactly what a dataset+preference
    /// fingerprint must cover.
    pub fn dim_values(&self, j: usize) -> &[ValueId] {
        &self.code_values[self.offsets[j] as usize..self.offsets[j + 1] as usize]
    }

    /// The raw value of `target` on dimension `dim` — the `b` of every
    /// coin probability `Pr(a ≺ b)` in `target`'s view on that dimension.
    /// The sensitivity drivers use this to map a coin's
    /// `(dim, foreign value)` key back to the full preference direction.
    ///
    /// # Panics
    ///
    /// Panics when `target` or `dim` is out of range.
    pub fn target_value(&self, target: ObjectId, dim: DimId) -> ValueId {
        let (j, t) = (dim.0 as usize, target.index());
        assert!(j < self.d && t < self.n, "target/dim out of range");
        self.code_values[(self.offsets[j] + self.dense[j * self.n + t]) as usize]
    }

    /// Identity hash of the dense-coded table (dimensions, row count, and
    /// every cell's code). Two contexts with equal fingerprints assemble
    /// identical views for every target.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Assemble the coin view of `sky(target)` into `out`, reusing `out`'s
    /// buffers and `scratch`'s stamp tables.
    ///
    /// The result is equivalent to `CoinView::build(table, prefs, target)`
    /// up to pruning of impossible attackers and an order-preserving coin
    /// relabelling (see the module docs); every query answer derived from
    /// it is bit-identical to the per-target path.
    pub fn view_into<M: PreferenceModel>(
        &self,
        prefs: &M,
        target: ObjectId,
        scratch: &mut BatchScratch,
        out: &mut CoinView,
    ) -> Result<()> {
        let (d, n) = (self.d, self.n);
        let t = target.index();
        if t >= n {
            return Err(CoreError::TargetOutOfRange { target, rows: n });
        }
        scratch.ensure(self);
        // Refresh the pr_strict memo and the zero/nonzero code index of
        // every dimension whose target value changed. Entries stay valid
        // exactly while the target's value on that dimension does.
        for j in 0..d {
            let tcode = self.dense[j * n + t];
            if scratch.dim_tcode[j] == tcode {
                continue;
            }
            scratch.dim_tcode[j] = tcode;
            let lo = self.offsets[j] as usize;
            let hi = self.offsets[j + 1] as usize;
            let ov = self.code_values[lo + tcode as usize];
            let nz = &mut scratch.dim_nz[j];
            nz.clear();
            let tslot = lo + tcode as usize;
            let mut cand = (self.post_off[tslot + 1] - self.post_off[tslot]) as usize;
            for flat in lo..hi {
                let code = (flat - lo) as u32;
                if code == tcode {
                    continue;
                }
                let p = prefs.pr_strict(DimId::from(j), self.code_values[flat], ov);
                check_probability(p, "coin probability").map_err(|_| {
                    CoreError::InvalidProbability { value: p, context: "preference model output" }
                })?;
                scratch.memo_prob[flat] = p;
                if p > 0.0 {
                    nz.push(code);
                    cand += (self.post_off[flat + 1] - self.post_off[flat]) as usize;
                }
            }
            scratch.dim_cand[j] = cand;
        }
        let epoch = scratch.next_epoch();
        match (0..d).min_by_key(|&j| scratch.dim_cand[j]) {
            Some(jmin) if scratch.dim_cand[jmin].saturating_mul(SPARSE_FRACTION) <= n => {
                self.sparse_view(t, jmin, epoch, scratch, out);
            }
            Some(_) => self.dense_view(t, epoch, scratch, out),
            // Zero dimensions: with the duplicate check passed, the table
            // has at most one row, so the view is empty.
            None => {
                out.coin_prob.clear();
                out.coin_key.clear();
                out.attackers.clear();
            }
        }
        Ok(())
    }

    /// Row-major full scan; bit-for-bit the view `CoinView::build` returns.
    fn dense_view(&self, t: usize, epoch: u32, scratch: &mut BatchScratch, out: &mut CoinView) {
        let (d, n) = (self.d, self.n);
        out.coin_prob.clear();
        out.coin_key.clear();
        let n_att = n - 1;
        out.attackers.truncate(n_att);
        while out.attackers.len() < n_att {
            out.attackers.push(Attacker { coins: Vec::with_capacity(d), source: ObjectId(0) });
        }
        let mut slot = 0usize;
        for row in 0..n {
            if row == t {
                continue;
            }
            let dst = &mut out.attackers[slot];
            dst.coins.clear();
            dst.source = ObjectId(row as u32);
            for j in 0..d {
                let qcode = self.dense[j * n + row];
                if qcode == scratch.dim_tcode[j] {
                    continue;
                }
                let flat = (self.offsets[j] + qcode) as usize;
                if scratch.coin_stamp[flat] != epoch {
                    scratch.coin_stamp[flat] = epoch;
                    scratch.coin_id[flat] = out.coin_prob.len() as u32;
                    out.coin_prob.push(scratch.memo_prob[flat]);
                    out.coin_key
                        .push(Some(CoinKey { dim: DimId::from(j), value: self.code_values[flat] }));
                }
                dst.coins.push(scratch.coin_id[flat]);
            }
            // A coin-free attacker would duplicate the target, which the
            // context build has excluded.
            debug_assert!(!dst.coins.is_empty());
            dst.coins.sort_unstable();
            slot += 1;
        }
    }

    /// Enumerate the rows that survive zero-coin pruning straight from the
    /// posting lists of dimension `jmin` (every survivor's code there is
    /// either the target's or nonzero), then build the already-pruned view
    /// in O(candidates · d). Coins are relabelled by `(first occurrence
    /// row ≠ t, dim)` rank — the order `CoinView::build` discovers them in.
    fn sparse_view(
        &self,
        t: usize,
        jmin: usize,
        epoch: u32,
        scratch: &mut BatchScratch,
        out: &mut CoinView,
    ) {
        let (d, n) = (self.d, self.n);
        let lo = self.offsets[jmin] as usize;
        scratch.cand.clear();
        self.push_postings(lo + scratch.dim_tcode[jmin] as usize, &mut scratch.cand);
        for idx in 0..scratch.dim_nz[jmin].len() {
            let c = scratch.dim_nz[jmin][idx] as usize;
            self.push_postings(lo + c, &mut scratch.cand);
        }
        // Each row appears in exactly one posting per dimension, so the
        // concatenation is duplicate-free; sort restores ascending rows.
        scratch.cand.sort_unstable();

        scratch.survivors.clear();
        scratch.coin_tmp.clear();
        'rows: for idx in 0..scratch.cand.len() {
            let r = scratch.cand[idx] as usize;
            if r == t {
                continue;
            }
            for j in 0..d {
                let qcode = self.dense[j * n + r];
                if qcode == scratch.dim_tcode[j] {
                    continue;
                }
                if scratch.memo_prob[(self.offsets[j] + qcode) as usize] <= 0.0 {
                    continue 'rows;
                }
            }
            scratch.survivors.push(r as u32);
            for j in 0..d {
                let qcode = self.dense[j * n + r];
                if qcode == scratch.dim_tcode[j] {
                    continue;
                }
                let flat = (self.offsets[j] + qcode) as usize;
                if scratch.coin_stamp[flat] != epoch {
                    scratch.coin_stamp[flat] = epoch;
                    // Survivor coins occur in some row ≠ t, so the
                    // second-occurrence fallback is always defined here.
                    let f = if self.first_row[flat] == t as u32 {
                        self.second_row[flat]
                    } else {
                        self.first_row[flat]
                    };
                    scratch.coin_tmp.push((((f as u64) << 32) | j as u64, flat as u32));
                }
            }
        }
        scratch.coin_tmp.sort_unstable();
        out.coin_prob.clear();
        out.coin_key.clear();
        for (id, &(key, flat)) in scratch.coin_tmp.iter().enumerate() {
            let flat = flat as usize;
            scratch.coin_id[flat] = id as u32;
            out.coin_prob.push(scratch.memo_prob[flat]);
            let j = (key & u64::from(u32::MAX)) as usize;
            out.coin_key.push(Some(CoinKey { dim: DimId::from(j), value: self.code_values[flat] }));
        }
        let n_att = scratch.survivors.len();
        out.attackers.truncate(n_att);
        while out.attackers.len() < n_att {
            out.attackers.push(Attacker { coins: Vec::with_capacity(d), source: ObjectId(0) });
        }
        for (slot, &r) in scratch.survivors.iter().enumerate() {
            let dst = &mut out.attackers[slot];
            dst.coins.clear();
            dst.source = ObjectId(r);
            for j in 0..d {
                let qcode = self.dense[j * n + r as usize];
                if qcode == scratch.dim_tcode[j] {
                    continue;
                }
                dst.coins.push(scratch.coin_id[(self.offsets[j] + qcode) as usize]);
            }
            // The relabelling is monotone in discovery order, so sorting
            // by new ids equals sorting by the ids `CoinView::build` uses.
            dst.coins.sort_unstable();
        }
    }

    fn push_postings(&self, flat: usize, cand: &mut Vec<u32>) {
        let (s, e) = (self.post_off[flat] as usize, self.post_off[flat + 1] as usize);
        cand.extend_from_slice(&self.post_rows[s..e]);
    }
}

fn fingerprint(d: usize, n: usize, dense: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |w: u64| {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    eat(d as u64);
    eat(n as u64);
    for &c in dense {
        eat(c as u64);
    }
    h
}

/// Reusable stamp tables for [`BatchCoinContext::view_into`]. One per
/// worker thread; cheap to create, free to reuse.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Which epoch last interned each (dim, code) slot.
    coin_stamp: Vec<u32>,
    /// Coin id assigned to each (dim, code) slot in the current epoch.
    coin_id: Vec<u32>,
    epoch: u32,
    /// pr_strict memo per (dim, code) slot, valid while the target keeps
    /// its value on the slot's dimension (tracked by `dim_tcode`).
    memo_prob: Vec<f64>,
    /// Target code each dimension's memo was refreshed for.
    dim_tcode: Vec<u32>,
    /// Codes with nonzero memoised probability, per dimension.
    dim_nz: Vec<Vec<u32>>,
    /// Candidate-row count of each dimension: total posting length of its
    /// nonzero codes plus the target-code posting.
    dim_cand: Vec<usize>,
    /// Candidate row / survivor row buffers for the sparse path.
    cand: Vec<u32>,
    survivors: Vec<u32>,
    /// Distinct survivor coins as (discovery-rank key, flat slot).
    coin_tmp: Vec<(u64, u32)>,
    fingerprint: u64,
}

impl BatchScratch {
    fn ensure(&mut self, ctx: &BatchCoinContext) {
        let total = *ctx.offsets.last().unwrap_or(&0) as usize;
        if self.fingerprint == ctx.fingerprint && self.coin_stamp.len() == total {
            return;
        }
        self.coin_stamp.clear();
        self.coin_stamp.resize(total, 0);
        self.coin_id.clear();
        self.coin_id.resize(total, 0);
        self.epoch = 0;
        self.memo_prob.clear();
        self.memo_prob.resize(total, 0.0);
        self.dim_tcode.clear();
        self.dim_tcode.resize(ctx.d, u32::MAX);
        self.dim_nz.iter_mut().for_each(Vec::clear);
        self.dim_nz.resize(ctx.d, Vec::new());
        self.dim_cand.clear();
        self.dim_cand.resize(ctx.d, 0);
        self.cand.clear();
        self.survivors.clear();
        self.coin_tmp.clear();
        self.fingerprint = ctx.fingerprint;
    }

    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.coin_stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coins::CoinRemap;
    use crate::preference::{DeterministicOrder, PrefPair, SeededPreferences, TablePreferences};

    fn example1() -> (Table, TablePreferences) {
        let t =
            Table::from_rows_raw(2, &[vec![0, 0], vec![1, 1], vec![1, 0], vec![2, 2], vec![0, 1]])
                .unwrap();
        (t, TablePreferences::with_default(PrefPair::half()))
    }

    /// Deterministic distinct-row table exercising shared values across
    /// rows and dimensions.
    fn wide_table(n: usize, d: usize) -> Table {
        let mut s = 0x9e37u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut rows = std::collections::BTreeSet::new();
        while rows.len() < n {
            rows.insert(next() % 7usize.pow(d as u32) as u64);
        }
        let decoded: Vec<Vec<u32>> = rows
            .iter()
            .map(|&i| {
                let mut x = i;
                (0..d)
                    .map(|_| {
                        let v = (x % 7) as u32;
                        x /= 7;
                        v
                    })
                    .collect()
            })
            .collect();
        Table::from_rows_raw(d, &decoded).unwrap()
    }

    /// Prune + coin-compact a view into the canonical form every solver
    /// consumes; batch views must agree with `CoinView::build` here even
    /// when the sparse path pre-pruned them.
    fn canonical(view: &CoinView) -> CoinView {
        let mut pruned = view.clone();
        pruned.prune_impossible();
        let ids: Vec<usize> = (0..pruned.n_attackers()).collect();
        let mut remap = CoinRemap::default();
        let mut out = CoinView::empty();
        pruned.restrict_into(&ids, &mut remap, &mut out);
        out
    }

    #[test]
    fn batch_views_match_single_shot_builds_bit_for_bit() {
        // All-positive preferences keep every row a candidate, so the
        // dense path runs and the views must be literally identical.
        let (t, p) = example1();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let mut scratch = BatchScratch::default();
        let mut out = CoinView::empty();
        for target in t.objects() {
            let fresh = CoinView::build(&t, &p, target).unwrap();
            ctx.view_into(&p, target, &mut scratch, &mut out).unwrap();
            assert_eq!(fresh, out, "target {target}");
        }
    }

    #[test]
    fn batch_views_match_on_wider_seeded_instances() {
        let t = wide_table(60, 3);
        let p = SeededPreferences::complementary(42);
        let ctx = BatchCoinContext::build(&t).unwrap();
        let mut scratch = BatchScratch::default();
        let mut out = CoinView::empty();
        // Twice over all targets: the second sweep runs entirely on warm
        // memo entries and must still match.
        for _ in 0..2 {
            for target in t.objects() {
                let fresh = CoinView::build(&t, &p, target).unwrap();
                ctx.view_into(&p, target, &mut scratch, &mut out).unwrap();
                assert_eq!(fresh, out, "target {target}");
            }
        }
    }

    #[test]
    fn sparse_views_are_canonically_equal_to_single_shot_builds() {
        // Deterministic order yields many zero coins, so most targets take
        // the sparse path; the canonical (pruned, compacted) forms must
        // agree bit-for-bit, including attacker sources and coin keys.
        let t = wide_table(60, 3);
        let p = DeterministicOrder::ascending();
        let ctx = BatchCoinContext::build(&t).unwrap();
        let mut scratch = BatchScratch::default();
        let mut out = CoinView::empty();
        for _ in 0..2 {
            for target in t.objects() {
                let fresh = CoinView::build(&t, &p, target).unwrap();
                ctx.view_into(&p, target, &mut scratch, &mut out).unwrap();
                assert_eq!(
                    fresh.has_certain_attacker(),
                    out.has_certain_attacker(),
                    "target {target}"
                );
                assert_eq!(canonical(&fresh), canonical(&out), "target {target}");
            }
        }
    }

    #[test]
    fn scratch_moved_across_contexts_resets_itself() {
        let ta = wide_table(20, 2);
        let tb = wide_table(33, 3);
        let p = SeededPreferences::complementary(7);
        let ca = BatchCoinContext::build(&ta).unwrap();
        let cb = BatchCoinContext::build(&tb).unwrap();
        let mut scratch = BatchScratch::default();
        let mut out = CoinView::empty();
        ca.view_into(&p, ObjectId(3), &mut scratch, &mut out).unwrap();
        cb.view_into(&p, ObjectId(5), &mut scratch, &mut out).unwrap();
        assert_eq!(CoinView::build(&tb, &p, ObjectId(5)).unwrap(), out);
        ca.view_into(&p, ObjectId(3), &mut scratch, &mut out).unwrap();
        assert_eq!(CoinView::build(&ta, &p, ObjectId(3)).unwrap(), out);
    }

    /// Assert `ctx` assembles, for every target of `t`, views giving the
    /// same canonical form as a fresh `CoinView::build` — the invariant
    /// every query answer depends on.
    fn assert_views_match<M: PreferenceModel>(ctx: &BatchCoinContext, t: &Table, p: &M) {
        let mut scratch = BatchScratch::default();
        let mut out = CoinView::empty();
        for target in t.objects() {
            let fresh = CoinView::build(t, p, target).unwrap();
            ctx.view_into(p, target, &mut scratch, &mut out).unwrap();
            assert_eq!(fresh.has_certain_attacker(), out.has_certain_attacker(), "{target}");
            assert_eq!(canonical(&fresh), canonical(&out), "target {target}");
        }
    }

    #[test]
    fn incremental_append_equals_fresh_build() {
        let t = wide_table(40, 3);
        let mut ctx = BatchCoinContext::build(&t).unwrap();
        let mut cur = t;
        // Append rows mixing old values (0..7 universe) and brand-new ones.
        for (i, row) in
            [vec![0, 1, 2], vec![9, 9, 9], vec![3, 9, 0], vec![10, 0, 11]].iter().enumerate()
        {
            cur = cur
                .with_row_appended(&row.iter().map(|&v| ValueId(v)).collect::<Vec<_>>())
                .unwrap();
            ctx = ctx.with_row_appended(&cur).unwrap();
            let fresh = BatchCoinContext::build(&cur).unwrap();
            // Appending preserves first-appearance order, so the whole
            // structure — codes, postings, fingerprint — is identical.
            assert_eq!(ctx, fresh, "append step {i}");
        }
        assert_views_match(&ctx, &cur, &SeededPreferences::complementary(11));
    }

    #[test]
    fn incremental_append_detects_duplicates_via_postings() {
        let (t, _) = example1();
        let ctx = BatchCoinContext::build(&t).unwrap();
        // Row [1, 0] duplicates row 2.
        let grown = t.with_row_appended(&[ValueId(1), ValueId(0)]).unwrap();
        let err = ctx.with_row_appended(&grown).unwrap_err();
        assert_eq!(err, CoreError::DuplicateObject { first: ObjectId(2), second: ObjectId(5) });
        // A row with one brand-new value short-circuits the check.
        let grown = t.with_row_appended(&[ValueId(7), ValueId(0)]).unwrap();
        assert!(ctx.with_row_appended(&grown).is_ok());
    }

    #[test]
    fn incremental_remove_views_equal_fresh_build() {
        let t = wide_table(40, 3);
        let p = SeededPreferences::complementary(5);
        let mut ctx = BatchCoinContext::build(&t).unwrap();
        let mut cur = t;
        // Remove first, middle, and last rows; removing row 0 retires a
        // value's first occurrence, exercising the orphan-code path where
        // the incremental numbering diverges from a fresh build's.
        for r in [0usize, 17, 36] {
            cur = cur.with_row_removed(ObjectId(r as u32)).unwrap();
            ctx = ctx.with_row_removed(&cur, ObjectId(r as u32)).unwrap();
            assert_eq!(ctx.n_objects(), cur.len());
            assert_views_match(&ctx, &cur, &p);
        }
        assert_views_match(&ctx, &cur, &DeterministicOrder::ascending());
    }

    #[test]
    fn mixed_append_remove_chain_stays_consistent() {
        let t = wide_table(30, 2);
        let p = SeededPreferences::complementary(3);
        let mut ctx = BatchCoinContext::build(&t).unwrap();
        let mut cur = t;
        for step in 0..12 {
            if step % 3 == 2 {
                let r = ObjectId((step * 2 % cur.len()) as u32);
                cur = cur.with_row_removed(r).unwrap();
                ctx = ctx.with_row_removed(&cur, r).unwrap();
            } else {
                let row = vec![ValueId((step % 9) as u32), ValueId((step * 5 % 11) as u32)];
                let grown = cur.with_row_appended(&row).unwrap();
                match ctx.with_row_appended(&grown) {
                    Ok(next) => {
                        ctx = next;
                        cur = grown;
                    }
                    // Duplicate appends are legitimately refused; the
                    // fresh build must agree.
                    Err(CoreError::DuplicateObject { .. }) => {
                        assert!(matches!(
                            BatchCoinContext::build(&grown),
                            Err(CoreError::DuplicateObject { .. })
                        ));
                    }
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            assert_views_match(&ctx, &cur, &p);
        }
    }

    #[test]
    fn attackable_targets_matches_brute_force() {
        let t = wide_table(40, 3);
        for p in [SeededPreferences::complementary(9), SeededPreferences::complementary(21)] {
            let ctx = BatchCoinContext::build(&t).unwrap();
            for a in t.objects() {
                let got = ctx.attackable_targets(&p, a).unwrap();
                let want: Vec<ObjectId> = t
                    .objects()
                    .filter(|&o| {
                        o != a
                            && (0..t.dimensionality()).map(DimId::from).all(|j| {
                                let (av, ov) = (t.value(a, j), t.value(o, j));
                                av == ov || p.pr_strict(j, av, ov) > 0.0
                            })
                    })
                    .collect();
                assert_eq!(got, want, "attacker {a}");
            }
        }
    }

    #[test]
    fn context_rejects_duplicates_and_bad_targets() {
        let t = Table::from_rows_raw(1, &[vec![0], vec![1], vec![0]]).unwrap();
        assert!(matches!(BatchCoinContext::build(&t), Err(CoreError::DuplicateObject { .. })));
        let t2 = Table::from_rows_raw(1, &[vec![0], vec![1]]).unwrap();
        let ctx = BatchCoinContext::build(&t2).unwrap();
        let p = TablePreferences::with_default(PrefPair::half());
        let mut scratch = BatchScratch::default();
        let mut out = CoinView::empty();
        assert!(matches!(
            ctx.view_into(&p, ObjectId(9), &mut scratch, &mut out),
            Err(CoreError::TargetOutOfRange { .. })
        ));
    }
}
