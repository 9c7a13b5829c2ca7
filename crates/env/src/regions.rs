//! Region costs: what one straight-line run of code retires each time it
//! runs, so a VM counts how often each run is entered and multiplies
//! later.
//!
//! Both VMs split every function into *regions*: maximal runs of ops
//! entered only at their head and left only at their end. A region ends
//! before every branch target and after every branch, call and return,
//! so once entered it retires all of its ops, and a hotness band can only
//! change between regions. The dispatch loop adds one to a region's
//! counter in its function's current band at each entry; reading a
//! record folds every counter times its region's class and Table 12
//! vector into [`BandCounts`](crate::BandCounts)-shaped sums. The integer
//! sums equal what per-op counting retires, so no record changes.

use crate::{ArithKind, OpClass, OpCounts, OP_CLASS_COUNT};
use std::ops::Range;

/// Counters a region charges: the op classes, then the Table 12 columns.
const COUNTERS: usize = OP_CLASS_COUNT + 7;

/// Bits of a packed bump that hold its count; the counter sits above.
const COUNT_BITS: u32 = 27;

/// The regions of one function: each one's position range in the code it
/// was cut from and its per-class and Table 12 counts, stored sparsely
/// in one flat table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTable {
    /// Region `r` covers positions `starts[r]..starts[r + 1]`; the last
    /// entry is the code length.
    starts: Vec<u32>,
    /// Region `r`'s charges are `bumps[firsts[r]..firsts[r + 1]]`; the
    /// last entry is the length of `bumps`.
    firsts: Vec<u32>,
    /// `counter << COUNT_BITS | n`: `n` ops of a counter, where a counter
    /// below [`OP_CLASS_COUNT`] is an [`OpClass`] and the rest are Table
    /// 12 columns.
    bumps: Vec<u32>,
}

impl RegionTable {
    /// Cut positions `0..heads.len()` into regions, one starting at each
    /// `true` in `heads` (`heads[0]` must be one), charging position `p`
    /// with `charge(p)`: its class and Table 12 kind, or `None` for an op
    /// whose charge stays dynamic.
    pub fn build(
        heads: &[bool],
        mut charge: impl FnMut(usize) -> Option<(OpClass, Option<ArithKind>)>,
    ) -> Self {
        debug_assert!(
            heads.first().is_none_or(|h| *h),
            "position 0 heads a region"
        );
        let mut table = RegionTable {
            starts: Vec::new(),
            firsts: Vec::new(),
            bumps: Vec::new(),
        };
        let mut counts = [0u32; COUNTERS];
        for (pos, &head) in heads.iter().enumerate() {
            if head {
                table.close(&mut counts);
                table.starts.push(pos as u32);
            }
            if let Some((class, arith)) = charge(pos) {
                counts[class as usize] += 1;
                if let Some(kind) = arith {
                    counts[OP_CLASS_COUNT + kind.column()] += 1;
                }
            }
        }
        table.close(&mut counts);
        table.starts.push(heads.len() as u32);
        table.firsts.push(table.bumps.len() as u32);
        // Lowered code lives as long as its cached artifact.
        table.starts.shrink_to_fit();
        table.firsts.shrink_to_fit();
        table.bumps.shrink_to_fit();
        table
    }

    /// End the open region (if any) with `counts`, and reset them.
    fn close(&mut self, counts: &mut [u32; COUNTERS]) {
        if self.starts.is_empty() {
            return;
        }
        self.firsts.push(self.bumps.len() as u32);
        for (counter, n) in counts.iter_mut().enumerate() {
            while *n > 0 {
                let part = (*n).min((1 << COUNT_BITS) - 1);
                self.bumps.push((counter as u32) << COUNT_BITS | part);
                *n -= part;
            }
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether the code had no positions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The positions region `r` covers.
    pub fn range(&self, r: usize) -> Range<usize> {
        self.starts[r] as usize..self.starts[r + 1] as usize
    }

    /// Ops region `r` retires: its fuel.
    #[inline]
    pub fn steps(&self, r: usize) -> u32 {
        self.starts[r + 1] - self.starts[r]
    }

    /// The region holding position `pos`.
    pub fn region_at(&self, pos: usize) -> usize {
        self.starts.partition_point(|&s| s as usize <= pos) - 1
    }

    /// The entered regions of one row of counters (`hits[r]` for region
    /// `r`) of function `func` in `band`, as profile entries.
    fn profile<'a>(
        &'a self,
        func: usize,
        band: usize,
        hits: &'a [u64],
    ) -> impl Iterator<Item = RegionHits> + 'a {
        let entered = hits.iter().enumerate().filter(|(_, h)| **h > 0);
        entered.map(move |(r, &hits)| RegionHits {
            func,
            band,
            code: self.range(r),
            hits,
        })
    }

    /// Add `hits[r]` runs of every region `r` to `ops` and to the Table 12
    /// `columns`.
    pub fn fold(&self, hits: &[u64], ops: &mut OpCounts, columns: &mut [u64; 7]) {
        debug_assert_eq!(hits.len(), self.len());
        for (r, &h) in hits.iter().enumerate().filter(|(_, h)| **h > 0) {
            let bumps = &self.bumps[self.firsts[r] as usize..self.firsts[r + 1] as usize];
            for &bump in bumps {
                let counter = (bump >> COUNT_BITS) as usize;
                let n = h * u64::from(bump & ((1 << COUNT_BITS) - 1));
                match counter.checked_sub(OP_CLASS_COUNT) {
                    None => ops.0[counter] += n,
                    Some(column) => columns[column] += n,
                }
            }
        }
    }
}

/// The region entry counters of one run: one flat vector of rows, a row
/// of a function's regions for each hotness band the function has run
/// in, added when it first runs there. A VM adds one at `row + region`
/// on each region entry ([`RegionCounters::enter`]), with `row` from
/// [`RegionCounters::add_row`]; everything else here is cold.
#[derive(Debug, Clone, Default)]
pub struct RegionCounters {
    /// `hits[row + r]`: entries of region `r` in the row at `row`.
    hits: Vec<u64>,
    /// Each row's function, band and offset in `hits`.
    rows: Vec<(usize, usize, usize)>,
}

impl RegionCounters {
    /// Give function `func`, cut into `regions` regions, a zeroed row in
    /// `band`; returns the row's offset.
    pub fn add_row(&mut self, func: usize, band: usize, regions: usize) -> usize {
        let row = self.hits.len();
        self.hits.resize(row + regions, 0);
        self.rows.push((func, band, row));
        row
    }

    /// Count one entry of `region` in the row at `row`.
    #[inline(always)]
    pub fn enter(&mut self, row: usize, region: usize) {
        self.hits[row + region] += 1;
    }

    /// Call `f` with each row's function, band and counters, with
    /// `table(func)` the regions function `func` was cut into.
    fn each_row<'t>(
        &self,
        table: impl Fn(usize) -> &'t RegionTable,
        mut f: impl FnMut(usize, usize, &'t RegionTable, &[u64]),
    ) {
        for &(func, band, row) in &self.rows {
            let regions = table(func);
            f(func, band, regions, &self.hits[row..][..regions.len()]);
        }
    }

    /// Add every counter times its region's charges to `ops[band]` and to
    /// the Table 12 `columns`, with `table` as in
    /// [`RegionCounters::profile`].
    pub fn fold<'t>(
        &self,
        table: impl Fn(usize) -> &'t RegionTable,
        ops: &mut [OpCounts],
        columns: &mut [u64; 7],
    ) {
        self.each_row(table, |_, band, regions, hits| {
            regions.fold(hits, &mut ops[band], columns)
        });
    }

    /// The entered regions, as profile entries, with `table(func)` the
    /// regions function `func` was cut into.
    pub fn profile<'t>(&self, table: impl Fn(usize) -> &'t RegionTable) -> Vec<RegionHits> {
        let mut profile = Vec::new();
        self.each_row(table, |func, band, regions, hits| {
            profile.extend(regions.profile(func, band, hits))
        });
        profile
    }

    /// Settle an entry of `region` of `table`, counted in the row at
    /// `row`, whose run stopped before position `end` (the op that
    /// failed, and every op before it, ran): take the entry back and
    /// charge positions from the region's head to `end` one by one with
    /// `charge` (as in [`RegionTable::build`]) into `ops` and `columns`.
    /// Returns the ops that did not run: the fuel to give back. Cold: it
    /// runs once per failed run.
    #[cold]
    #[allow(clippy::too_many_arguments)]
    pub fn settle(
        &mut self,
        row: usize,
        region: usize,
        table: &RegionTable,
        end: usize,
        mut charge: impl FnMut(usize) -> Option<(OpClass, Option<ArithKind>)>,
        ops: &mut OpCounts,
        columns: &mut [u64; 7],
    ) -> u64 {
        let range = table.range(region);
        debug_assert!(range.start < end && end <= range.end);
        if end == range.end {
            return 0;
        }
        self.hits[row + region] -= 1;
        for pos in range.start..end {
            if let Some((class, arith)) = charge(pos) {
                ops.bump(class, 1);
                if let Some(kind) = arith {
                    columns[kind.column()] += 1;
                }
            }
        }
        (range.end - end) as u64
    }
}

/// One region's entries in one band: an entry of a run's region
/// profile, which its record folds away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionHits {
    /// The function: a defined-function index in Wasm, a chunk index in
    /// JS.
    pub func: usize,
    /// The hotness band the entries were counted in.
    pub band: usize,
    /// The code positions the region covers: source instructions in
    /// Wasm, bytecode ops in JS.
    pub code: Range<usize>,
    /// How often the region was entered.
    pub hits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_split_at_heads_and_fold_their_counts() {
        let ops = [
            (OpClass::Local, None),
            (OpClass::IntAlu, Some(ArithKind::Add)),
            (OpClass::Branch, None),
            (OpClass::Local, None),
            (OpClass::IntMul, Some(ArithKind::Mul)),
        ];
        let heads = [true, false, false, true, false];
        let table = RegionTable::build(&heads, |p| (p != 3).then_some(ops[p]));
        assert_eq!(table.len(), 2);
        assert_eq!((table.range(0), table.range(1)), (0..3, 3..5));
        assert_eq!((table.steps(0), table.steps(1)), (3, 2));
        assert_eq!(
            (0..5).map(|p| table.region_at(p)).collect::<Vec<_>>(),
            [0, 0, 0, 1, 1]
        );
        let mut counters = RegionCounters::default();
        let hot = counters.add_row(7, 1, table.len());
        for _ in 0..10 {
            counters.enter(hot, 0);
        }
        for _ in 0..3 {
            counters.enter(hot, 1);
        }
        let mut counts = [OpCounts::new(); 2];
        let mut columns = [0; 7];
        counters.fold(
            |f| {
                assert_eq!(f, 7);
                &table
            },
            &mut counts,
            &mut columns,
        );
        assert_eq!(counts[0], OpCounts::new(), "band 0 ran nothing");
        let counts = counts[1];
        assert_eq!(counts.get(OpClass::Local), 10, "position 3 stays dynamic");
        assert_eq!(counts.get(OpClass::IntAlu), 10);
        assert_eq!(counts.get(OpClass::Branch), 10);
        assert_eq!(counts.get(OpClass::IntMul), 3);
        assert_eq!(columns, [10, 3, 0, 0, 0, 0, 0]);
        let profile = counters.profile(|_| &table);
        assert_eq!(
            profile
                .iter()
                .map(|e| (e.func, e.band, e.code.clone(), e.hits))
                .collect::<Vec<_>>(),
            [(7, 1, 0..3, 10), (7, 1, 3..5, 3)]
        );

        // The last entry of region 0 stopped at position 1 (the op at
        // 1 failed): one entry less, positions 0 and 1 charged, one op
        // of fuel back.
        let (mut settled, mut columns) = (OpCounts::new(), [0; 7]);
        let back = counters.settle(
            hot,
            0,
            &table,
            2,
            |p| Some(ops[p]),
            &mut settled,
            &mut columns,
        );
        assert_eq!(back, 1);
        assert_eq!(
            (settled.get(OpClass::Local), settled.get(OpClass::IntAlu)),
            (1, 1)
        );
        assert_eq!(settled.get(OpClass::Branch), 0);
        assert_eq!(columns, [1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(counters.profile(|_| &table)[0].hits, 9);
        // An op that fails at its region's end leaves the entry alone.
        let back = counters.settle(
            hot,
            1,
            &table,
            5,
            |p| Some(ops[p]),
            &mut settled,
            &mut columns,
        );
        assert_eq!((back, counters.profile(|_| &table)[1].hits), (0, 3));
    }
}
