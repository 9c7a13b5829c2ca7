//! Instruction taxonomy shared by both virtual machines.
//!
//! The Wasm interpreter (`wb-wasm-vm`) and the MiniJS engine (`wb-jsvm`)
//! classify every retired operation into an [`OpClass`] and accumulate
//! counts in an [`OpCounts`]. Execution time is then
//! `Σ counts[class] × CostTable[class] × tier multiplier × platform multiplier`.
//!
//! Keeping the taxonomy shared means a matrix multiply compiled to Wasm and
//! the "same" multiply written in MiniJS are charged from the same base
//! table — the *differences* the paper measures come from tier multipliers,
//! engine events (parse/JIT/GC) and codegen quality, not from incomparable
//! accounting.

/// Number of operation classes (length of the [`OpCounts`] array).
pub const OP_CLASS_COUNT: usize = 16;

/// Category of a retired operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpClass {
    /// Integer add/sub/bitwise logic.
    IntAlu = 0,
    /// Integer multiplication.
    IntMul = 1,
    /// Integer division / remainder.
    IntDiv = 2,
    /// Floating-point add/sub/neg/abs.
    FloatAlu = 3,
    /// Floating-point multiplication.
    FloatMul = 4,
    /// Floating-point division / sqrt.
    FloatDiv = 5,
    /// Memory / heap / array load.
    Load = 6,
    /// Memory / heap / array store.
    Store = 7,
    /// Conditional or unconditional branch, loop back-edge.
    Branch = 8,
    /// Function call + return overhead.
    Call = 9,
    /// Constant materialization.
    Const = 10,
    /// Local variable / register read or write, stack shuffling.
    Local = 11,
    /// Global variable read or write.
    Global = 12,
    /// Comparison producing a boolean/i32 flag.
    Compare = 13,
    /// Numeric conversion (int↔float, width changes).
    Convert = 14,
    /// Anything else (drops, selects, nops, misc VM work).
    Other = 15,
}

impl OpClass {
    /// All classes, in index order.
    pub const ALL: [OpClass; OP_CLASS_COUNT] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FloatAlu,
        OpClass::FloatMul,
        OpClass::FloatDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Call,
        OpClass::Const,
        OpClass::Local,
        OpClass::Global,
        OpClass::Compare,
        OpClass::Convert,
        OpClass::Other,
    ];

    /// Stable short name, used in reports and CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::IntAlu => "int_alu",
            OpClass::IntMul => "int_mul",
            OpClass::IntDiv => "int_div",
            OpClass::FloatAlu => "f_alu",
            OpClass::FloatMul => "f_mul",
            OpClass::FloatDiv => "f_div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Call => "call",
            OpClass::Const => "const",
            OpClass::Local => "local",
            OpClass::Global => "global",
            OpClass::Compare => "cmp",
            OpClass::Convert => "convert",
            OpClass::Other => "other",
        }
    }
}

/// Per-class retired-operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts(pub [u64; OP_CLASS_COUNT]);

impl OpCounts {
    /// All-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` retired operations of class `class`.
    #[inline]
    pub fn bump(&mut self, class: OpClass, n: u64) {
        self.0[class as usize] += n;
    }

    /// Count for one class.
    #[inline]
    pub fn get(&self, class: OpClass) -> u64 {
        self.0[class as usize]
    }

    /// Total operations across all classes.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &OpCounts) -> OpCounts {
        let mut out = *self;
        for (o, x) in out.0.iter_mut().zip(other.0.iter()) {
            *o += x;
        }
        out
    }

    /// Element-wise difference (`self - other`), saturating at zero.
    pub fn delta_since(&self, other: &OpCounts) -> OpCounts {
        let mut out = OpCounts::new();
        for (i, slot) in out.0.iter_mut().enumerate() {
            *slot = self.0[i].saturating_sub(other.0[i]);
        }
        out
    }
}

/// Cost in abstract machine cycles for each operation class.
///
/// These model an optimized native instruction mix; tier multipliers (a
/// Wasm baseline tier or a JS interpreter runs every class N× slower) and
/// the per-platform cycle time scale them into nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostTable(pub [f64; OP_CLASS_COUNT]);

impl CostTable {
    /// The reference table: costs roughly proportional to modern
    /// out-of-order-core latencies (ALU 1, mul 3, div 20, loads 2, …).
    pub const fn reference() -> Self {
        let mut t = [1.0; OP_CLASS_COUNT];
        t[OpClass::IntAlu as usize] = 1.0;
        t[OpClass::IntMul as usize] = 3.0;
        t[OpClass::IntDiv as usize] = 20.0;
        t[OpClass::FloatAlu as usize] = 2.0;
        t[OpClass::FloatMul as usize] = 3.0;
        t[OpClass::FloatDiv as usize] = 15.0;
        t[OpClass::Load as usize] = 2.0;
        t[OpClass::Store as usize] = 2.0;
        t[OpClass::Branch as usize] = 1.5;
        t[OpClass::Call as usize] = 6.0;
        t[OpClass::Const as usize] = 0.5;
        t[OpClass::Local as usize] = 0.5;
        t[OpClass::Global as usize] = 2.0;
        t[OpClass::Compare as usize] = 1.0;
        t[OpClass::Convert as usize] = 2.0;
        t[OpClass::Other as usize] = 1.0;
        CostTable(t)
    }

    /// Cost of one operation of `class`, in cycles.
    #[inline]
    pub fn cost(&self, class: OpClass) -> f64 {
        self.0[class as usize]
    }

    /// Total cycles for a counter set, applying a uniform multiplier.
    pub fn cycles(&self, counts: &OpCounts, multiplier: f64) -> f64 {
        let mut acc = 0.0;
        for (i, &n) in counts.0.iter().enumerate() {
            acc += n as f64 * self.0[i];
        }
        acc * multiplier
    }
}

impl Default for CostTable {
    fn default() -> Self {
        Self::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_class_indices_are_dense_and_unique() {
        let mut seen = [false; OP_CLASS_COUNT];
        for c in OpClass::ALL {
            assert!(!seen[c as usize], "duplicate index {}", c as usize);
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn counts_bump_and_total() {
        let mut c = OpCounts::new();
        c.bump(OpClass::IntAlu, 10);
        c.bump(OpClass::FloatMul, 5);
        c.bump(OpClass::IntAlu, 2);
        assert_eq!(c.get(OpClass::IntAlu), 12);
        assert_eq!(c.get(OpClass::FloatMul), 5);
        assert_eq!(c.total(), 17);
    }

    #[test]
    fn counts_merge_and_delta() {
        let mut a = OpCounts::new();
        a.bump(OpClass::Load, 7);
        let mut b = OpCounts::new();
        b.bump(OpClass::Load, 3);
        b.bump(OpClass::Store, 2);
        let m = a.merged(&b);
        assert_eq!(m.get(OpClass::Load), 10);
        assert_eq!(m.get(OpClass::Store), 2);
        let d = m.delta_since(&b);
        assert_eq!(d.get(OpClass::Load), 7);
        assert_eq!(d.get(OpClass::Store), 0);
    }

    #[test]
    fn cycles_weights_by_class() {
        let table = CostTable::reference();
        let mut c = OpCounts::new();
        c.bump(OpClass::IntDiv, 1);
        c.bump(OpClass::IntAlu, 1);
        let cyc = table.cycles(&c, 1.0);
        assert_eq!(cyc, 21.0);
        assert_eq!(table.cycles(&c, 2.0), 42.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = OpClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OP_CLASS_COUNT);
    }

    #[test]
    fn arith_columns_index_the_bumped_kind() {
        use ArithKind::*;
        for (i, kind) in [Add, Mul, Div, Rem, Shift, And, Or].into_iter().enumerate() {
            let mut counts = ArithCounts::default();
            counts.bump(kind);
            assert_eq!(kind.column(), i);
            assert_eq!(counts.columns()[kind.column()], 1);
            assert_eq!(ArithCounts::from_columns(counts.columns()), counts);
        }
    }
}

/// One Table 12 arithmetic column: the kind of an executed arithmetic
/// operation. Both VMs map their opcodes onto it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithKind {
    /// add/sub
    Add,
    /// mul
    Mul,
    /// div
    Div,
    /// rem
    Rem,
    /// shifts/rotates
    Shift,
    /// and
    And,
    /// or/xor
    Or,
}

impl ArithKind {
    /// This kind's index in [`ArithCounts::columns`].
    #[inline]
    pub fn column(self) -> usize {
        match self {
            ArithKind::Add => 0,
            ArithKind::Mul => 1,
            ArithKind::Div => 2,
            ArithKind::Rem => 3,
            ArithKind::Shift => 4,
            ArithKind::And => 5,
            ArithKind::Or => 6,
        }
    }
}

/// Fine-grained arithmetic profile for the Long.js operation-count study
/// (Table 12 / Appendix D): executed ADD/MUL/DIV/REM/SHIFT/AND/OR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArithCounts {
    /// Additions and subtractions.
    pub add: u64,
    /// Multiplications.
    pub mul: u64,
    /// Divisions.
    pub div: u64,
    /// Remainders.
    pub rem: u64,
    /// Shifts and rotates.
    pub shift: u64,
    /// Bitwise AND.
    pub and: u64,
    /// Bitwise OR / XOR.
    pub or: u64,
}

impl ArithCounts {
    /// Count one operation of `kind`.
    #[inline]
    pub fn bump(&mut self, kind: ArithKind) {
        match kind {
            ArithKind::Add => self.add += 1,
            ArithKind::Mul => self.mul += 1,
            ArithKind::Div => self.div += 1,
            ArithKind::Rem => self.rem += 1,
            ArithKind::Shift => self.shift += 1,
            ArithKind::And => self.and += 1,
            ArithKind::Or => self.or += 1,
        }
    }

    /// Total arithmetic operations.
    pub fn total(&self) -> u64 {
        self.add + self.mul + self.div + self.rem + self.shift + self.and + self.or
    }

    /// Table 12 column values, in column order.
    pub fn columns(&self) -> [u64; 7] {
        [
            self.add, self.mul, self.div, self.rem, self.shift, self.and, self.or,
        ]
    }

    /// The counts whose [`Self::columns`] are `columns`.
    pub fn from_columns(columns: [u64; 7]) -> Self {
        let [add, mul, div, rem, shift, and, or] = columns;
        ArithCounts {
            add,
            mul,
            div,
            rem,
            shift,
            and,
            or,
        }
    }

    /// Table 12 column headers.
    pub const HEADERS: [&'static str; 7] = ["ADD", "MUL", "DIV", "REM", "SHIFT", "AND", "OR"];
}
