//! Stable 64-bit plan signatures.
//!
//! CloudViews "relies on a lightweight subexpression hash, called a
//! *signature*, for scalable materialized view selection and efficient view
//! matching" (Sec 4.2). Two flavours:
//!
//! * [`strict_signature`] — hashes the full plan including literals; equal
//!   signatures mean syntactically identical subexpressions (view matching).
//! * [`template_signature`] — hashes the plan with filter literals
//!   abstracted away; equal signatures group the *instances of one recurring
//!   template* ("periodic runs of scripts with the same operations but
//!   different predicate values").
//!
//! Hashing is FNV-1a, implemented here so signatures are stable across Rust
//! versions and processes (std's `DefaultHasher` makes no such guarantee).

use crate::catalog::Catalog;
use crate::plan::{LogicalPlan, PlanKind};
use serde::{Deserialize, Serialize};

/// A 64-bit plan signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Signature(pub u64);

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sig-{:016x}", self.0)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME` to the powers 0 through 8: absorbing k zero bytes
/// multiplies the state by `PRIME_POWERS[k]`.
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Incremental FNV-1a hasher.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order: the same state as
    /// `write(&v.to_le_bytes())`, in fewer steps for small values.
    ///
    /// XOR with a zero byte leaves the state as it is, and wrapping
    /// multiplication is associative, so the k zero high bytes of `v` only
    /// multiply the state by `FNV_PRIME`^k. The low bytes up to the highest
    /// nonzero one are hashed one by one, and the zero bytes above them in
    /// one multiply.
    pub fn write_u64(&mut self, v: u64) {
        let zeros = (v.leading_zeros() / 8) as usize;
        self.write(&v.to_le_bytes()[..8 - zeros]);
        self.0 = self.0.wrapping_mul(PRIME_POWERS[zeros]);
    }

    /// Absorbs an `i64`: the bytes of its two's-complement `u64`.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Finishes and returns the hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn hash_node(
    plan: &LogicalPlan,
    hasher: &mut Fnv1a,
    include_literals: bool,
    expand: Option<&Catalog>,
) {
    match &plan.kind {
        PlanKind::Scan { table } => {
            // A scan of a registered view hashes as the plan it
            // materializes, so signatures (and everything keyed on them,
            // like the truth oracle's correlation factors) are invariant
            // under semantics-preserving view rewrites.
            if let Some(def) = expand.and_then(|c| c.view_definition(table)) {
                hash_node(def, hasher, include_literals, expand);
                return;
            }
            hasher.write(&[0]);
            hasher.write(table.as_bytes());
        }
        PlanKind::Filter { predicate } => {
            hasher.write(&[1]);
            hasher.write_u64(predicate.clauses.len() as u64);
            for clause in &predicate.clauses {
                hasher.write_u64(clause.column as u64);
                hasher.write(&[clause.op.discriminant()]);
                if include_literals {
                    hasher.write_i64(clause.value);
                }
            }
        }
        PlanKind::Project { columns } => {
            hasher.write(&[2]);
            for &c in columns {
                hasher.write_u64(c as u64);
            }
        }
        PlanKind::Join {
            left_key,
            right_key,
        } => {
            hasher.write(&[3]);
            hasher.write_u64(*left_key as u64);
            hasher.write_u64(*right_key as u64);
        }
        PlanKind::Aggregate { group_by } => {
            hasher.write(&[4]);
            for &c in group_by {
                hasher.write_u64(c as u64);
            }
        }
        PlanKind::Union => hasher.write(&[5]),
    }
    hasher.write_u64(plan.children.len() as u64);
    for child in &plan.children {
        hash_node(child, hasher, include_literals, expand);
    }
}

/// Full signature, literals included: equality ⇒ syntactic identity.
pub fn strict_signature(plan: &LogicalPlan) -> Signature {
    let mut hasher = Fnv1a::new();
    hash_node(plan, &mut hasher, true, None);
    Signature(hasher.finish())
}

/// Template signature, literals abstracted: equality ⇒ same recurring
/// template.
pub fn template_signature(plan: &LogicalPlan) -> Signature {
    let mut hasher = Fnv1a::new();
    hash_node(plan, &mut hasher, false, None);
    Signature(hasher.finish())
}

/// Template signature with view scans expanded to their definitions in
/// `catalog` (see [`Catalog::register_view`]). For a plan without view
/// scans this equals [`template_signature`].
pub fn template_signature_in(plan: &LogicalPlan, catalog: &Catalog) -> Signature {
    let mut hasher = Fnv1a::new();
    hash_node(plan, &mut hasher, false, Some(catalog));
    Signature(hasher.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CmpOp, Comparison, LogicalPlan, Predicate};
    use proptest::prelude::*;

    fn plan_with_literal(v: i64) -> LogicalPlan {
        LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Ge, v)),
            LogicalPlan::scan("users"),
            0,
            0,
        )
        .aggregate(vec![1])
    }

    #[test]
    fn strict_distinguishes_literals() {
        assert_ne!(
            strict_signature(&plan_with_literal(1)),
            strict_signature(&plan_with_literal(2))
        );
    }

    #[test]
    fn template_ignores_literals() {
        assert_eq!(
            template_signature(&plan_with_literal(1)),
            template_signature(&plan_with_literal(2))
        );
    }

    #[test]
    fn template_distinguishes_structure() {
        let a = plan_with_literal(1);
        let b = LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Ge, 1));
        assert_ne!(template_signature(&a), template_signature(&b));
        // Different operator for the same shape also differs.
        let lt = LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Lt, 1));
        let ge = LogicalPlan::scan("events").filter(Predicate::single(2, CmpOp::Ge, 1));
        assert_ne!(template_signature(&lt), template_signature(&ge));
    }

    #[test]
    fn signature_stable_known_value() {
        // Pin one signature so accidental hash-algorithm changes are caught.
        let plan = LogicalPlan::scan("events");
        assert_eq!(
            strict_signature(&plan),
            strict_signature(&LogicalPlan::scan("events"))
        );
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c); // FNV-1a("a"), published test vector
    }

    #[test]
    fn template_and_strict_signatures_are_pinned() {
        // Values recorded when `write_u64` hashed all eight bytes. The plan
        // holds one-byte and two-byte integers and a negative literal, whose
        // high bytes are not zero.
        let plan = LogicalPlan::join(
            LogicalPlan::scan("events").filter(Predicate::new(vec![
                Comparison::new(2, CmpOp::Ge, 300),
                Comparison::new(0, CmpOp::Ne, -7),
            ])),
            LogicalPlan::scan("users").project(vec![0, 2]),
            0,
            1,
        )
        .aggregate(vec![1, 257]);
        assert_eq!(template_signature(&plan), Signature(0xfd8b_aac5_a028_182b));
        assert_eq!(strict_signature(&plan), Signature(0x3dbb_3119_843e_e524));
    }

    #[test]
    fn child_order_matters() {
        let a = LogicalPlan::union(LogicalPlan::scan("events"), LogicalPlan::scan("users"));
        let b = LogicalPlan::union(LogicalPlan::scan("users"), LogicalPlan::scan("events"));
        assert_ne!(strict_signature(&a), strict_signature(&b));
    }

    /// Absorbs `v` the way `write_u64` did before it skipped zero bytes.
    fn bytewise(v: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write(&v.to_le_bytes());
        h.finish()
    }

    fn word(v: u64) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn write_u64_equals_bytewise_at_the_edges() {
        for v in [
            0,
            1,
            0xFF,
            0x100,
            0xFFFF,
            0x1_0000,
            0x0100_0001,
            0x00FF_0000_00FF,
            1 << 56,
            u64::MAX >> 8,
            u64::MAX,
        ] {
            assert_eq!(word(v), bytewise(v), "{v:#x}");
        }
        let mut h = Fnv1a::new();
        h.write_i64(-7);
        assert_eq!(h.finish(), bytewise(-7i64 as u64));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Skipping zero high bytes never changes the hash, wherever the
        /// value's highest nonzero byte sits.
        #[test]
        fn write_u64_equals_bytewise(v in .., shift in 0u32..64) {
            prop_assert_eq!(word(v), bytewise(v));
            prop_assert_eq!(word(v >> shift), bytewise(v >> shift));
        }
    }

    proptest! {
        /// Strict signatures are deterministic and literal-sensitive;
        /// template signatures are literal-insensitive.
        #[test]
        fn prop_signature_laws(v1 in -1000i64..1000, v2 in -1000i64..1000) {
            let p1 = plan_with_literal(v1);
            let p2 = plan_with_literal(v2);
            prop_assert_eq!(strict_signature(&p1), strict_signature(&plan_with_literal(v1)));
            prop_assert_eq!(template_signature(&p1), template_signature(&p2));
            if v1 != v2 {
                prop_assert_ne!(strict_signature(&p1), strict_signature(&p2));
            }
        }
    }
}
