//! Data Identifiers: scopes and hierarchical names.
//!
//! Rucio references all data by globally unique Data Identifiers (DIDs) —
//! a `(scope, name)` pair — "ensuring immutable naming and provenance"
//! (paper §2.2). We model scopes as a small closed set (user analysis
//! scopes plus production scopes) and generate names that look like real
//! ATLAS LFNs so that string-keyed joins in the matcher behave like
//! production joins (hash collisions, interning pressure, etc.).

use serde::{Deserialize, Serialize};
use std::fmt::{self, Write};

/// A Rucio scope, e.g. `user.alice` or `mc23_13p6TeV`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Scope {
    /// Per-user analysis scope (`user.u<N>`).
    User(u32),
    /// Monte-Carlo production scope.
    McProd,
    /// Detector data scope.
    Data,
    /// Group-analysis derived data.
    GroupPhys,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::User(n) => write!(f, "user.u{n:04}"),
            Scope::McProd => write!(f, "mc23_13p6TeV"),
            Scope::Data => write!(f, "data24_13p6TeV"),
            Scope::GroupPhys => write!(f, "group.phys-higgs"),
        }
    }
}

/// A DID name (dataset or file). Thin newtype so signatures stay legible.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct DidName(pub String);

impl fmt::Display for DidName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Append the ATLAS-style dataset name of a task to `out`.
pub fn write_dataset_name(out: &mut String, scope: Scope, task_seq: u64, stream: &str) {
    let _ = write!(
        out,
        "{scope}.{task_seq:08}.{stream}.DAOD_PHYS.e8514_s4159_r15224"
    );
}

/// Append the LFN of file `file_seq` of a task's dataset to `out`.
pub fn write_file_lfn(out: &mut String, scope: Scope, task_seq: u64, file_seq: u32) {
    let _ = write!(
        out,
        "{scope}.{task_seq:08}.DAOD_PHYS._{file_seq:06}.pool.root.1"
    );
}

/// Append the suffix that turns a dataset name into the production
/// data-block ("proddblock") name of sub-block `sub`. PanDA's file table
/// records this block-level identifier and Algorithm 1 joins on it.
pub fn write_prod_dblock_suffix(out: &mut String, sub: u32) {
    let _ = write!(out, "_sub{sub:04}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset_name(scope: Scope, task_seq: u64, stream: &str) -> String {
        let mut s = String::new();
        write_dataset_name(&mut s, scope, task_seq, stream);
        s
    }

    fn file_lfn(scope: Scope, task_seq: u64, file_seq: u32) -> String {
        let mut s = String::new();
        write_file_lfn(&mut s, scope, task_seq, file_seq);
        s
    }

    #[test]
    fn scope_display_forms() {
        assert_eq!(Scope::User(7).to_string(), "user.u0007");
        assert_eq!(Scope::McProd.to_string(), "mc23_13p6TeV");
        assert_eq!(Scope::Data.to_string(), "data24_13p6TeV");
        assert_eq!(Scope::GroupPhys.to_string(), "group.phys-higgs");
    }

    #[test]
    fn names_embed_identifiers() {
        let ds = dataset_name(Scope::User(3), 42, "higgs");
        assert!(ds.contains("user.u0003"));
        assert!(ds.contains("00000042"));
        let f = file_lfn(Scope::User(3), 42, 5);
        assert!(f.contains("_000005"));
        let mut b = ds.clone();
        write_prod_dblock_suffix(&mut b, 2);
        assert!(b.ends_with("_sub0002"));
        assert!(b.starts_with(&ds));
    }

    #[test]
    fn distinct_files_have_distinct_lfns() {
        let a = file_lfn(Scope::User(1), 1, 1);
        let b = file_lfn(Scope::User(1), 1, 2);
        let c = file_lfn(Scope::User(1), 2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
