//! Replica deletion under storage pressure.
//!
//! Rucio protects replicas "from deletion until all rules expire" (paper
//! §2.2); once unprotected, site reapers free space greediest-first when
//! an RSE approaches capacity. This module implements that reaper:
//! given the catalog, the rule engine, and per-RSE usage (the catalog's
//! incrementally maintained [byte counter](ReplicaCatalog::rse_bytes)),
//! it selects the unprotected replicas to delete — least-recently-created
//! first (the classic Rucio `minimum-free-space` greedy policy) — until
//! the RSE is back under its high-watermark.
//!
//! Deletion is what ultimately *causes* some of the paper's redundant
//! transfers: a file deleted after its rule expired must be transferred
//! again when a later job needs it.

use crate::catalog::{FileId, ReplicaCatalog};
use crate::rules::RuleEngine;
use dmsa_gridnet::{GridTopology, RseId};
use dmsa_simcore::SimTime;
use serde::{Deserialize, Serialize};

/// Reaper policy knobs.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReaperPolicy {
    /// Usage fraction above which the reaper activates.
    pub high_watermark: f64,
    /// Usage fraction the reaper frees down to.
    pub low_watermark: f64,
}

impl Default for ReaperPolicy {
    fn default() -> Self {
        ReaperPolicy {
            high_watermark: 0.90,
            low_watermark: 0.80,
        }
    }
}

/// One executed deletion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Deletion {
    /// File whose replica was removed.
    pub file: FileId,
    /// RSE it was removed from.
    pub rse: RseId,
    /// Bytes freed.
    pub bytes: u64,
}

/// Run the reaper on one RSE at instant `now`. Deletes unprotected
/// replicas (oldest registration first) until usage drops below the low
/// watermark, and returns what was deleted. The catalog is mutated.
pub fn reap_rse(
    catalog: &mut ReplicaCatalog,
    rules: &RuleEngine,
    topology: &GridTopology,
    policy: &ReaperPolicy,
    rse: RseId,
    now: SimTime,
) -> Vec<Deletion> {
    let capacity = topology.rse(rse).capacity_bytes.max(1);
    let mut usage = catalog.rse_bytes(rse);
    if (usage as f64) < policy.high_watermark * capacity as f64 {
        return Vec::new();
    }
    let target = (policy.low_watermark * capacity as f64) as u64;

    // Candidates: unprotected replicas on this RSE, oldest first.
    let mut candidates: Vec<(SimTime, FileId, u64)> = catalog
        .files()
        .iter()
        .filter(|f| catalog.has_replica(f.id, rse))
        .filter(|f| !rules.is_protected(f.id, rse, catalog, now))
        .map(|f| (f.registered, f.id, f.size))
        .collect();
    candidates.sort();

    let mut deleted = Vec::new();
    for (_, file, bytes) in candidates {
        if usage <= target {
            break;
        }
        if catalog.remove_replica(file, rse) {
            usage = usage.saturating_sub(bytes);
            deleted.push(Deletion { file, rse, bytes });
        }
    }
    deleted
}

/// Run the reaper over every RSE of the topology.
///
/// Reads each RSE's usage from the catalog's byte counter and runs the
/// per-RSE candidate scan only for RSEs above their high watermark —
/// O(|RSEs| + Σ_overfull |files|) per pass, which matters when the
/// scenario loop calls this every few simulated hours.
pub fn reap_all(
    catalog: &mut ReplicaCatalog,
    rules: &RuleEngine,
    topology: &GridTopology,
    policy: &ReaperPolicy,
    now: SimTime,
) -> Vec<Deletion> {
    let overfull: Vec<RseId> = topology
        .rses()
        .iter()
        .filter(|r| {
            catalog.rse_bytes(r.id) as f64 >= policy.high_watermark * r.capacity_bytes.max(1) as f64
        })
        .map(|r| r.id)
        .collect();
    let mut all = Vec::new();
    for rse in overfull {
        all.extend(reap_rse(catalog, rules, topology, policy, rse, now));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::did::Scope;
    use dmsa_gridnet::{GridTopology, TopologyConfig};
    use dmsa_simcore::{RngFactory, SimDuration};

    fn topo() -> GridTopology {
        GridTopology::generate(&RngFactory::new(3), &TopologyConfig::small())
    }

    /// A catalog filling `frac` of the given RSE with distinct datasets
    /// registered at increasing times.
    fn filled_catalog(topology: &GridTopology, rse: RseId, frac: f64) -> ReplicaCatalog {
        let mut cat = ReplicaCatalog::new();
        let capacity = topology.rse(rse).capacity_bytes;
        let chunk = capacity / 20;
        let n = ((frac * 20.0).round() as u64).max(1);
        for i in 0..n {
            let ds = cat.register_dataset(
                Scope::Data,
                i,
                "fill",
                &[chunk],
                SimTime::from_secs(i as i64),
            );
            let f = cat.dataset_files(ds)[0];
            cat.add_replica(f, rse);
        }
        cat
    }

    #[test]
    fn reaper_idles_below_watermark() {
        let topo = topo();
        let rse = topo.disk_rse(dmsa_gridnet::SiteId(1));
        let mut cat = filled_catalog(&topo, rse, 0.5);
        let rules = RuleEngine::new();
        let deleted = reap_rse(
            &mut cat,
            &rules,
            &topo,
            &ReaperPolicy::default(),
            rse,
            SimTime::from_days(1),
        );
        assert!(deleted.is_empty());
    }

    #[test]
    fn reaper_frees_down_to_low_watermark_oldest_first() {
        let topo = topo();
        let rse = topo.disk_rse(dmsa_gridnet::SiteId(1));
        let mut cat = filled_catalog(&topo, rse, 0.95);
        let rules = RuleEngine::new();
        let policy = ReaperPolicy::default();
        let deleted = reap_rse(&mut cat, &rules, &topo, &policy, rse, SimTime::from_days(1));
        assert!(!deleted.is_empty());
        let usage = cat.rse_bytes(rse) as f64;
        let capacity = topo.rse(rse).capacity_bytes as f64;
        assert!(usage <= policy.low_watermark * capacity * 1.001);
        // Oldest-registered files went first.
        let oldest_file = deleted[0].file;
        assert_eq!(cat.file(oldest_file).registered, SimTime::from_secs(0));
        cat.check_invariants().unwrap();
    }

    #[test]
    fn active_rules_protect_replicas() {
        let topo = topo();
        let rse = topo.disk_rse(dmsa_gridnet::SiteId(1));
        let mut cat = filled_catalog(&topo, rse, 0.95);
        // Pin every dataset with an unexpired rule.
        let mut rules = RuleEngine::new();
        let ds_ids: Vec<_> = cat.datasets().iter().map(|d| d.id).collect();
        for ds in ds_ids {
            rules.add_rule(ds, vec![rse], 1, SimTime::EPOCH, None);
        }
        let deleted = reap_rse(
            &mut cat,
            &rules,
            &topo,
            &ReaperPolicy::default(),
            rse,
            SimTime::from_days(1),
        );
        assert!(deleted.is_empty(), "protected replicas were reaped");
    }

    #[test]
    fn expired_rules_release_protection() {
        let topo = topo();
        let rse = topo.disk_rse(dmsa_gridnet::SiteId(1));
        let mut cat = filled_catalog(&topo, rse, 0.95);
        let mut rules = RuleEngine::new();
        let ds_ids: Vec<_> = cat.datasets().iter().map(|d| d.id).collect();
        for ds in ds_ids {
            rules.add_rule(
                ds,
                vec![rse],
                1,
                SimTime::EPOCH,
                Some(SimDuration::from_hours(1)),
            );
        }
        // Before expiry: protected. After: reapable.
        let before = reap_rse(
            &mut cat,
            &rules,
            &topo,
            &ReaperPolicy::default(),
            rse,
            SimTime::from_secs(600),
        );
        assert!(before.is_empty());
        let after = reap_rse(
            &mut cat,
            &rules,
            &topo,
            &ReaperPolicy::default(),
            rse,
            SimTime::from_days(1),
        );
        assert!(!after.is_empty());
    }

    #[test]
    fn reap_all_covers_every_rse() {
        let topo = topo();
        let rse_a = topo.disk_rse(dmsa_gridnet::SiteId(1));
        let rse_b = topo.disk_rse(dmsa_gridnet::SiteId(2));
        let mut cat = ReplicaCatalog::new();
        for (i, &rse) in [rse_a, rse_b].iter().enumerate() {
            let capacity = topo.rse(rse).capacity_bytes;
            let ds = cat.register_dataset(
                Scope::Data,
                i as u64,
                "big",
                &[capacity], // 100 % full
                SimTime::EPOCH,
            );
            let f = cat.dataset_files(ds)[0];
            cat.add_replica(f, rse);
        }
        let rules = RuleEngine::new();
        let deleted = reap_all(
            &mut cat,
            &rules,
            &topo,
            &ReaperPolicy::default(),
            SimTime::from_days(1),
        );
        let rses: std::collections::HashSet<RseId> = deleted.iter().map(|d| d.rse).collect();
        assert!(rses.contains(&rse_a) && rses.contains(&rse_b));
    }

    /// Every RSE's counter against the full-scan oracle.
    fn assert_counters_exact(cat: &ReplicaCatalog, topology: &GridTopology) {
        for r in topology.rses() {
            assert_eq!(cat.rse_bytes(r.id), cat.rse_bytes_scan(r.id), "{:?}", r.id);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        /// Random register / add / remove / reap steps keep every per-RSE
        /// byte counter equal to a full scan; `from_parts` rebuilds the
        /// same counters; the dataset-indexed `is_protected` (built rule
        /// by rule or by `from_rules`) agrees with the linear scan.
        #[test]
        fn rse_counters_track_a_full_scan(
            steps in proptest::collection::vec(
                (0u32..6, proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<u64>()),
                1..120,
            ),
        ) {
            let topology = topo();
            // Smallest RSEs first: replicas go to the first two, in files
            // of 1-4 eighths of the second, so they overflow and the
            // reaper has work.
            let mut rses: Vec<RseId> = topology.rses().iter().map(|r| r.id).collect();
            rses.sort_by_key(|&r| topology.rse(r).capacity_bytes);
            let unit = topology.rse(rses[1]).capacity_bytes / 8;
            let mut cat = ReplicaCatalog::new();
            let mut rules = RuleEngine::new();
            let policy = ReaperPolicy::default();
            for (step, &(op, a, b)) in steps.iter().enumerate() {
                let now = SimTime::from_hours(step as i64);
                let n = cat.n_files() as u64;
                match op {
                    0 => {
                        let sizes: Vec<u64> = (0..1 + a % 3).map(|k| unit * (1 + (b + k) % 4)).collect();
                        let ds = cat.register_dataset(Scope::Data, step as u64, "s", &sizes, now);
                        if b % 3 == 0 {
                            let cands = vec![rses[a as usize % rses.len()]];
                            let lifetime = (b % 2 == 0).then(|| SimDuration::from_hours(1 + (a % 6) as i64));
                            rules.add_rule(ds, cands, 1, now, lifetime);
                        }
                    }
                    1 | 2 if n > 0 => {
                        cat.add_replica(FileId(a % n), rses[b as usize % 2]);
                    }
                    3 if n > 0 => {
                        let f = FileId(a % n);
                        let rse = match cat.replicas_of(f) {
                            [] => rses[b as usize % rses.len()],
                            held => held[b as usize % held.len()],
                        };
                        cat.remove_replica(f, rse);
                    }
                    _ => {
                        reap_all(&mut cat, &rules, &topology, &policy, now);
                    }
                }
                assert_counters_exact(&cat, &topology);
            }
            cat.check_invariants().unwrap();

            let rebuilt = ReplicaCatalog::from_parts(
                cat.names().clone(),
                cat.files().to_vec(),
                cat.datasets().to_vec(),
                cat.containers().to_vec(),
                cat.replicas().to_vec(),
            )
            .unwrap();
            for r in topology.rses() {
                proptest::prop_assert_eq!(rebuilt.rse_bytes(r.id), cat.rse_bytes(r.id));
            }

            let restored = RuleEngine::from_rules(rules.rules().to_vec()).unwrap();
            for f in cat.files() {
                for &rse in &rses {
                    for h in [0, 3, steps.len() as i64] {
                        let t = f.registered + SimDuration::from_hours(h);
                        let want = rules.is_protected_scan(f.id, rse, &cat, t);
                        proptest::prop_assert_eq!(rules.is_protected(f.id, rse, &cat, t), want);
                        proptest::prop_assert_eq!(restored.is_protected(f.id, rse, &cat, t), want);
                    }
                }
            }
        }
    }
}
