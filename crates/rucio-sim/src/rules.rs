//! Replication rules.
//!
//! A rule pins `copies` replicas of a dataset onto a set of candidate RSEs
//! for a lifetime (paper §2.2: "specify where data must exist, how many
//! replicas must be maintained, and the duration of retention"). Evaluating
//! a rule against the catalog yields the transfers needed to satisfy it;
//! expired rules release their replicas to the deletion pressure model.

use crate::catalog::{DatasetId, FileId, ReplicaCatalog};
use dmsa_gridnet::RseId;
use dmsa_simcore::fx::FxHashMap;
use dmsa_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Rule identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct RuleId(pub u64);

/// A replication rule over one dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReplicationRule {
    /// Identifier.
    pub id: RuleId,
    /// Target dataset.
    pub dataset: DatasetId,
    /// Candidate RSEs (the simplified "RSE expression").
    pub candidate_rses: Vec<RseId>,
    /// Required replica count per file.
    pub copies: usize,
    /// Creation instant.
    pub created: SimTime,
    /// Retention duration; `None` = pinned forever.
    pub lifetime: Option<SimDuration>,
}

impl ReplicationRule {
    /// Whether the rule still protects its replicas at `t`.
    pub fn is_active(&self, t: SimTime) -> bool {
        match self.lifetime {
            None => true,
            Some(l) => t < self.created + l,
        }
    }
}

/// A transfer needed to satisfy a rule: copy `file` to `dest`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NeededTransfer {
    /// File missing a replica.
    pub file: FileId,
    /// Destination RSE.
    pub dest: RseId,
}

/// Holds rules and evaluates them against the catalog.
#[derive(Clone, Debug, Default)]
pub struct RuleEngine {
    rules: Vec<ReplicationRule>,
    /// Rules of each dataset, in id order: [`Self::is_protected`] reads
    /// only the file's own dataset's rules. Derived from `rules`.
    by_dataset: FxHashMap<DatasetId, Vec<RuleId>>,
}

impl RuleEngine {
    /// Empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule; returns its id.
    pub fn add_rule(
        &mut self,
        dataset: DatasetId,
        candidate_rses: Vec<RseId>,
        copies: usize,
        created: SimTime,
        lifetime: Option<SimDuration>,
    ) -> RuleId {
        assert!(
            copies <= candidate_rses.len(),
            "rule requests {} copies but only {} candidate RSEs",
            copies,
            candidate_rses.len()
        );
        let id = RuleId(self.rules.len() as u64);
        self.by_dataset.entry(dataset).or_default().push(id);
        self.rules.push(ReplicationRule {
            id,
            dataset,
            candidate_rses,
            copies,
            created,
            lifetime,
        });
        id
    }

    /// All rules.
    pub fn rules(&self) -> &[ReplicationRule] {
        &self.rules
    }

    /// Rebuild an engine from checkpointed rules. Ids must be dense and in
    /// order — the same invariant [`Self::add_rule`] maintains — so a
    /// corrupted checkpoint is rejected instead of corrupting id lookups.
    pub fn from_rules(rules: Vec<ReplicationRule>) -> Result<Self, String> {
        for (i, r) in rules.iter().enumerate() {
            if r.id.0 != i as u64 {
                return Err(format!("rule {i} has out-of-order id {:?}", r.id));
            }
            if r.copies > r.candidate_rses.len() {
                return Err(format!(
                    "rule {i} requests {} copies with {} candidates",
                    r.copies,
                    r.candidate_rses.len()
                ));
            }
        }
        let mut by_dataset: FxHashMap<DatasetId, Vec<RuleId>> = FxHashMap::default();
        for r in &rules {
            by_dataset.entry(r.dataset).or_default().push(r.id);
        }
        Ok(RuleEngine { rules, by_dataset })
    }

    /// Rule by id.
    pub fn rule(&self, id: RuleId) -> &ReplicationRule {
        &self.rules[id.0 as usize]
    }

    /// Transfers required to satisfy `rule` given current replica state.
    /// Candidate RSEs are filled in listed order (deterministic).
    pub fn missing_replicas(&self, rule: RuleId, catalog: &ReplicaCatalog) -> Vec<NeededTransfer> {
        let rule = self.rule(rule);
        let mut needed = Vec::new();
        for &file in catalog.dataset_files(rule.dataset) {
            let have: usize = rule
                .candidate_rses
                .iter()
                .filter(|&&r| catalog.has_replica(file, r))
                .count();
            if have >= rule.copies {
                continue;
            }
            let mut missing = rule.copies - have;
            for &rse in &rule.candidate_rses {
                if missing == 0 {
                    break;
                }
                if !catalog.has_replica(file, rse) {
                    needed.push(NeededTransfer { file, dest: rse });
                    missing -= 1;
                }
            }
        }
        needed
    }

    /// Whether any active rule at `t` protects a replica of `file` at `rse`.
    pub fn is_protected(
        &self,
        file: FileId,
        rse: RseId,
        catalog: &ReplicaCatalog,
        t: SimTime,
    ) -> bool {
        let ds = catalog.file(file).dataset;
        self.by_dataset.get(&ds).is_some_and(|ids| {
            ids.iter().any(|&id| {
                let r = self.rule(id);
                r.is_active(t) && r.candidate_rses.contains(&rse)
            })
        })
    }

    /// Linear-scan oracle for [`Self::is_protected`]: checks every rule.
    #[cfg(test)]
    pub(crate) fn is_protected_scan(
        &self,
        file: FileId,
        rse: RseId,
        catalog: &ReplicaCatalog,
        t: SimTime,
    ) -> bool {
        let ds = catalog.file(file).dataset;
        self.rules
            .iter()
            .any(|r| r.dataset == ds && r.is_active(t) && r.candidate_rses.contains(&rse))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::did::Scope;

    fn setup() -> (ReplicaCatalog, DatasetId) {
        let mut cat = ReplicaCatalog::new();
        let ds = cat.register_dataset(Scope::User(1), 1, "s", &[10, 20], SimTime::EPOCH);
        (cat, ds)
    }

    #[test]
    fn missing_replicas_for_fresh_dataset() {
        let (cat, ds) = setup();
        let mut eng = RuleEngine::new();
        let rule = eng.add_rule(ds, vec![RseId(0), RseId(1)], 2, SimTime::EPOCH, None);
        let needed = eng.missing_replicas(rule, &cat);
        // 2 files × 2 copies each.
        assert_eq!(needed.len(), 4);
    }

    #[test]
    fn satisfied_rule_needs_nothing() {
        let (mut cat, ds) = setup();
        let files = cat.dataset_files(ds).to_vec();
        for &f in &files {
            cat.add_replica(f, RseId(0));
        }
        let mut eng = RuleEngine::new();
        let rule = eng.add_rule(ds, vec![RseId(0)], 1, SimTime::EPOCH, None);
        assert!(eng.missing_replicas(rule, &cat).is_empty());
    }

    #[test]
    fn partial_satisfaction_tops_up() {
        let (mut cat, ds) = setup();
        let files = cat.dataset_files(ds).to_vec();
        cat.add_replica(files[0], RseId(0)); // file 0 already at RSE 0
        let mut eng = RuleEngine::new();
        let rule = eng.add_rule(ds, vec![RseId(0), RseId(1)], 2, SimTime::EPOCH, None);
        let needed = eng.missing_replicas(rule, &cat);
        // file 0 needs 1 more copy (at RSE 1), file 1 needs both.
        assert_eq!(needed.len(), 3);
        assert!(needed.contains(&NeededTransfer {
            file: files[0],
            dest: RseId(1)
        }));
    }

    #[test]
    fn lifetime_controls_activity() {
        let (_, ds) = setup();
        let mut eng = RuleEngine::new();
        let rule = eng.add_rule(
            ds,
            vec![RseId(0)],
            1,
            SimTime::from_secs(100),
            Some(SimDuration::from_secs(50)),
        );
        let r = eng.rule(rule);
        assert!(r.is_active(SimTime::from_secs(120)));
        assert!(!r.is_active(SimTime::from_secs(150)), "expiry is exclusive");
        assert!(r.is_active(SimTime::from_secs(149)));
    }

    #[test]
    fn protection_checks_dataset_rse_and_time() {
        let (cat, ds) = setup();
        let f = cat.dataset_files(ds)[0];
        let mut eng = RuleEngine::new();
        eng.add_rule(
            ds,
            vec![RseId(3)],
            1,
            SimTime::EPOCH,
            Some(SimDuration::from_secs(10)),
        );
        assert!(eng.is_protected(f, RseId(3), &cat, SimTime::from_secs(5)));
        assert!(!eng.is_protected(f, RseId(4), &cat, SimTime::from_secs(5)));
        assert!(!eng.is_protected(f, RseId(3), &cat, SimTime::from_secs(20)));
    }

    #[test]
    #[should_panic(expected = "candidate RSEs")]
    fn over_constrained_rule_rejected() {
        let (_, ds) = setup();
        let mut eng = RuleEngine::new();
        eng.add_rule(ds, vec![RseId(0)], 2, SimTime::EPOCH, None);
    }
}
