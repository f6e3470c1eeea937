//! The continuous online audit: drive a link-stealing attack through a
//! real serving engine, not raw embeddings.
//!
//! The offline attack ([`LinkStealingAttack::run`]) scores an embedding
//! surface directly — it proves what the *model* leaks. This module
//! proves what the *service* leaks: [`OnlineLinkAudit`] pushes the
//! identical balanced probe set (same seed, same pairs —
//! [`LinkStealingAttack::sample_pairs`]) through a
//! [`serve::ServeHandle`] as attributed two-node requests, so every
//! probe rides the production path — admission, the sentinel's
//! detectors, batching, caching, routing to the owning shard — before
//! anything is scored. The audit then reports:
//!
//! - the **surface AUC** over the probes the engine actually answered,
//!   scored on the observable embedding surface exactly like the
//!   offline attack. With the sentinel observing (nothing blocked) this
//!   equals the offline AUC — the serving stack adds no leakage — and
//!   with the sentinel enforcing, quarantine truncates the probe set;
//! - the **label-agreement AUC**, scored purely from the served class
//!   labels (connected nodes tend to share labels) — the only channel
//!   an attacker has when embeddings are not observable at all;
//! - the enforcement the probe stream provoked: rate-limited probes and
//!   whether the auditing session ended quarantined.
//!
//! Run it against a deployed engine (as `tests/online_audit.rs` does)
//! to check both halves of the protection claim: the served AUC equals
//! the offline vault AUC and sits well below the unprotected baseline,
//! *and* the probing session itself is caught by the sentinel.

use crate::{AttackError, LinkStealingAttack, PairScorer};
use graph::Graph;
use linalg::DenseMatrix;
use serve::{ClientId, ServeError, ServeHandle, Ticket};

/// The serving identity every audit probes under.
const AUDIT_CLIENT: ClientId = ClientId(0xA0D17);

/// Probes submitted before their tickets are awaited. Pipelining keeps
/// the engine's batches full; it never changes what is scored.
const WAVE: usize = 256;

/// An online link-stealing audit: one offline attack instance (metric,
/// pair budget, seed) run through a serving engine as client `0xA0D17`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineLinkAudit {
    attack: LinkStealingAttack,
}

impl OnlineLinkAudit {
    /// Wraps an offline attack for online execution.
    pub fn new(attack: LinkStealingAttack) -> Self {
        Self { attack }
    }

    /// Runs the audit: samples the offline attack's probe set against
    /// `target` (the private graph — ground truth for scoring only; the
    /// engine never sees it), submits each pair through `handle` as a
    /// two-node request attributed to this audit's client, and scores
    /// the answered probes on `embeddings` (the observable surface the
    /// offline attack would score, e.g.
    /// [`gnnvault_surface`](crate::surface::gnnvault_surface)).
    ///
    /// Probes rejected by the sentinel are counted, not retried: a
    /// rate-limited probe is lost to the attacker, and a quarantined
    /// session stops probing — exactly the throttling the sentinel is
    /// supposed to impose.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidInput`] when the surface is empty
    /// or disagrees with the graph, when the probe set cannot be
    /// sampled ([`LinkStealingAttack::sample_pairs`]), or when the
    /// engine answered no probe at all (nothing to audit).
    pub fn run(
        &self,
        handle: &ServeHandle,
        target: &Graph,
        embeddings: &[DenseMatrix],
    ) -> Result<OnlineAuditOutcome, AttackError> {
        let n = target.num_nodes();
        if embeddings.is_empty() {
            return Err(AttackError::InvalidInput {
                reason: "attack surface has no embeddings".into(),
            });
        }
        for e in embeddings {
            if e.rows() != n {
                return Err(AttackError::InvalidInput {
                    reason: format!("embedding has {} rows for {n} nodes", e.rows()),
                });
            }
        }
        let pairs = self.attack.sample_pairs(target)?;
        let mut outcome = OnlineAuditOutcome {
            pairs_planned: pairs.len(),
            pairs_answered: 0,
            rate_limited: 0,
            quarantined: false,
            auc: None,
            label_agreement_auc: None,
        };

        // (u, v, is_edge, served labels agreed) for every answered probe.
        let mut answered: Vec<(usize, usize, bool, bool)> = Vec::with_capacity(pairs.len());
        'waves: for wave in pairs.chunks(WAVE) {
            let mut tickets: Vec<(usize, usize, bool, Ticket)> = Vec::with_capacity(wave.len());
            for &(u, v, is_edge) in wave {
                match handle.submit_as(AUDIT_CLIENT, vec![u, v]) {
                    Ok(ticket) => tickets.push((u, v, is_edge, ticket)),
                    Err(ServeError::RateLimited { .. }) => outcome.rate_limited += 1,
                    Err(ServeError::Quarantined { .. }) => {
                        outcome.quarantined = true;
                        break;
                    }
                    // Overload/shutdown/shard failures lose the probe,
                    // not the audit.
                    Err(_) => {}
                }
            }
            // Await the wave even when quarantine cut it short: probes
            // already admitted are still answered and still count.
            for (u, v, is_edge, ticket) in tickets {
                if let Ok(labels) = ticket.wait() {
                    answered.push((u, v, is_edge, labels.len() == 2 && labels[0] == labels[1]));
                }
            }
            if outcome.quarantined {
                break 'waves;
            }
        }
        outcome.pairs_answered = answered.len();
        if answered.is_empty() {
            return Err(AttackError::InvalidInput {
                reason: "the engine answered no probe (session blocked from the start?)".into(),
            });
        }

        // Surface AUC: the offline scoring, restricted to what the
        // engine let through. With everything answered this is exactly
        // the offline attack's AUC.
        let scorer = PairScorer::new(self.attack.metric(), embeddings);
        let labels: Vec<bool> = answered.iter().map(|&(_, _, e, _)| e).collect();
        let scores: Vec<f32> = answered
            .iter()
            .map(|&(u, v, _, _)| scorer.score_mean(u, v))
            .collect();
        outcome.auc = metrics::roc_auc(&scores, &labels).ok();

        // Label-agreement AUC: what the served labels alone reveal.
        let agreement: Vec<f32> = answered
            .iter()
            .map(|&(_, _, _, agree)| if agree { 1.0 } else { 0.0 })
            .collect();
        outcome.label_agreement_auc = metrics::roc_auc(&agreement, &labels).ok();
        Ok(outcome)
    }
}

/// What one [`OnlineLinkAudit::run`] observed.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineAuditOutcome {
    /// Probes the attack sampled (both classes).
    pub pairs_planned: usize,
    /// Probes the engine answered with labels.
    pub pairs_answered: usize,
    /// Probes rejected with [`ServeError::RateLimited`].
    pub rate_limited: u64,
    /// Whether the audit session was quarantined (probing stopped
    /// there).
    pub quarantined: bool,
    /// ROC-AUC of the embedding-surface attack over the answered
    /// probes; `None` when the answered set lost one class entirely.
    pub auc: Option<f64>,
    /// ROC-AUC of predicting edges from served-label agreement alone;
    /// `None` when the answered set lost one class entirely.
    pub label_agreement_auc: Option<f64>,
}

impl OnlineAuditOutcome {
    /// Fraction of planned probes the engine answered.
    pub fn completion(&self) -> f64 {
        if self.pairs_planned == 0 {
            return 0.0;
        }
        self.pairs_answered as f64 / self.pairs_planned as f64
    }
}
