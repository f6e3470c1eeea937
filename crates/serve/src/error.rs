use crate::sentinel::ClientId;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Error type for the serving engine.
///
/// Every admitted request resolves to labels or to exactly one of these
/// variants — never a hang. The variants split into *admission* errors
/// (`Rejected`, `Overloaded`, `RateLimited`, `Quarantined`, `Closed`:
/// the request never entered a batch queue and can be retried
/// immediately or after the hint — except `Quarantined`, which is
/// sticky until the sentinel resets) and *execution* errors (`Vault`,
/// `ShardFailed`, `TimedOut`: the request was admitted but could not be
/// answered).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission control refused the request (empty node list,
    /// out-of-range node id, …). The request never entered the batch
    /// queue.
    Rejected {
        /// Why the request was refused.
        reason: String,
    },
    /// Load shedding: the shard's queue depth reached its admission
    /// bound ([`BatchPolicy::max_queue_requests`](crate::BatchPolicy)),
    /// so the request was turned away to keep latency bounded. Unlike
    /// [`ServeError::Rejected`], this is purely a load condition — retry
    /// after the hint.
    Overloaded {
        /// Requests pending on the shard when the request was shed.
        queued: usize,
        /// Estimated time until the backlog drains below the bound — a
        /// hint, not a guarantee.
        retry_after: Duration,
    },
    /// The request waited in the queue longer than the engine's
    /// per-request timeout
    /// ([`ServeConfig::request_timeout`](crate::ServeConfig)) and was
    /// dropped by the worker instead of being answered stale.
    TimedOut {
        /// How long the request had waited when the worker gave up on
        /// it.
        waited: Duration,
    },
    /// The sentinel's enforcement ladder has this session rate limited
    /// ([`SentinelVerdict::RateLimited`](crate::SentinelVerdict)) and
    /// its token bucket is empty. Purely an admission condition — the
    /// request touched no shard — and it clears by itself: retry after
    /// the hint, or stop probing and let the session's strikes decay.
    RateLimited {
        /// The session the verdict applies to.
        client: ClientId,
        /// Estimated time until the session's token bucket refills one
        /// token ([`SentinelConfig::rate_limit_refill_per_sec`](crate::SentinelConfig)).
        retry_after: Duration,
    },
    /// The sentinel has quarantined this session
    /// ([`SentinelVerdict::Quarantined`](crate::SentinelVerdict)): its
    /// query pattern sustained an extraction signature through rate
    /// limiting. Every request is rejected before any routing, caching,
    /// or enclave work until an operator resets the sentinel or a
    /// successful deploy does.
    Quarantined {
        /// The session the verdict applies to.
        client: ClientId,
    },
    /// The engine has shut down; no further requests can be answered.
    Closed,
    /// The shard serving this request panicked mid-batch (or is down
    /// and draining). Only the batch in flight is lost: the supervisor
    /// restores the shard from its retained snapshot, so a retry is
    /// expected to succeed once the shard is healthy again.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
    },
    /// The engine could not be started (worker thread spawn failed).
    StartFailed {
        /// What went wrong during startup.
        reason: String,
    },
    /// The batch this request rode in failed inside the vault.
    Vault(gnnvault::VaultError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected { reason } => write!(f, "request rejected: {reason}"),
            ServeError::Overloaded {
                queued,
                retry_after,
            } => write!(
                f,
                "shard overloaded: {queued} requests queued; retry after {retry_after:?}"
            ),
            ServeError::TimedOut { waited } => {
                write!(f, "request timed out after waiting {waited:?}")
            }
            ServeError::RateLimited {
                client,
                retry_after,
            } => write!(
                f,
                "{client} is rate limited by the sentinel; retry after {retry_after:?}"
            ),
            ServeError::Quarantined { client } => write!(
                f,
                "{client} is quarantined for a sustained extraction signature"
            ),
            ServeError::Closed => write!(f, "serving engine is closed"),
            ServeError::ShardFailed { shard } => {
                write!(f, "shard {shard} failed while serving the request")
            }
            ServeError::StartFailed { reason } => {
                write!(f, "serving engine failed to start: {reason}")
            }
            ServeError::Vault(e) => write!(f, "batch failed in the vault: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Vault(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<gnnvault::VaultError> for ServeError {
    fn from(e: gnnvault::VaultError) -> Self {
        ServeError::Vault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        let e = ServeError::Rejected {
            reason: "empty request".into(),
        };
        assert!(e.to_string().contains("empty request"));
        assert!(Error::source(&e).is_none());

        assert!(ServeError::Closed.to_string().contains("closed"));

        let e = ServeError::Overloaded {
            queued: 9,
            retry_after: Duration::from_millis(4),
        };
        assert!(e.to_string().contains("overloaded"));
        assert!(e.to_string().contains('9'));
        assert!(Error::source(&e).is_none());

        let e = ServeError::TimedOut {
            waited: Duration::from_millis(3),
        };
        assert!(e.to_string().contains("timed out"));

        let e = ServeError::RateLimited {
            client: ClientId(12),
            retry_after: Duration::from_millis(25),
        };
        assert!(e.to_string().contains("client-12"));
        assert!(e.to_string().contains("rate limited"));
        assert!(Error::source(&e).is_none());

        let e = ServeError::Quarantined {
            client: ClientId(3),
        };
        assert!(e.to_string().contains("client-3"));
        assert!(e.to_string().contains("quarantined"));
        assert!(Error::source(&e).is_none());

        let e = ServeError::ShardFailed { shard: 2 };
        assert!(e.to_string().contains("shard 2"));
        assert!(Error::source(&e).is_none());

        let e = ServeError::StartFailed {
            reason: "no threads".into(),
        };
        assert!(e.to_string().contains("failed to start"));

        let e: ServeError = gnnvault::VaultError::InvalidConfig {
            reason: "bad".into(),
        }
        .into();
        assert!(e.to_string().contains("vault"));
        assert!(Error::source(&e).is_some());
    }
}
