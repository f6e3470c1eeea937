//! Reusable enclave sessions for batched serving.
//!
//! Every vault inference moves its taps through an [`EnclaveSession`].
//! [`Vault::infer`](../gnnvault) opens a one-shot session per call; a
//! serving deployment that answers thousands of batches per second
//! wants the real-SGX shape instead: a worker thread opens an enclave
//! session once, then keeps issuing ECALLs through it.
//! [`EnclaveSession`] models that handle — one long-lived ingress
//! channel whose queue is recycled batch after batch, plus per-session
//! accounting (batches served, bytes moved in the current batch and
//! over the session lifetime).

use crate::{EnclaveSim, TeeError, TransferReceipt, UntrustedToEnclave};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Identifier of one enclave session, unique within the issuing vault.
///
/// `Hash` lets session ids key per-session accounting maps (e.g. the
/// serving sentinel's detector state) and the serde derives let them
/// appear in serialized statistics alongside `serve::ClientId`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct SessionId(pub u64);

/// A long-lived enclave ingress session: a reusable
/// [`UntrustedToEnclave`] channel plus batch bookkeeping.
///
/// Each serving worker holds one session and pushes every batch it
/// executes through the same channel, so steady-state serving allocates
/// no per-batch channel state and the session's counters are an exact
/// record of what the worker has moved so far.
///
/// The one-way guarantee of [`UntrustedToEnclave`] is preserved:
/// payloads go *in*, and nothing this type exposes moves enclave data
/// back out.
///
/// # Examples
///
/// ```
/// use tee::{EnclaveSession, EnclaveSim, SessionId};
///
/// # fn main() -> Result<(), tee::TeeError> {
/// let mut enclave = EnclaveSim::with_defaults();
/// let mut session = EnclaveSession::new(SessionId(0));
///
/// // Batch 1: two payloads in, then the enclave side drains them.
/// session.begin_batch();
/// session.send(&mut enclave, bytes::Bytes::from(vec![0u8; 64]))?;
/// session.send(&mut enclave, bytes::Bytes::from(vec![0u8; 32]))?;
/// assert_eq!(session.batch_bytes(), 96);
/// assert_eq!(session.drain().len(), 2);
///
/// // Batch 2 reuses the same channel; per-batch accounting resets,
/// // lifetime accounting accumulates.
/// session.begin_batch();
/// session.send(&mut enclave, bytes::Bytes::from(vec![0u8; 8]))?;
/// assert_eq!(session.batch_bytes(), 8);
/// assert_eq!(session.lifetime_bytes(), 104);
/// assert_eq!(session.batches_served(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EnclaveSession {
    id: SessionId,
    channel: UntrustedToEnclave,
    batches_served: u64,
    /// Bytes from receipts already folded out of the channel's log at
    /// batch boundaries. Keeping a counter (not the receipts) bounds the
    /// session's memory by one batch regardless of how long it lives.
    retired_bytes: usize,
}

impl EnclaveSession {
    /// Opens a session with the given id. Vaults mint ids themselves
    /// (see `Vault::open_session` in the `gnnvault` crate); standalone
    /// use just needs ids to be distinct per enclave.
    pub fn new(id: SessionId) -> Self {
        Self {
            id,
            channel: UntrustedToEnclave::new(),
            batches_served: 0,
            retired_bytes: 0,
        }
    }

    /// This session's id.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// Marks the start of a new batch: discards any undrained payloads
    /// from an aborted predecessor and retires the previous batch's
    /// receipts into the lifetime counters, so the receipt log never
    /// holds more than one batch's sends.
    pub fn begin_batch(&mut self) {
        let _ = self.channel.drain();
        for receipt in self.channel.take_receipts() {
            self.retired_bytes += receipt.bytes;
        }
        self.batches_served += 1;
    }

    /// Marshals one payload into the enclave through this session's
    /// channel, charging transition and per-byte costs as usual.
    ///
    /// # Errors
    ///
    /// Propagates channel failures (infallible in the simulator; real
    /// backends can fail).
    pub fn send(
        &mut self,
        enclave: &mut EnclaveSim,
        payload: Bytes,
    ) -> Result<TransferReceipt, TeeError> {
        self.channel.send(enclave, payload)
    }

    /// Takes the payloads delivered in the current batch (enclave side).
    pub fn drain(&mut self) -> Vec<Bytes> {
        self.channel.drain()
    }

    /// Number of batches started on this session.
    pub fn batches_served(&self) -> u64 {
        self.batches_served
    }

    /// Payload bytes sent since the last [`begin_batch`](Self::begin_batch).
    pub fn batch_bytes(&self) -> usize {
        self.channel.total_bytes()
    }

    /// Payload bytes sent over the whole session lifetime.
    pub fn lifetime_bytes(&self) -> usize {
        self.retired_bytes + self.channel.total_bytes()
    }

    /// Receipts of the *current* batch, oldest first. Earlier batches'
    /// receipts are retired into [`lifetime_bytes`](Self::lifetime_bytes)
    /// at each [`begin_batch`](Self::begin_batch).
    pub fn receipts(&self) -> &[TransferReceipt] {
        self.channel.receipts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    #[test]
    fn batches_recycle_the_channel() {
        let mut enclave = EnclaveSim::with_defaults();
        let mut s = EnclaveSession::new(SessionId(3));
        assert_eq!(s.id(), SessionId(3));
        assert_eq!(s.batches_served(), 0);

        s.begin_batch();
        s.send(&mut enclave, Bytes::from(vec![1u8; 10])).unwrap();
        s.send(&mut enclave, Bytes::from(vec![2u8; 20])).unwrap();
        assert_eq!(s.batch_bytes(), 30);
        let delivered = s.drain();
        assert_eq!(delivered.len(), 2);

        s.begin_batch();
        s.send(&mut enclave, Bytes::from(vec![3u8; 5])).unwrap();
        assert_eq!(s.batch_bytes(), 5, "per-batch window moved");
        assert_eq!(s.lifetime_bytes(), 35, "lifetime accumulates");
        assert_eq!(s.batches_served(), 2);
        assert_eq!(s.receipts().len(), 1, "log holds the current batch only");
        assert_eq!(enclave.transitions(), 3, "every send is one ECALL");
    }

    #[test]
    fn begin_batch_discards_stale_payloads() {
        let mut enclave = EnclaveSim::new(1 << 20, CostModel::free(), Default::default());
        let mut s = EnclaveSession::new(SessionId(0));
        s.begin_batch();
        s.send(&mut enclave, Bytes::from(vec![0u8; 4])).unwrap();
        // Aborted batch: never drained. The next batch must not see it.
        s.begin_batch();
        s.send(&mut enclave, Bytes::from(vec![9u8; 2])).unwrap();
        let delivered = s.drain();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].len(), 2);
    }

    #[test]
    fn receipt_log_stays_bounded_over_many_batches() {
        let mut enclave = EnclaveSim::new(1 << 20, CostModel::free(), Default::default());
        let mut s = EnclaveSession::new(SessionId(2));
        for _ in 0..1_000 {
            s.begin_batch();
            s.send(&mut enclave, Bytes::from(vec![0u8; 3])).unwrap();
            s.send(&mut enclave, Bytes::from(vec![0u8; 4])).unwrap();
            let _ = s.drain();
            assert!(s.receipts().len() <= 2, "log must never outgrow one batch");
        }
        assert_eq!(s.batches_served(), 1_000);
        assert_eq!(s.lifetime_bytes(), 7_000);
        assert_eq!(s.batch_bytes(), 7);
    }

    #[test]
    fn empty_batch_accounts_zero_bytes() {
        let mut s = EnclaveSession::new(SessionId(1));
        s.begin_batch();
        assert_eq!(s.batch_bytes(), 0);
        assert_eq!(s.lifetime_bytes(), 0);
    }
}
