use crate::EnclaveSim;
use bytes::Bytes;

/// The label-only egress type of a GNNVault enclave (§IV-E): logits stay
/// sealed inside; only the predicted class index leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassLabel(pub usize);

/// The one ingress into the enclave: a one-way channel reused batch
/// after batch.
///
/// This is the structural encoding of the paper's "only one-way
/// communication from the untrusted environment to the enclave"
/// (§IV-B): a session can [`send`](Self::send) byte payloads *in* and
/// hand the received payloads out *inside* the enclave context
/// ([`drain`](Self::drain)), but exposes no API for moving enclave data
/// back out — the only egress anywhere in this crate is [`ClassLabel`].
///
/// A batch is every payload sent since the last `drain`. Each serving
/// worker holds one session and pushes every batch it executes through
/// it; what a batch cost is charged to the [`EnclaveSim`]'s counters,
/// not kept here.
///
/// # Examples
///
/// ```
/// use tee::{EnclaveSession, EnclaveSim};
///
/// let mut enclave = EnclaveSim::with_defaults();
/// let mut session = EnclaveSession::default();
///
/// // Batch 1: two payloads in, then the enclave side drains them.
/// session.send(&mut enclave, bytes::Bytes::from(vec![0u8; 64]));
/// session.send(&mut enclave, bytes::Bytes::from(vec![0u8; 32]));
/// assert_eq!(session.batch_bytes(), 96);
/// assert_eq!(session.drain().len(), 2);
///
/// // Batch 2 reuses the same session.
/// session.send(&mut enclave, bytes::Bytes::from(vec![0u8; 8]));
/// assert_eq!(session.batch_bytes(), 8);
/// assert_eq!(enclave.transitions(), 3, "every send is one ECALL");
/// ```
#[derive(Debug, Default)]
pub struct EnclaveSession {
    queue: Vec<Bytes>,
    batch_bytes: usize,
}

impl EnclaveSession {
    /// Marshals a payload into the enclave, charging one transition
    /// plus per-byte marshalling to the enclave's transfer counter.
    pub fn send(&mut self, enclave: &mut EnclaveSim, payload: Bytes) {
        enclave.charge_ingress(payload.len());
        self.batch_bytes += payload.len();
        self.queue.push(payload);
    }

    /// Takes the current batch's payloads, in arrival order (enclave
    /// side), and closes the batch.
    pub fn drain(&mut self) -> Vec<Bytes> {
        self.batch_bytes = 0;
        std::mem::take(&mut self.queue)
    }

    /// Payload bytes sent since the last [`drain`](Self::drain).
    pub fn batch_bytes(&self) -> usize {
        self.batch_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostModel;

    #[test]
    fn send_charges_and_queues() {
        let mut enclave = EnclaveSim::with_defaults();
        let mut s = EnclaveSession::default();
        s.send(&mut enclave, Bytes::from(vec![0u8; 100]));
        s.send(&mut enclave, Bytes::from(vec![0u8; 50]));
        assert_eq!(s.batch_bytes(), 150);
        assert_eq!(enclave.transitions(), 2);
        let cost = CostModel::default();
        assert_eq!(
            enclave.transfer_ns(),
            cost.transfer_ns(100) + cost.transfer_ns(50)
        );

        let delivered = s.drain();
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].len(), 100);
        assert!(s.drain().is_empty(), "drain empties the queue");
    }

    #[test]
    fn drain_closes_the_batch() {
        let mut enclave = EnclaveSim::new(1 << 20, CostModel::free(), Default::default());
        let mut s = EnclaveSession::default();
        s.send(&mut enclave, Bytes::from(vec![1u8; 10]));
        s.send(&mut enclave, Bytes::from(vec![2u8; 20]));
        assert_eq!(s.drain().len(), 2);
        assert_eq!(s.batch_bytes(), 0, "an empty batch accounts zero bytes");

        s.send(&mut enclave, Bytes::from(vec![3u8; 5]));
        assert_eq!(s.batch_bytes(), 5, "per-batch window moved");
        let delivered = s.drain();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0][0], 3, "the previous batch is not redelivered");
        assert_eq!(enclave.transitions(), 3, "every send is one ECALL");
    }
}
