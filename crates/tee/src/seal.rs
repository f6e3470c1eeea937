use crate::TeeError;
use bytes::Bytes;

/// Sealing key for at-rest protection of deployment artifacts.
///
/// Real SGX derives sealing keys from the CPU's fuse keys and the
/// enclave measurement; the simulator uses a caller-supplied 128-bit
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealKey(pub u128);

impl SealKey {
    /// Derives a deterministic per-purpose subkey, so an artifact sealed
    /// for one purpose never unseals as another's. Keystream reuse is
    /// [`Sealed`]'s concern, not the key's: it seeds each keystream
    /// from the payload's tag, so no key reuses one across distinct
    /// payloads short of a 64-bit tag collision.
    pub fn derive(&self, purpose: &str) -> SealKey {
        let mut h: u128 = self.0 ^ 0x9E37_79B9_7F4A_7C15_F39C_ACC5_1234_5678;
        for b in purpose.bytes() {
            h ^= b as u128;
            h = h.wrapping_mul(0x0000_0100_0000_01B3_0000_0100_0000_01B3);
        }
        SealKey(h)
    }
}

/// A sealed (encrypted-at-rest, tamper-evident) byte payload.
///
/// **Simulation only — not real cryptography.** Sealing is SIV-shaped:
/// a keyed FNV-style checksum of the *plaintext* is the tag, and the
/// payload is XOR-ed with a xorshift keystream seeded from the key and
/// that tag, so two distinct payloads under one key share a keystream
/// only if their 64-bit tags collide. Sealing stays deterministic — same key, same
/// payload, same bytes. This preserves the *interface* and failure
/// modes of SGX sealing (wrong key or flipped bit ⇒ unseal fails)
/// without claiming any security.
///
/// # Examples
///
/// ```
/// use tee::{SealKey, Sealed};
///
/// # fn main() -> Result<(), tee::TeeError> {
/// let key = SealKey(42);
/// let sealed = Sealed::seal(key, b"rectifier weights");
/// let plain = sealed.unseal(key)?;
/// assert_eq!(&plain[..], b"rectifier weights");
/// assert!(sealed.unseal(SealKey(43)).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sealed {
    ciphertext: Vec<u8>,
    tag: u64,
}

impl Sealed {
    /// Seals a byte payload under `key`.
    pub fn seal(key: SealKey, plaintext: &[u8]) -> Sealed {
        let tag = mac(key, plaintext);
        let ciphertext = xor_keystream(key, tag, plaintext);
        Sealed { ciphertext, tag }
    }

    /// Unseals: decrypts under the key and the stored tag, then checks
    /// the tag against the plaintext that decryption produced.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::SealTampered`] when the key is wrong or the
    /// ciphertext or tag was modified.
    pub fn unseal(&self, key: SealKey) -> Result<Bytes, TeeError> {
        let plaintext = xor_keystream(key, self.tag, &self.ciphertext);
        if mac(key, &plaintext) != self.tag {
            return Err(TeeError::SealTampered);
        }
        Ok(Bytes::from(plaintext))
    }

    /// Size of the sealed payload in bytes.
    pub fn len(&self) -> usize {
        self.ciphertext.len()
    }

    /// Whether the sealed payload is empty.
    pub fn is_empty(&self) -> bool {
        self.ciphertext.is_empty()
    }
}

/// XORs `data` with the keystream of `key` and a payload's `tag` (its
/// synthetic IV).
fn xor_keystream(key: SealKey, tag: u64, data: &[u8]) -> Vec<u8> {
    let mut state = (key.0 as u64)
        ^ ((key.0 >> 64) as u64)
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ 0xDEAD_BEEF_CAFE_F00D;
    if state == 0 {
        state = 1;
    }
    let mut out = Vec::with_capacity(data.len());
    let mut word = 0u64;
    for (i, &b) in data.iter().enumerate() {
        if i % 8 == 0 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            word = state;
        }
        out.push(b ^ (word >> ((i % 8) * 8)) as u8);
    }
    out
}

fn mac(key: SealKey, data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (key.0 as u64) ^ ((key.0 >> 64) as u64);
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_and_wrong_key() {
        let key = SealKey(0xABCD);
        let sealed = Sealed::seal(key, b"private adjacency");
        assert_eq!(&sealed.unseal(key).unwrap()[..], b"private adjacency");
        assert_eq!(sealed.unseal(SealKey(0xABCE)), Err(TeeError::SealTampered));
    }

    #[test]
    fn tamper_detection() {
        let key = SealKey(7);
        let mut sealed = Sealed::seal(key, b"hello world");
        sealed.ciphertext[3] ^= 0x01;
        assert_eq!(sealed.unseal(key), Err(TeeError::SealTampered));
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let sealed = Sealed::seal(SealKey(1), b"secret secret secret");
        assert_ne!(&sealed.ciphertext[..], b"secret secret secret" as &[u8]);
        assert_eq!(sealed.len(), 20);
        assert!(!sealed.is_empty());
    }

    #[test]
    fn equal_length_payloads_under_one_key_get_distinct_keystreams() {
        // With one keystream per key, ciphertext XOR would equal
        // plaintext XOR, and a known payload would reveal any other.
        let key = SealKey(0x5EED);
        let (a, b): (&[u8], &[u8]) = (b"public backbone!", b"private edge 0-1");
        assert_eq!(a.len(), b.len());
        let (sa, sb) = (Sealed::seal(key, a), Sealed::seal(key, b));
        let xor = |x: &[u8], y: &[u8]| -> Vec<u8> { x.iter().zip(y).map(|(p, q)| p ^ q).collect() };
        assert_ne!(xor(&sa.ciphertext, &sb.ciphertext), xor(a, b));
        assert_eq!(Sealed::seal(key, a), sa, "sealing is deterministic");
    }

    #[test]
    fn tampered_tag_is_rejected() {
        let key = SealKey(7);
        let mut sealed = Sealed::seal(key, b"hello world");
        sealed.tag ^= 1;
        assert_eq!(sealed.unseal(key), Err(TeeError::SealTampered));
    }

    #[test]
    fn derived_keys_differ_by_purpose() {
        let root = SealKey(99);
        let a = root.derive("weights");
        let b = root.derive("graph");
        assert_ne!(a, b);
        assert_eq!(a, root.derive("weights"), "derivation is deterministic");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn seal_unseal_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..512), key in any::<u128>()) {
            let k = SealKey(key);
            let sealed = Sealed::seal(k, &data);
            prop_assert_eq!(&sealed.unseal(k).unwrap()[..], &data[..]);
        }
    }
}
