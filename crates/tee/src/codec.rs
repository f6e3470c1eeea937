//! Byte codecs for marshalling matrices across the enclave boundary.
//!
//! The workspace's approved dependency list has no serde *format* crate,
//! so world-crossing payloads use a small explicit little-endian layout:
//!
//! ```text
//! DenseMatrix: [rows: u64][cols: u64][data: f32 × rows·cols]
//! ```
//!
//! The format is versionless by design — both worlds are built from the
//! same binary, exactly like an SGX app and its enclave shared object.

use crate::TeeError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use linalg::DenseMatrix;

/// Encodes a dense matrix into a world-crossing payload.
///
/// # Examples
///
/// ```
/// # use linalg::DenseMatrix;
/// # fn main() -> Result<(), tee::TeeError> {
/// let m = DenseMatrix::filled(2, 3, 1.5);
/// let bytes = tee::codec::encode_dense(&m);
/// let back = tee::codec::decode_dense(&bytes)?;
/// assert_eq!(m, back);
/// # Ok(())
/// # }
/// ```
pub fn encode_dense(matrix: &DenseMatrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + matrix.len() * 4);
    buf.put_u64_le(matrix.rows() as u64);
    buf.put_u64_le(matrix.cols() as u64);
    for &v in matrix.as_slice() {
        buf.put_f32_le(v);
    }
    buf.freeze()
}

/// Decodes a dense matrix from a world-crossing payload.
///
/// # Errors
///
/// Returns [`TeeError::Codec`] on truncated or inconsistent payloads.
pub fn decode_dense(payload: &[u8]) -> Result<DenseMatrix, TeeError> {
    let mut buf = payload;
    if buf.len() < 16 {
        return Err(TeeError::Codec {
            reason: format!("header needs 16 bytes, got {}", buf.len()),
        });
    }
    let rows = buf.get_u64_le() as usize;
    let cols = buf.get_u64_le() as usize;
    let expected = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(4))
        .ok_or_else(|| TeeError::Codec {
            reason: "dimension overflow".into(),
        })?;
    if buf.len() != expected {
        return Err(TeeError::Codec {
            reason: format!("payload has {} data bytes, expected {expected}", buf.len()),
        });
    }
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(buf.get_f32_le());
    }
    DenseMatrix::from_vec(rows, cols, data).map_err(|e| TeeError::Codec {
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_simple() {
        let m = DenseMatrix::from_rows(&[&[1.0, -2.5], &[0.0, f32::MIN_POSITIVE]]).unwrap();
        assert_eq!(decode_dense(&encode_dense(&m)).unwrap(), m);
    }

    #[test]
    fn empty_matrix_roundtrips() {
        let m = DenseMatrix::zeros(0, 5);
        assert_eq!(decode_dense(&encode_dense(&m)).unwrap(), m);
    }

    #[test]
    fn truncated_payload_rejected() {
        let m = DenseMatrix::filled(2, 2, 1.0);
        let bytes = encode_dense(&m);
        assert!(decode_dense(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_dense(&bytes[..8]).is_err());
        assert!(decode_dense(&[]).is_err());
    }

    #[test]
    fn oversized_payload_rejected() {
        let m = DenseMatrix::filled(1, 1, 1.0);
        let mut bytes = encode_dense(&m).to_vec();
        bytes.push(0);
        assert!(decode_dense(&bytes).is_err());
    }

    #[test]
    fn absurd_dimensions_rejected() {
        let mut buf = bytes::BytesMut::new();
        buf.put_u64_le(u64::MAX);
        buf.put_u64_le(u64::MAX);
        assert!(decode_dense(&buf).is_err());
    }

    /// Hostile-input contract: `payload` decodes to a matrix that
    /// re-encodes to exactly `payload` (so nothing was sized beyond its
    /// length), or fails as a typed [`TeeError::Codec`] — never a panic.
    fn assert_typed_or_exact(payload: &[u8]) {
        match decode_dense(payload) {
            Ok(m) => assert_eq!(&encode_dense(&m)[..], payload),
            Err(TeeError::Codec { .. }) => {}
            Err(other) => panic!("untyped failure {other:?}"),
        }
    }

    /// A `rows | cols` header with no data.
    fn header(rows: u64, cols: u64) -> Vec<u8> {
        [rows.to_le_bytes(), cols.to_le_bytes()].concat()
    }

    /// A header dimension an attacker would pick, by `pick`: small, a
    /// power of two at the overflow edges of `rows·cols·4`, the
    /// maximum, or anything at all.
    fn hostile_dim(pick: u8, raw: u64) -> u64 {
        match pick {
            0 => raw % 6,
            1 => 1 << (60 + raw % 4),
            2 => u64::MAX,
            _ => raw,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arbitrary_bytes_decode_typed_or_exactly(
            payload in proptest::collection::vec(any::<u8>(), 0..80),
        ) {
            assert_typed_or_exact(&payload);
        }

        #[test]
        fn adversarial_headers_decode_typed_or_exactly(
            picks in proptest::collection::vec(0u8..4, 2),
            raws in proptest::collection::vec(any::<u64>(), 2),
            data_len in 0usize..100,
        ) {
            let rows = hostile_dim(picks[0], raws[0]);
            let cols = hostile_dim(picks[1], raws[1]);
            let mut payload = header(rows, cols);
            payload.resize(16 + data_len, 0x3F);
            assert_typed_or_exact(&payload);
        }

        #[test]
        fn a_length_off_by_one_is_typed(rows in 0usize..6, cols in 1usize..6, grow in any::<bool>()) {
            let mut payload = encode_dense(&DenseMatrix::filled(rows, cols, 0.5)).to_vec();
            if grow {
                payload.push(0);
            } else {
                payload.pop();
            }
            prop_assert!(matches!(decode_dense(&payload), Err(TeeError::Codec { .. })));
        }
    }

    #[test]
    fn overflowing_and_empty_headers_are_typed_or_exact() {
        // rows·cols·4 overflows in the product and in the byte count.
        for (rows, cols) in [(1u64 << 32, 1u64 << 32), (1 << 62, 1), (1 << 63, 2)] {
            assert!(matches!(
                decode_dense(&header(rows, cols)),
                Err(TeeError::Codec { .. })
            ));
        }
        // Zero rows by 2^63 columns holds no data: it decodes, to the
        // matrix that encodes as exactly these 16 bytes.
        let empty = header(0, 1 << 63);
        let m = decode_dense(&empty).unwrap();
        assert_eq!((m.rows(), m.cols(), m.len()), (0, 1 << 63, 0));
        assert_eq!(&encode_dense(&m)[..], &empty[..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn roundtrip_random(rows in 0usize..12, cols in 0usize..12, seed in 0u64..500) {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let m = DenseMatrix::from_fn(rows, cols, |_, _| {
                state ^= state << 13; state ^= state >> 7; state ^= state << 17;
                f32::from_bits(((state as u32) % 0x7F00_0000).max(1))
            });
            prop_assert_eq!(decode_dense(&encode_dense(&m)).unwrap(), m);
        }
    }
}
