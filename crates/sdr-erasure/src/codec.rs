//! The erasure-code interface shared by the MDS (Reed–Solomon) and XOR
//! schemes of the paper's Section 5.1.
//!
//! Encode writes caller-owned parity. Decode has one primitive,
//! [`ErasureCode::reconstruct_data`]: borrowed shards in, only the erased
//! *data* shards out, into caller-owned buffers, over any column range —
//! what the EC receiver runs in place in node memory, striped across the
//! encode pool ([`EncodePool::reconstruct_striped`](crate::EncodePool::reconstruct_striped)).
//! [`ErasureCode::reconstruct`] is the allocating, single-threaded wrapper
//! around it that also refills erased parity.

/// Errors surfaced by decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EcError {
    /// Not enough shards survive to reconstruct the data.
    Unrecoverable,
    /// Shards have inconsistent lengths or the wrong count.
    ShapeMismatch,
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::Unrecoverable => write!(f, "too many erasures to reconstruct"),
            EcError::ShapeMismatch => write!(f, "shard shape mismatch"),
        }
    }
}

impl std::error::Error for EcError {}

/// A systematic erasure code over `k` data shards producing `m` parity
/// shards. Shard order everywhere is `[data_0 … data_{k-1}, parity_0 …
/// parity_{m-1}]`.
pub trait ErasureCode: Send + Sync {
    /// Number of data shards (`k` in the paper).
    fn data_shards(&self) -> usize;

    /// Number of parity shards (`m` in the paper).
    fn parity_shards(&self) -> usize;

    /// Total shards `k + m`.
    fn total_shards(&self) -> usize {
        self.data_shards() + self.parity_shards()
    }

    /// Computes parity into caller-provided buffers (the hot path —
    /// no allocation).
    ///
    /// # Panics
    /// Panics when shard counts or lengths are inconsistent.
    fn encode_into(&self, data: &[&[u8]], parity: &mut [&mut [u8]]);

    /// Overwrites `out` with parity shard `row` alone — what
    /// [`reconstruct`](Self::reconstruct) refills an erased parity shard
    /// with, without computing the rows that arrived.
    ///
    /// # Panics
    /// Panics when shard counts or lengths are inconsistent.
    fn encode_row(&self, data: &[&[u8]], row: usize, out: &mut [u8]);

    /// Computes and returns freshly allocated parity shards.
    fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.data_shards());
        let len = data.first().map_or(0, |d| d.len());
        let mut parity = vec![vec![0u8; len]; self.parity_shards()];
        {
            let mut views: Vec<&mut [u8]> = parity.iter_mut().map(|p| p.as_mut_slice()).collect();
            self.encode_into(data, &mut views);
        }
        parity
    }

    /// Whether the erasure pattern `present` (length `k + m`, `true` =
    /// shard arrived) allows full data recovery.
    fn can_recover(&self, present: &[bool]) -> bool;

    /// Rebuilds the missing **data** shards from the present ones — the
    /// one decode primitive. `shards` has `k + m` entries (`None` =
    /// erased); `missing` holds one output per `None` among the first `k`,
    /// in index order, each as long as the present shards. Erased parity is
    /// neither needed nor rebuilt.
    ///
    /// Codes are column-wise independent, so the shards may be any column
    /// range of a submessage (the striped decode hands each stripe its
    /// own). Nothing is written on `Err`.
    fn reconstruct_data(
        &self,
        shards: &[Option<&[u8]>],
        missing: &mut [&mut [u8]],
    ) -> Result<(), EcError>;

    /// Reconstructs all missing **data** shards in place (`None` entries are
    /// erasures). Missing parity shards are also refilled when possible.
    ///
    /// The allocating, single-threaded wrapper: fresh buffers, then
    /// [`reconstruct_data`](Self::reconstruct_data), then
    /// [`encode_row`](Self::encode_row) for each erased parity shard.
    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        let k = self.data_shards();
        if shards.len() != self.total_shards() {
            return Err(EcError::ShapeMismatch);
        }
        let len = shards.iter().flatten().next().map_or(0, Vec::len);
        let holes = shards[..k].iter().filter(|s| s.is_none()).count();
        let mut rebuilt = vec![vec![0u8; len]; holes];
        {
            let views: Vec<Option<&[u8]>> = shards.iter().map(Option::as_deref).collect();
            let mut outs: Vec<&mut [u8]> = rebuilt.iter_mut().map(Vec::as_mut_slice).collect();
            self.reconstruct_data(&views, &mut outs)?;
        }
        let mut rebuilt = rebuilt.into_iter();
        for slot in shards[..k].iter_mut().filter(|s| s.is_none()) {
            *slot = rebuilt.next();
        }
        let (data, parity) = shards.split_at_mut(k);
        let data: Vec<&[u8]> = data.iter().flatten().map(Vec::as_slice).collect();
        for (row, slot) in parity.iter_mut().enumerate().filter(|(_, s)| s.is_none()) {
            let mut out = vec![0u8; len];
            self.encode_row(&data, row, &mut out);
            *slot = Some(out);
        }
        Ok(())
    }
}

/// Validates a decode's shape: `total` shards, every present one and every
/// output the same length, one output per erased data shard (the first
/// `k`). Returns that length; no present shard at all is
/// [`EcError::Unrecoverable`].
pub(crate) fn decode_len(
    shards: &[Option<&[u8]>],
    missing: &[&mut [u8]],
    k: usize,
    total: usize,
) -> Result<usize, EcError> {
    if shards.len() != total || missing.len() != shards[..k].iter().filter(|s| s.is_none()).count()
    {
        return Err(EcError::ShapeMismatch);
    }
    let len = shards
        .iter()
        .flatten()
        .next()
        .ok_or(EcError::Unrecoverable)?
        .len();
    let ragged =
        shards.iter().flatten().any(|s| s.len() != len) || missing.iter().any(|o| o.len() != len);
    if ragged {
        return Err(EcError::ShapeMismatch);
    }
    Ok(len)
}
