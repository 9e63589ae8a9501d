//! The paper's reported numbers, for side-by-side printing in the
//! regenerated tables (EXPERIMENTS.md quotes the same numbers).

use dedukt_dna::DatasetId;

/// Table II: `(k-mers, supermers m=9, supermers m=7)` exchanged.
pub fn table2_counts(id: DatasetId) -> (u64, u64, u64) {
    match id {
        DatasetId::EColi30x => (412_000_000, 126_000_000, 108_000_000),
        DatasetId::PAeruginosa30x => (187_000_000, 56_000_000, 48_000_000),
        DatasetId::VVulnificus30x => (154_000_000, 47_000_000, 41_000_000),
        DatasetId::ABaumannii30x => (129_000_000, 40_000_000, 34_000_000),
        DatasetId::CElegans40x => (4_700_000_000, 1_500_000_000, 1_300_000_000),
        DatasetId::HSapiens54x => (167_000_000_000, 59_000_000_000, 50_000_000_000),
    }
}

/// Table II's reduction factor k-mers / supermers(m=7) for a dataset.
pub fn table2_reduction_m7(id: DatasetId) -> f64 {
    let (k, _, s7) = table2_counts(id);
    k as f64 / s7 as f64
}

/// Table III (384 GPUs): `(avg, kmer_min, kmer_max, smer_min, smer_max,
/// imbalance)` in k-mer instances.
pub fn table3_row(id: DatasetId) -> Option<(u64, u64, u64, u64, u64, f64)> {
    match id {
        DatasetId::CElegans40x => Some((
            12_000_000, 12_000_000, 14_000_000, 3_000_000, 50_000_000, 1.16,
        )),
        DatasetId::HSapiens54x => Some((
            255_000_000,
            253_000_000,
            283_000_000,
            41_000_000,
            606_000_000,
            2.37,
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_reductions_are_3_to_4x() {
        for id in DatasetId::ALL {
            let r = table2_reduction_m7(id);
            assert!((3.0..4.5).contains(&r), "{id:?}: {r}");
        }
    }

    #[test]
    fn table3_rows_exist_for_large_datasets() {
        assert!(table3_row(DatasetId::CElegans40x).is_some());
        assert!(table3_row(DatasetId::HSapiens54x).is_some());
        assert!(table3_row(DatasetId::EColi30x).is_none());
    }
}
