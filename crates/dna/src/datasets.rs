//! The Table I dataset catalog, re-scaled for a single host.
//!
//! The paper evaluates six real datasets (Table I): four ~30X bacterial
//! genomes, C. elegans 40X, and H. sapiens 54X (317 GB of FASTQ, 167 billion
//! k-mers per Table II). Real data at that scale is out of reach here, so
//! each catalog entry generates a *synthetic equivalent* via [`crate::sim`]:
//! the genome length, coverage, and repeat structure are chosen so that
//!
//! * within the bacterial group, k-mer totals keep Table II's ratios
//!   (412 : 187 : 154 : 129);
//! * C. elegans and H. sapiens remain the two dominant datasets, with
//!   H. sapiens the largest and the most repeat-rich (which is what drives
//!   its higher supermer load imbalance in Table III);
//! * the absolute sizes fit the chosen [`ScalePreset`].
//!
//! The compression of the bacteria→human size gap (3 orders of magnitude in
//! the paper, ~1.5 here at `Bench` scale) is a documented deviation; see
//! EXPERIMENTS.md.

use crate::read::ReadSet;
use crate::sim::{simulate_genome, simulate_reads, GenomeParams, ReadSimParams};

/// Identifies one of the paper's six evaluation datasets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DatasetId {
    /// Escherichia coli MG1655, 30X (792 MB FASTQ in the paper).
    EColi30x,
    /// Pseudomonas aeruginosa PAO1, 30X (360 MB).
    PAeruginosa30x,
    /// Vibrio vulnificus YJ016, 30X (297 MB).
    VVulnificus30x,
    /// Acinetobacter baumannii, 30X (249 MB).
    ABaumannii30x,
    /// Caenorhabditis elegans Bristol, 40X (8.90 GB).
    CElegans40x,
    /// Homo sapiens, 54X (317 GB).
    HSapiens54x,
}

impl DatasetId {
    /// All six datasets in Table I order.
    pub const ALL: [DatasetId; 6] = [
        DatasetId::EColi30x,
        DatasetId::PAeruginosa30x,
        DatasetId::VVulnificus30x,
        DatasetId::ABaumannii30x,
        DatasetId::CElegans40x,
        DatasetId::HSapiens54x,
    ];

    /// The four small bacterial datasets (used in the paper's 16-node
    /// experiments, Fig. 6a / 8a).
    pub const SMALL: [DatasetId; 4] = [
        DatasetId::EColi30x,
        DatasetId::PAeruginosa30x,
        DatasetId::VVulnificus30x,
        DatasetId::ABaumannii30x,
    ];

    /// The two large datasets (64-node experiments, Fig. 6b / 7 / 8b).
    pub const LARGE: [DatasetId; 2] = [DatasetId::CElegans40x, DatasetId::HSapiens54x];

    /// Paper short name, as printed in Table I.
    pub fn short_name(self) -> &'static str {
        match self {
            DatasetId::EColi30x => "E. coli 30X",
            DatasetId::PAeruginosa30x => "P. aeruginosa 30X",
            DatasetId::VVulnificus30x => "V. vulnificus 30X",
            DatasetId::ABaumannii30x => "A. baumannii 30X",
            DatasetId::CElegans40x => "C. elegans 40X",
            DatasetId::HSapiens54x => "H. sapien 54X", // sic — paper spelling
        }
    }

    /// Species and strain, as printed in Table I.
    pub fn species(self) -> &'static str {
        match self {
            DatasetId::EColi30x => "Escherichia coli MG1655 strain",
            DatasetId::PAeruginosa30x => "Pseudomonas aeruginosa PAO1",
            DatasetId::VVulnificus30x => "Vibrio vulnificus YJ016",
            DatasetId::ABaumannii30x => "Acinetobacter baumannii",
            DatasetId::CElegans40x => "Caenorhabditis elegans Bristol mutant strain",
            DatasetId::HSapiens54x => "Homo sapiens",
        }
    }

    /// The paper's FASTQ size for this dataset, in bytes (Table I).
    pub fn paper_fastq_bytes(self) -> u64 {
        match self {
            DatasetId::EColi30x => 792 << 20,
            DatasetId::PAeruginosa30x => 360 << 20,
            DatasetId::VVulnificus30x => 297 << 20,
            DatasetId::ABaumannii30x => 249 << 20,
            DatasetId::CElegans40x => (8.90 * (1u64 << 30) as f64) as u64,
            DatasetId::HSapiens54x => 317u64 << 30,
        }
    }

    /// The paper's total k-mer count for this dataset (Table II, k=17).
    pub fn paper_kmer_count(self) -> u64 {
        match self {
            DatasetId::EColi30x => 412_000_000,
            DatasetId::PAeruginosa30x => 187_000_000,
            DatasetId::VVulnificus30x => 154_000_000,
            DatasetId::ABaumannii30x => 129_000_000,
            DatasetId::CElegans40x => 4_700_000_000,
            DatasetId::HSapiens54x => 167_000_000_000,
        }
    }
}

/// How aggressively to shrink the catalog for the host at hand.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ScalePreset {
    /// Unit-test scale: tens of thousands of k-mers per dataset; entire
    /// suite generates in milliseconds.
    Tiny,
    /// Benchmark scale (default for the figure regenerators): millions to
    /// tens of millions of k-mers; each dataset generates in seconds.
    Bench,
    /// A multiplier on `Bench` genome lengths (1.0 == `Bench`).
    Custom(f64),
}

impl ScalePreset {
    fn genome_multiplier(self) -> f64 {
        match self {
            ScalePreset::Tiny => 0.02,
            ScalePreset::Bench => 1.0,
            ScalePreset::Custom(f) => f,
        }
    }
}

impl std::str::FromStr for ScalePreset {
    type Err = String;

    /// Parses `tiny`, `bench` or `x<FACTOR>` with a positive, finite
    /// factor.
    fn from_str(s: &str) -> Result<ScalePreset, String> {
        match (s, s.strip_prefix('x').map(str::parse::<f64>)) {
            ("tiny", _) => Ok(ScalePreset::Tiny),
            ("bench", _) => Ok(ScalePreset::Bench),
            (_, Some(Ok(f))) if f > 0.0 && f.is_finite() => Ok(ScalePreset::Custom(f)),
            (_, Some(_)) => Err(format!(
                "bad scale factor {s:?} (expected a positive number after `x`)"
            )),
            (_, None) => Err(format!(
                "unknown scale {s:?} (expected tiny, bench or xFACTOR)"
            )),
        }
    }
}

/// A fully specified synthetic dataset: identity plus generation
/// parameters. Construct via [`Dataset::catalog`] or [`Dataset::new`].
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Which Table I entry this models.
    pub id: DatasetId,
    /// Genome synthesis parameters (already scaled).
    pub genome: GenomeParams,
    /// Read sampling parameters.
    pub reads: ReadSimParams,
    /// Master seed; genome and reads derive their own streams from it.
    pub seed: u64,
}

impl Dataset {
    /// Builds the catalog entry for `id` at the given scale.
    ///
    /// Bench-scale genome lengths keep Table II's bacterial ratios
    /// (E. coli : P. aeruginosa : V. vulnificus : A. baumannii =
    /// 412 : 187 : 154 : 129) and make C. elegans and H. sapiens the
    /// dominant datasets.
    pub fn new(id: DatasetId, scale: ScalePreset) -> Dataset {
        let m = scale.genome_multiplier();
        // Bench-scale genome lengths (bases) and per-dataset shape knobs.
        let (genome_len, coverage, repeat_fraction, mean_read_len) = match id {
            DatasetId::EColi30x => (100_000.0, 30.0, 0.06, 1_000),
            DatasetId::PAeruginosa30x => (45_400.0, 30.0, 0.06, 1_000),
            DatasetId::VVulnificus30x => (37_400.0, 30.0, 0.06, 1_000),
            DatasetId::ABaumannii30x => (31_300.0, 30.0, 0.06, 1_000),
            DatasetId::CElegans40x => (850_000.0, 40.0, 0.15, 1_200),
            DatasetId::HSapiens54x => (1_030_000.0, 54.0, 0.28, 1_500),
        };
        let length = ((genome_len * m) as usize).max(4_000);
        Dataset {
            id,
            genome: GenomeParams {
                length,
                repeat_fraction,
                repeat_len: (200, (length / 20).max(400)),
                gc_content: 0.45,
                // AT-rich low-complexity load grows with genome complexity
                // (H. sapiens is the most microsatellite-rich), which is
                // what skews lexicographic minimizer partitions (§IV-A).
                low_complexity_fraction: match id {
                    DatasetId::HSapiens54x => 0.04,
                    DatasetId::CElegans40x => 0.03,
                    _ => 0.02,
                },
                low_complexity_len: (20, 200),
            },
            reads: ReadSimParams {
                coverage,
                mean_read_len,
                len_sigma: 0.4,
                min_read_len: 64,
                sub_rate: 0.002,
                both_strands: true,
            },
            seed: 0xDED0_0000 + id as u64,
        }
    }

    /// The whole Table I catalog at one scale.
    pub fn catalog(scale: ScalePreset) -> Vec<Dataset> {
        DatasetId::ALL
            .iter()
            .map(|&id| Dataset::new(id, scale))
            .collect()
    }

    /// Generates the dataset (genome synthesis + read sampling).
    /// Deterministic in `self`.
    pub fn generate(&self) -> ReadSet {
        let genome = simulate_genome(&self.genome, self.seed);
        simulate_reads(&genome, &self.reads, self.seed ^ 0x9E37_79B9)
    }

    /// Expected number of sampled bases (`coverage × genome length`).
    pub fn expected_bases(&self) -> usize {
        (self.genome.length as f64 * self.reads.coverage) as usize
    }

    /// Approximate FASTQ size of the generated data, in bytes
    /// (sequence + qualities + headers ≈ 2.05 bytes per base).
    pub fn approx_fastq_bytes(&self) -> u64 {
        (self.expected_bases() as f64 * 2.05) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_six() {
        let cat = Dataset::catalog(ScalePreset::Tiny);
        assert_eq!(cat.len(), 6);
        for (d, id) in cat.iter().zip(DatasetId::ALL) {
            assert_eq!(d.id, id);
        }
    }

    #[test]
    fn bacterial_ratios_match_table2() {
        // Genome lengths (equal coverage) must keep 412:187:154:129.
        let e = Dataset::new(DatasetId::EColi30x, ScalePreset::Bench);
        let p = Dataset::new(DatasetId::PAeruginosa30x, ScalePreset::Bench);
        let ratio = e.genome.length as f64 / p.genome.length as f64;
        let paper = 412.0 / 187.0;
        assert!(
            (ratio - paper).abs() / paper < 0.02,
            "ratio {ratio} vs {paper}"
        );
    }

    #[test]
    fn human_is_largest_and_most_repetitive() {
        let cat = Dataset::catalog(ScalePreset::Bench);
        let human = &cat[5];
        for other in &cat[..5] {
            assert!(human.expected_bases() > other.expected_bases());
            assert!(human.genome.repeat_fraction >= other.genome.repeat_fraction);
        }
    }

    #[test]
    fn tiny_generates_quickly_and_deterministically() {
        let d = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny);
        let a = d.generate();
        let b = d.generate();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Coverage target honoured within 10%.
        let total = a.total_bases() as f64;
        let expect = d.expected_bases() as f64;
        assert!(
            total >= expect && total < expect * 1.1,
            "{total} vs {expect}"
        );
    }

    #[test]
    fn custom_scale_scales_genome() {
        let one = Dataset::new(DatasetId::EColi30x, ScalePreset::Custom(1.0));
        let half = Dataset::new(DatasetId::EColi30x, ScalePreset::Custom(0.5));
        assert_eq!(one.genome.length / 2, half.genome.length);
    }

    #[test]
    fn scale_presets_parse() {
        assert_eq!("tiny".parse(), Ok(ScalePreset::Tiny));
        assert_eq!("bench".parse(), Ok(ScalePreset::Bench));
        assert_eq!("x0.25".parse(), Ok(ScalePreset::Custom(0.25)));
        for bad in ["x0", "x-1", "xNaN", "xinf", "x", "huge"] {
            assert!(bad.parse::<ScalePreset>().is_err(), "{bad}");
        }
    }

    #[test]
    fn paper_constants_present() {
        assert_eq!(DatasetId::HSapiens54x.paper_kmer_count(), 167_000_000_000);
        assert_eq!(DatasetId::EColi30x.paper_fastq_bytes(), 792 << 20);
        assert_eq!(DatasetId::HSapiens54x.short_name(), "H. sapien 54X");
    }

    #[test]
    fn distinct_seeds_per_dataset() {
        let cat = Dataset::catalog(ScalePreset::Tiny);
        let mut seeds: Vec<u64> = cat.iter().map(|d| d.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 6);
    }
}
